"""Spectral layer: expansion coefficients, moment matrix, determinant forms,
residues, the closed distribution, volume, and the rank-one kernel identity.

The quadrature oracle for single entries sums its trapezoid rule exactly, as
a constant term, so the off-parity entries (which are exact zeros) come out
as 0.0 instead of hiding behind a loose tolerance.  The extended-precision
trapezoid sum it reproduces bit for bit is kept here as its reference.
"""

import functools
import math
from fractions import Fraction

import mpmath
import pytest

from recmahler import spectral
from recmahler.errors import (
    DimensionTooLarge,
    EvaluationOverflow,
    GradeMismatch,
    IndexOutOfRange,
    RepeatedPole,
)
from recmahler.exact import (
    _PI_128,
    LaurentPi,
    PiScaled,
    RatFunPi,
    laurent_from_poles,
    laurent_mellin,
    num_den_lists,
    partial_fractions,
    ratfun_eval_exact,
    ratfun_to_lists,
)
from recmahler.spectral import (
    RankOneReport,
    c_matrix,
    coeff_c,
    d_term,
    det_double_sum,
    det_ratfun,
    factorization_checks,
    h_closed,
    h_eval,
    h_hat,
    h_product,
    h_values,
    hJK_closed,
    hJK_quadrature,
    i_entry,
    i_matrix,
    i_residue_maps,
    mellin_residue_miss,
    omega_psi_check,
    power_over_pairs,
    rho,
    volume_exact,
)

F = Fraction


# ---------------------------------------------------------------------------
# expansion coefficients


def test_coeff_c_frozen():
    assert coeff_c(1, 1) == 1
    assert coeff_c(1, 2) == 0
    assert coeff_c(2, 2) == 1
    assert coeff_c(1, 3) == 1  # C(2,1) - C(2,2), the sign-sensitive case
    assert coeff_c(3, 3) == 1
    assert coeff_c(2, 4) == 2
    assert coeff_c(1, 5) == 2
    assert coeff_c(4, 2) == 0
    assert coeff_c(2, 3) == 0
    for k in range(1, 9):
        assert coeff_c(k, k) == 1


def test_coeff_c_range_errors():
    with pytest.raises(IndexOutOfRange):
        coeff_c(0, 1)
    with pytest.raises(IndexOutOfRange):
        coeff_c(1, 0)


def test_d_term_frozen_and_range():
    for n in range(1, 10):
        assert d_term(n) == RatFunPi(1, {n: 1, -n: 1})
        assert ratfun_to_lists(d_term(n)) == {
            "pi_power": 1,
            "num": ["0", "2"],
            "den": [str(-n * n), "0", "1"],
        }
    # 2 pi s / s^2 has no simple pole at 0 of the diagonal's form
    with pytest.raises(IndexOutOfRange):
        d_term(0)


def test_c_matrix_validates():
    """C's rows as plain tuples: upper unitriangular, zero off parity."""
    for n in range(1, 9):
        c = c_matrix(n)
        assert type(c) is tuple and len(c) == n
        assert all(type(row) is tuple and len(row) == n for row in c)
        assert all(c[a][a] == 1 for a in range(n))
        assert not any(c[a][b] for a in range(n) for b in range(n) if a > b or (a - b) % 2)


def test_c_matrix_rejects_tampering():
    """factorization_checks fails each C that breaks C's structure, and
    names what broke."""
    maps = i_residue_maps(2)
    assert factorization_checks(((1, 0), (1, 1)), maps) == (  # below the diagonal
        ("factorization", False, "I != C^T D C at (J, K) = (1, 1)"),
        ("unimodular C", False, "C is not upper triangular"),
    )
    assert factorization_checks(((1, 1), (0, 1)), maps) == (  # off parity
        ("factorization", False, "I != C^T D C at (J, K) = (1, 2)"),
        ("unimodular C", True, "det C = 1, expected 1"),
    )
    assert factorization_checks(((2, 0), (0, 1)), maps) == (  # non-unit diagonal
        ("factorization", False, "I != C^T D C at (J, K) = (1, 1)"),
        ("unimodular C", False, "det C = 2, expected 1"),
    )


# ---------------------------------------------------------------------------
# moment matrix entries


def test_i_entry_frozen():
    assert i_entry(1, 1) == d_term(1)
    assert i_entry(2, 2) == d_term(2)
    assert i_entry(1, 2).is_zero
    # the corrected bracket makes this +1 * d_term(1), not -3 * d_term(1)
    assert i_entry(1, 3) == d_term(1)
    # pi (2s/(s^2 - 1) + 2s/(s^2 - 9)) = 4 pi s (s^2 - 5)/((s^2 - 1)(s^2 - 9))
    assert i_entry(3, 3) == RatFunPi(1, {1: 1, -1: 1, 3: 1, -3: 1})
    assert ratfun_to_lists(i_entry(3, 3)) == {
        "pi_power": 1,
        "num": ["0", "-20", "0", "4"],
        "den": ["9", "0", "-10", "0", "1"],
    }


def test_i_entry_range_errors():
    with pytest.raises(IndexOutOfRange):
        i_entry(0, 1)
    with pytest.raises(IndexOutOfRange):
        i_matrix(0)


def test_i_matrix_validates():
    """Every entry is symmetric and zero off parity; on parity it has grade
    pi^1, vanishes at s = 0 and is odd in s."""
    for n in range(1, 7):
        im = i_matrix(n)
        assert type(im) is tuple and all(type(row) is tuple for row in im)
        for a in range(n):
            for b in range(n):
                e = im[a][b]
                assert e == im[b][a]
                if (a - b) % 2:
                    assert e.is_zero
                    continue
                assert not e.is_zero and e.pi_power == 1
                assert ratfun_eval_exact(e, 0).is_zero
                # f(-s) = -f(s): the residues at n and -n agree
                assert all(e.residues[-n] == r for n, r in e.residues.items())


def test_entry_mellin_link():
    """The radial closed form transforms exactly onto the moment entry."""
    for j in range(1, 6):
        for k in range(j, 6):
            assert laurent_mellin(hJK_closed(j, k)) == i_entry(j, k)


# ---------------------------------------------------------------------------
# single-entry radial forms and their quadrature oracle


def test_hjk_closed_frozen():
    assert hJK_closed(1, 1) == LaurentPi(1, {2: F(2), -2: F(2)})
    assert hJK_closed(1, 3) == LaurentPi(1, {2: F(2), -2: F(2)})
    assert hJK_closed(2, 2) == LaurentPi(1, {4: F(2), -4: F(2)})
    assert hJK_closed(1, 2).is_zero
    assert hJK_closed(3, 3) == LaurentPi(
        1, {2: F(2), -2: F(2), 6: F(2), -6: F(2)}
    )
    assert hJK_closed(1, 1).eval(1.0) == pytest.approx(4 * math.pi, rel=1e-15)


def test_hjk_quadrature_matches_closed():
    for j, k in [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)]:
        nodes = 4 * (j + k) + 16
        for r in (1.0, 1.1, 2.0):
            cv = hJK_closed(j, k).eval(r)
            qv = hJK_quadrature(j, k, r, nodes)
            assert abs(cv - qv) <= 1e-10 * (1.0 + abs(cv))


def test_hjk_quadrature_sees_exact_parity_zero():
    for j, k in [(1, 2), (2, 3), (1, 4)]:
        q = hJK_quadrature(j, k, 1.3, 4 * (j + k) + 16)
        assert abs(q) <= 1e-12


def test_hjk_quadrature_preconditions():
    with pytest.raises(ValueError):
        hJK_quadrature(1, 1, 1.0, 4)  # too few nodes for the bandwidth
    with pytest.raises(ValueError):
        hJK_quadrature(1, 1, -1.0, 32)
    with pytest.raises(IndexOutOfRange):
        hJK_quadrature(0, 1, 1.0, 32)


RADII = (1.0, 1.1, 2.0, 5.0)


def _mpmath_trapezoid(j, k, r, nodes):
    """The trapezoid sum over `nodes` points of the circle, at 40 + 2(J + K)
    digits, rounded to a float once."""
    with mpmath.workdps(40 + 2 * (j + k)):
        rr = mpmath.mpf(r)
        total = mpmath.mpc(0)
        for idx in range(nodes):
            z = mpmath.expjpi(mpmath.mpf(2 * idx) / nodes)
            w = rr * z
            a = w - 1 / w
            b = rr / z - z / rr
            f1 = w + 1 / w
            f2 = rr / z + z / rr
            total += a * b * f1 ** (j - 1) * f2 ** (k - 1)
        value = 2 * mpmath.pi * total / nodes
        return float(mpmath.re(value))


def test_hjk_quadrature_is_the_extended_precision_trapezoid_bit_for_bit():
    for j in range(1, 9):
        for k in range(2 - j % 2, 9, 2):
            nodes = 4 * (j + k) + 16
            for r in RADII:
                assert hJK_quadrature(j, k, r, nodes) == _mpmath_trapezoid(j, k, r, nodes)


def test_hjk_quadrature_is_exactly_zero_off_parity():
    for j in range(1, 9):
        for k in range(1 + j % 2, 9, 2):
            for r in RADII:
                assert hJK_quadrature(j, k, r, 4 * (j + k) + 16) == 0.0


def test_hjk_quadrature_pi_is_within_2_to_the_minus_126():
    pi = _PI_128
    with mpmath.workdps(80):
        gap = abs(mpmath.mpf(pi.numerator) / pi.denominator - mpmath.pi)
        assert gap <= mpmath.mpf(2) ** -126


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_hjk_quadrature_rejects_a_non_finite_radius(r):
    with pytest.raises(ValueError):
        hJK_quadrature(1, 1, r, 32)


# ---------------------------------------------------------------------------
# determinants


def test_det_ratfun_equals_product_small_orders():
    for n in range(1, 6):
        assert det_ratfun(i_matrix(n)) == h_product(n)


def test_det_ratfun_zero_for_singular():
    d1 = d_term(1)
    assert det_ratfun([[d1, d1], [d1, d1]]).is_zero


def test_i_residue_maps_build_i_matrix():
    for n in range(1, 7):
        maps = i_residue_maps(n)
        assert tuple(
            tuple(RatFunPi(1, m) for m in row) for row in maps
        ) == i_matrix(n)
    with pytest.raises(IndexOutOfRange):
        i_residue_maps(0)


def test_factorization_checks_pass_to_order_20():
    for n in [*range(1, 21), 64]:
        assert factorization_checks(c_matrix(n), i_residue_maps(n)) == (
            ("factorization", True, "I == C^T D C entry by entry, exact"),
            ("unimodular C", True, "det C = 1, expected 1"),
        )


def test_moment_matrix_is_built_without_coeff_c(monkeypatch):
    """I, its entries and the trapezoid sum come from the integrand alone,
    so the factorization holds coeff_c to an independent derivation."""

    def unused(n, j):
        raise AssertionError("coeff_c called")

    monkeypatch.setattr(spectral, "coeff_c", unused)
    assert len(i_residue_maps(12)) == 12
    assert not i_entry(5, 7).is_zero
    assert hJK_quadrature(5, 7, 1.1, 64) > 0


@pytest.mark.parametrize(
    "entry, change",
    [((1, 1), {1: 2, -1: 2}), ((3, 1), {1: 2}), ((2, 4), {5: 1})],
    ids=["scaled diagonal", "below the diagonal", "extra pole"],
)
def test_factorization_checks_name_the_first_wrong_entry(entry, change):
    maps = i_residue_maps(4)
    j, k = entry[0] - 1, entry[1] - 1
    maps[j][k] = {**maps[j][k], **change}
    checks = factorization_checks(c_matrix(4), maps)
    assert checks[0] == ("factorization", False, f"I != C^T D C at (J, K) = {entry}")
    assert checks[1][1] is True


def test_factorization_checks_see_an_off_parity_entry_of_c():
    """C^T D C is built from every nonzero entry of C, not only from the
    n == J (mod 2) ones that the true C has."""
    rows = [list(r) for r in c_matrix(4)]
    rows[0][1] = 1
    checks = factorization_checks(rows, i_residue_maps(4))
    assert [ok for _, ok, _ in checks] == [False, True]


def test_det_double_sum_on_fractions():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert det_double_sum(m) == F(-2)
    m3 = [[F(2), F(0), F(1)], [F(1), F(1), F(0)], [F(0), F(3), F(1)]]
    assert det_double_sum(m3) == F(2) * (F(1) - F(0)) - 0 + F(3)


def _points_off_the_poles(count: int) -> list[Fraction]:
    return [F(2 * k + 1, 2) for k in range(count)]


def test_det_double_sum_matches_elimination():
    """det_double_sum of the entries' values equals det_ratfun's value at
    2N^2 half-integers.  Times L^N, L = prod (s - n) over the 2N poles, the
    true determinant is a polynomial of degree <= N (2N - 1) and det_ratfun's
    pole sum one of degree < 2N^2, so 2N^2 points prove them equal."""
    for n in range(2, 4):
        im = i_matrix(n)
        det = det_ratfun(im)
        for s0 in _points_off_the_poles(2 * n * n):
            values = [[ratfun_eval_exact(e, s0) for e in row] for row in im]
            assert det_double_sum(values) == ratfun_eval_exact(det, s0)


def test_det_double_sum_size_cap():
    big = [[F(1)] * 7 for _ in range(7)]
    with pytest.raises(DimensionTooLarge):
        det_double_sum(big)


def test_det_ratfun_rejects_a_repeated_pole():
    """d_1^2 has double poles at +-1, no sum of simple poles."""
    d1 = d_term(1)
    with pytest.raises(RepeatedPole):
        det_ratfun([[d1, RatFunPi.zero()], [RatFunPi.zero(), d1]])


def test_det_ratfun_rejects_mixed_grades():
    with pytest.raises(GradeMismatch):
        det_ratfun([[d_term(1), RatFunPi.zero()], [RatFunPi.zero(), RatFunPi(2, {2: 1})]])


def test_det_ratfun_of_scaled_residues():
    """Residues with denominators, at poles no other entry has: the
    determinant 3 f g of [[f, 0], [g, 3 g]] is 1/((s - 1)(s + 3)) times
    pi^2, residues 1/4 at 1 and -1/4 at -3."""
    f = RatFunPi(1, {1: F(1, 2)})
    g = RatFunPi(1, {-3: F(2, 3)})
    m = [[f, RatFunPi.zero()], [g, g * 3]]
    assert det_ratfun(m) == RatFunPi(2, {1: F(1, 4), -3: F(-1, 4)})


def test_h_product_frozen_and_parity():
    # (2s)^2 pi^2 / ((s^2 - 1)(s^2 - 4)) by cover-up: 4 / (2 (1 - 4)) at s = 1
    assert h_product(2) == RatFunPi(2, {1: F(-2, 3), -1: F(2, 3), 2: F(4, 3), -2: F(-4, 3)})
    for n in range(1, 7):
        # f(-s) = (-1)^N f(s)
        f = h_product(n)
        for s0 in _points_off_the_poles(2 * n + 1):
            assert ratfun_eval_exact(f, -s0) == ratfun_eval_exact(f, s0) * (-1) ** n


def test_trusted_builds_are_reduced_and_monic():
    """The lists hn and verify-det print, built from the factors of h_hat
    and h_product with no gcd, are ratfun_to_lists' reduced, monic form of
    the residue sums."""
    for n in range(1, 41):
        assert num_den_lists(n, *power_over_pairs(n, n - 1)) == ratfun_to_lists(h_hat(n))
        assert num_den_lists(n, *power_over_pairs(n, n)) == ratfun_to_lists(h_product(n))


def test_h_hat_frozen():
    assert h_hat(2) == RatFunPi(2, {1: F(-1, 3), -1: F(-1, 3), 2: F(1, 3), -2: F(1, 3)})
    assert h_hat(1) == RatFunPi(1, {1: F(1, 2), -1: F(-1, 2)})
    assert ratfun_to_lists(h_hat(2)) == {
        "pi_power": 2,
        "num": ["0", "2"],
        "den": ["4", "0", "-5", "0", "1"],
    }


# ---------------------------------------------------------------------------
# residues and the closed distribution


def test_rho_frozen():
    assert rho(1, 1) == PiScaled(F(1, 2), 1)
    assert rho(2, 1) == PiScaled(F(-1, 3), 2)
    assert rho(2, 2) == PiScaled(F(1, 3), 2)
    assert rho(3, 2) == PiScaled(F(-4, 15), 3)
    with pytest.raises(IndexOutOfRange):
        rho(2, 0)
    with pytest.raises(IndexOutOfRange):
        rho(2, 3)


def test_rho_matches_partial_fractions():
    """rho(N, n) is the residue of h_hat at s = n; the mirror pole at -n
    carries the (-1)^N factor."""
    for n_order in range(1, 31):
        res = partial_fractions(h_hat(n_order))
        assert set(res) == {n for n in range(-n_order, n_order + 1) if n != 0}
        for n in range(1, n_order + 1):
            assert res[n] == rho(n_order, n)
            assert res[-n] == rho(n_order, n) * ((-1) ** n_order)


def test_mellin_of_closed_form_is_h_hat_to_order_30():
    for n_order in range(1, 31):
        assert laurent_mellin(h_closed(n_order)) == h_hat(n_order)


def test_mellin_residue_miss_agrees_with_partial_fractions():
    """The cover-up residues are h_hat's: a Laurent polynomial built from
    partial_fractions(h_hat(N)) passes, and changing any one residue, or
    adding a pole, is caught at that pole."""
    for n_order in range(1, 9):
        res = {n: r.coeff for n, r in partial_fractions(h_hat(n_order)).items()}
        assert mellin_residue_miss(laurent_from_poles(n_order, res), n_order) is None
        for s in (*res, 0, n_order + 1, -n_order - 1):
            bad = dict(res)
            bad[s] = bad.get(s, 0) + 1
            assert mellin_residue_miss(laurent_from_poles(n_order, bad), n_order) == s


def test_mellin_residue_miss_agrees_with_laurent_mellin():
    """Same verdict as expanding the Mellin image, also on a wrong order or
    a wrong grade of pi."""
    for n_order in range(1, 31):
        h = h_closed(n_order)
        for m, g in ((n_order, h), (n_order + 1, h), (n_order, h * PiScaled(F(1), 1))):
            assert (mellin_residue_miss(g, m) is None) == (laurent_mellin(g) == h_hat(m))
        assert mellin_residue_miss(h, n_order) is None


def test_h_closed_frozen():
    assert h_closed(1) == LaurentPi(1, {2: F(1), -2: F(-1)})
    assert h_closed(2) == LaurentPi(
        2, {2: F(-2, 3), -2: F(-2, 3), 4: F(2, 3), -4: F(2, 3)}
    )


def test_h_closed_vanishes_at_one():
    for n in range(1, 9):
        assert h_closed(n).value_at_one().is_zero


def test_h_eval_frozen():
    xi = 1.5
    assert h_eval(1, xi) == pytest.approx(
        math.pi * (xi ** 2 - xi ** -2), rel=1e-14
    )
    expect2 = (2 / 3) * math.pi ** 2 * (xi ** 4 + xi ** -4 - xi ** 2 - xi ** -2)
    assert h_eval(2, xi) == pytest.approx(expect2, rel=1e-13)
    assert h_eval(3, 0.7) == 0.0
    for n in range(1, 7):
        assert h_eval(n, 1.0) == 0.0


def test_h_values_match_h_eval_and_build_the_closed_form_once(monkeypatch):
    grid = [0.5, 1.0, 1.25, 1.5, 3.0]
    expect = [h_eval(3, xi) for xi in grid]
    calls = []
    build = spectral.h_closed

    def counted(n):
        calls.append(n)
        return build(n)

    monkeypatch.setattr(spectral, "h_closed", counted)
    assert h_values(3, grid) == expect
    assert calls == [3]


def test_h_values_build_the_integer_form_once(monkeypatch):
    """LaurentPi.eval's integer form, the coefficients over one common
    denominator, is built once per h_closed(N), not once per grid point."""
    grid = [1.0, 1.25, 1.5, 3.0]
    expect = [h_eval(4, xi) for xi in grid]
    calls = []
    build = LaurentPi._integer_form.func

    def counted(self):
        calls.append(1)
        return build(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(LaurentPi, "_integer_form")
    monkeypatch.setattr(LaurentPi, "_integer_form", prop)
    assert h_values(4, grid) == expect
    assert len(calls) == 1


def test_h_eval_overflow_is_typed():
    """The true value at xi = 1000 is about 1e505, past the double range."""
    with pytest.raises(EvaluationOverflow, match="N = 100, xi = 1000 overflows"):
        h_eval(100, 1000.0)


def test_h_eval_is_finite_wherever_the_value_is(h_oracle):
    """xi^200 overflows a double at xi = 100, but h_100(100), about 8.28e304,
    does not: it comes out as the exact value rounded once."""
    assert h_eval(100, 100.0) == h_oracle(100, 100.0) == 8.277871939845336e304


# 15 points from below the support edge to xi = 10, and orders up to 200
ORACLE_ORDERS = list(range(1, 21)) + [30, 50, 100, 150, 200]
ORACLE_XIS = [0.5, 0.99, 1.0, 1.0001, 1.01, 1.1, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0]


def test_h_values_are_the_exact_value_rounded_once(h_oracle):
    """Every h_N(xi) on the 375-point grid is the exact value, rounded once
    to the nearest double.  The float sum this replaced missed 283 of them
    and gave 31 negative values."""
    for n in ORACLE_ORDERS:
        assert h_values(n, ORACLE_XIS) == [h_oracle(n, xi) for xi in ORACLE_XIS], n


def test_h_values_below_the_double_range_are_plus_zero(h_oracle):
    """h_200 vanishes to order 200 at xi = 1, so near it the value lies far
    below the smallest subnormal and must round to +0.0, never to a
    negative number."""
    for xi in (1.0 + 2.0 ** -52, 1.0001, 1.01):
        (v,) = h_values(200, [xi])
        assert v == 0.0 and math.copysign(1.0, v) == 1.0, xi
    assert h_oracle(200, 1.1) == 0.0
    # a subnormal value, and the first normal ones, are still rounded once
    for xi in (1.17, 1.18, 1.2):
        assert h_values(200, [xi])[0] == h_oracle(200, xi) > 0.0, xi
    assert h_oracle(200, 1.17) < 2.2e-308


def test_hjk_closed_and_quadrature_agree_bit_for_bit():
    """Both sides are one Laurent polynomial in r, built two ways and rounded
    once by the same evaluator, so verify-entries sees no gap at J, K <= 30."""
    for j in range(1, 31):
        for k in range(1, 31):
            closed = hJK_closed(j, k)
            for r in RADII:
                assert closed.eval(r) == hJK_quadrature(j, k, r, 4 * (j + k) + 16), (j, k, r)


# ---------------------------------------------------------------------------
# volume


def test_volume_exact_frozen():
    assert volume_exact(1) == PiScaled(F(2, 3), 2)
    assert volume_exact(2) == PiScaled(F(3, 10), 3)
    assert volume_exact(3) == PiScaled(F(32, 315), 4)
    with pytest.raises(IndexOutOfRange):
        volume_exact(0)


def test_volume_equals_mellin_value():
    two_pi = PiScaled(F(2), 1)
    for n in range(1, 9):
        at = ratfun_eval_exact(h_hat(n), F(n + 1))
        assert at * two_pi == volume_exact(n)


# ---------------------------------------------------------------------------
# rank-one kernel identity


def test_omega_psi_small_orders_pass():
    for n in range(2, 7):
        rep = omega_psi_check(n)
        assert rep.passed, rep.checks
        assert any(x != 0 for x in rep.psi)


def test_omega_psi_frozen_kernels():
    assert omega_psi_check(2).psi == (F(0), F(1))
    assert omega_psi_check(5).psi == (F(1), F(0), F(-3), F(0), F(1))


def test_rank_one_identity_by_rational_functions():
    """The identities omega_psi_check proves on residue maps, redone with
    RatFunPi sums over the built moment matrix."""
    for n in range(2, 7):
        im = i_matrix(n)
        cm = c_matrix(n)
        psi = omega_psi_check(n).psi
        dot = sum(coeff_c(n, k + 1) * psi[k] for k in range(n))
        for j in range(n):
            lhs = RatFunPi.zero()
            for k in range(n):
                lhs = lhs + im[j][k] * psi[k]
            assert lhs == d_term(n) * (dot * coeff_c(n, j + 1))
            for k in range(n):
                acc = RatFunPi.zero()
                for m in range(n):
                    w = cm[m][j] * cm[m][k]
                    if w:
                        acc = acc + d_term(m + 1) * F(w)
                assert acc == im[j][k]


def test_omega_psi_detects_a_wrong_entry(monkeypatch):
    """A residue map one unit off at I[1][1] must fail both the rank-one
    and the factorization checks."""
    true_maps = spectral.i_residue_maps

    def tampered(n):
        maps = true_maps(n)
        res = dict(maps[0][0])
        res[1] += 1
        maps[0][0] = res
        return maps

    monkeypatch.setattr(spectral, "i_residue_maps", tampered)
    verdict = {name: ok for name, ok, _ in omega_psi_check(3).checks}
    assert verdict == {
        "rank-one action": False,
        "factorization": False,
        "unimodular C": True,
    }


def test_omega_psi_checks_both_triangles_of_the_moment_matrix(monkeypatch):
    """The factorization map is built once per pair J <= K; a wrong entry
    below the diagonal alone, I[3][1], must still fail it, and be named."""
    true_maps = spectral.i_residue_maps

    def tampered(n):
        maps = true_maps(n)
        res = dict(maps[2][0])
        res[1] += 1
        maps[2][0] = res
        return maps

    monkeypatch.setattr(spectral, "i_residue_maps", tampered)
    checks = {name: (ok, detail) for name, ok, detail in omega_psi_check(3).checks}
    assert checks["factorization"] == (False, "I != C^T D C at (J, K) = (3, 1)")


def test_omega_psi_fails_unimodularity_off_the_triangle(monkeypatch):
    """det C is read off the diagonal only while C is upper triangular."""
    true_coeff = spectral.coeff_c
    monkeypatch.setattr(
        spectral, "coeff_c", lambda n, j: 1 if (n, j) == (2, 1) else true_coeff(n, j)
    )
    checks = {name: (ok, detail) for name, ok, detail in omega_psi_check(3).checks}
    assert checks["unimodular C"] == (False, "C is not upper triangular")


def test_omega_psi_rejects_order_one():
    with pytest.raises(IndexOutOfRange):
        omega_psi_check(1)


def test_rank_one_report_passed_property():
    rep = RankOneReport(2, (F(1),), (("a", True, ""), ("b", False, "")))
    assert not rep.passed
