"""Exact layer: graded scalars, rational functions, Laurent forms, partial
fractions, and the Mellin term table.

Frozen values in here were computed by hand from the defining formulas
before the implementation existed; they are oracles, not snapshots.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recmahler.errors import (
    DivisionByZero,
    GradeMismatch,
    ImproperFraction,
    NonIntegerPole,
    OddExponent,
    PoleEvaluation,
    RepeatedPole,
    ZeroArgument,
)
from recmahler.exact import (
    _PI_128,
    LaurentPi,
    PiScaled,
    PolyQ,
    RatFunPi,
    laurent_from_map,
    laurent_from_poles,
    laurent_mellin,
    laurent_to_map,
    parse_pi_scaled,
    partial_fractions,
    poly_gcd,
    ratfun_eval,
    ratfun_eval_exact,
    ratfun_from_lists,
    ratfun_from_poles,
    ratfun_to_lists,
)

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def ratq(num, den):
    return RatFunPi.from_coeffs(0, num, den)


# ---------------------------------------------------------------------------
# PiScaled scalars


def test_pi_scaled_zero_is_canonical():
    assert PiScaled(F(0), 5) == PiScaled(F(0), 0)
    assert PiScaled(F(0), 5).pi_power == 0


def test_pi_scaled_arithmetic():
    a = PiScaled(F(3, 2), 2)
    b = PiScaled(F(1, 2), 2)
    assert a + b == PiScaled(F(2), 2)
    assert a - b == PiScaled(F(1), 2)
    assert a * PiScaled(F(2), -1) == PiScaled(F(3), 1)
    assert a / PiScaled(F(3), 1) == PiScaled(F(1, 2), 1)
    assert a * F(2, 3) == PiScaled(F(1), 2)


def test_pi_scaled_grade_mismatch():
    with pytest.raises(GradeMismatch):
        PiScaled(F(1), 1) + PiScaled(F(1), 2)
    # exact zero is the only value welcome at every grade
    assert PiScaled(F(0)) + PiScaled(F(1), 7) == PiScaled(F(1), 7)
    assert PiScaled(F(1), 7) - PiScaled(F(1), 7) == PiScaled(F(0))


def test_pi_scaled_division_by_zero():
    with pytest.raises(DivisionByZero):
        PiScaled(F(1), 1) / PiScaled(F(0))
    with pytest.raises(DivisionByZero):
        PiScaled(F(1), 1) / 0


def test_pi_scaled_to_float():
    v = PiScaled(F(2, 3), 2)
    assert v.to_float() == pytest.approx(2 / 3 * math.pi ** 2, rel=1e-15)


def test_pi_scaled_str_parse_round_trip():
    for v in [PiScaled(F(-7, 3), 2), PiScaled(F(1)), PiScaled(F(4), -3)]:
        assert parse_pi_scaled(str(v)) == v
    assert str(PiScaled(F(2, 3), 2)) == "2/3 * pi^2"
    with pytest.raises(ValueError):
        parse_pi_scaled("2.5 * pi^2")


@given(rationals, st.integers(-4, 4), rationals, st.integers(-4, 4))
def test_pi_scaled_product_grades_add(c1, g1, c2, g2):
    p = PiScaled(c1, g1) * PiScaled(c2, g2)
    assert p.coeff == c1 * c2
    if c1 * c2 != 0:
        assert p.pi_power == g1 + g2


# ---------------------------------------------------------------------------
# polynomials over Q


def test_polyq_trims_and_degree():
    p = PolyQ((F(1), F(2), F(0), F(0)))
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1
    assert PolyQ((F(0),)).is_zero
    assert PolyQ(()).is_zero


def test_polyq_divmod_exact():
    p = PolyQ((F(-1), F(0), F(0), F(1)))  # s^3 - 1
    d = PolyQ((F(-1), F(1)))  # s - 1
    q, r = p.divmod(d)
    assert q == PolyQ((F(1), F(1), F(1)))
    assert r.is_zero
    q2, r2 = d.divmod(p)
    assert q2.is_zero and r2 == d


def test_polyq_divmod_property_seeded():
    import random

    rng = random.Random(7)
    for _ in range(50):
        a = PolyQ(tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))))
        b = PolyQ(tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))))
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_polyq_subs_neg_and_eval():
    p = PolyQ((F(1), F(2), F(3), F(4)))
    assert p.subs_neg() == PolyQ((F(1), F(-2), F(3), F(-4)))
    assert p(F(2)) == 1 + 4 + 12 + 32


def test_poly_gcd_common_factor():
    common = PolyQ((F(-1), F(0), F(1)))  # s^2 - 1
    a = common * PolyQ((F(2), F(1)))
    b = common * PolyQ((F(3), F(1)))
    assert poly_gcd(a, b) == common
    assert poly_gcd(a, PolyQ()) == a.monic()


# ---------------------------------------------------------------------------
# rational functions over Q


def test_ratfunq_reduces_and_normalizes():
    f = ratq((-1, 0, 1), (-2, 2))  # (s^2-1)/(2s-2)
    assert f.den.leading == 1
    assert f == ratq((F(1, 2), F(1, 2)), (1,))  # (s+1)/2
    assert ratfun_eval_exact(f, 3) == PiScaled(F(2))
    assert poly_gcd(f.num, f.den).degree == 0


def test_ratfunq_zero_canonical():
    z = RatFunPi.from_coeffs(3, (0,), (3, 1))
    assert z == RatFunPi.zero()
    assert z.is_zero and z.pi_power == 0


def test_ratfunq_eval_pole():
    f = ratq((1,), (-1, 1))
    with pytest.raises(PoleEvaluation):
        ratfun_eval_exact(f, 1)
    assert ratfun_eval_exact(f, 2) == PiScaled(F(1))


def test_ratfunq_division_by_zero():
    with pytest.raises(DivisionByZero):
        ratq((1,), (1,)) / RatFunPi.zero()
    with pytest.raises(DivisionByZero):
        RatFunPi.make(0, PolyQ((F(1),)), PolyQ())


def test_ratfunpi_zero_keeps_grade_zero():
    """Zero is canonical at grade 0 however it is reached: negation and
    scalar division keep it there."""
    z = RatFunPi.make(5, PolyQ(), PolyQ((F(2), F(1))))
    assert z == RatFunPi.zero() and z.pi_power == 0
    d1 = RatFunPi.from_coeffs(1, (0, 2), (-1, 0, 1))
    for w in [-z, z / 3, z / F(-2, 7), -(d1 - d1), (d1 - d1) / 5, d1 * 0]:
        assert w == RatFunPi.zero() and w.pi_power == 0


def test_ratfun_pi_divides_by_a_scalar():
    """Division by an int or a Fraction scales the numerator and keeps the
    grade and the reduced, monic form."""
    f = RatFunPi.from_coeffs(2, (0, 4), (-4, 0, 2))
    assert f / 3 == RatFunPi.from_coeffs(2, (0, F(2, 3)), (-2, 0, 1))
    assert f / F(-1, 2) == f * -2
    assert (f / F(2, 5)).den.leading == 1
    with pytest.raises(DivisionByZero):
        f / 0


small_polys = st.lists(rationals, min_size=0, max_size=3).map(
    lambda cs: PolyQ(tuple(cs))
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)
# one grade for all, so that every sum below is defined
ratfuns = st.builds(
    lambda n, d: RatFunPi.make(1, n, d), small_polys, nonzero_polys
)


@settings(max_examples=60, deadline=None)
@given(ratfuns, ratfuns, ratfuns)
def test_ratfunq_field_identities(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if not b.is_zero:
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(ratfuns, nonzero_polys)
def test_ratfunq_make_is_idempotent_and_gcd_free(f, g):
    again = RatFunPi.make(f.pi_power, f.num, f.den)
    assert again == f
    inflated = RatFunPi.make(f.pi_power, f.num * g, f.den * g)
    assert inflated == f
    if not f.is_zero:
        assert poly_gcd(f.num, f.den).degree == 0
    assert f.den.leading == 1


# ---------------------------------------------------------------------------
# graded rational functions


def hhat2() -> RatFunPi:
    # 2 pi^2 s / ((s^2-1)(s^2-4)), the N = 2 transform, built by hand
    return RatFunPi.from_coeffs(2, (0, 2), (4, 0, -5, 0, 1))


def test_ratfunpi_grade_rules():
    d1 = RatFunPi.from_coeffs(1, (0, 2), (-1, 0, 1))
    d2 = RatFunPi.from_coeffs(1, (0, 2), (-4, 0, 1))
    assert (d1 * d2).pi_power == 2
    assert (d1 / d2).pi_power == 0
    with pytest.raises(GradeMismatch):
        d1 + RatFunPi.from_coeffs(2, (1,), (1,))
    assert d1 + RatFunPi.zero() == d1
    assert (d1 - d1) == RatFunPi.zero()
    assert (d1 - d1).pi_power == 0


def test_ratfunpi_is_odd():
    assert RatFunPi.from_coeffs(1, (0, 2), (-1, 0, 1)).is_odd()
    assert not RatFunPi.from_coeffs(0, (1,), (-1, 1)).is_odd()


def test_ratfun_eval_frozen():
    d1 = RatFunPi.from_coeffs(1, (0, 2), (-1, 0, 1))
    assert ratfun_eval(d1, 2) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert ratfun_eval(hhat2(), 3) == pytest.approx(3 * math.pi ** 2 / 20, rel=1e-15)
    with pytest.raises(PoleEvaluation):
        ratfun_eval(d1, 1)


def test_ratfun_eval_exact_frozen():
    assert ratfun_eval_exact(hhat2(), F(3)) == PiScaled(F(3, 20), 2)
    assert ratfun_eval_exact(hhat2(), F(1, 2)) == PiScaled(
        F(1) / (F(1, 4) - 1) / (F(1, 4) - 4), 2
    )


# ---------------------------------------------------------------------------
# partial fractions


def test_partial_fractions_frozen_map():
    """Cover-up residues of 2 s/((s^2-1)(s^2-4)), times pi^2."""
    res = partial_fractions(hhat2())
    third = F(1, 3)
    assert res == {
        1: PiScaled(-third, 2),
        -1: PiScaled(-third, 2),
        2: PiScaled(third, 2),
        -2: PiScaled(third, 2),
    }


def test_partial_fractions_of_zero():
    assert partial_fractions(RatFunPi.zero()) == {}


def test_partial_fractions_rejects_improper():
    with pytest.raises(ImproperFraction):
        partial_fractions(RatFunPi.from_coeffs(0, (0, 0, 1), (-1, 0, 1)))


def test_partial_fractions_rejects_repeated_pole():
    with pytest.raises(RepeatedPole):
        partial_fractions(RatFunPi.from_coeffs(0, (1,), (1, -2, 1)))


def test_partial_fractions_rejects_non_integer_pole():
    with pytest.raises(NonIntegerPole):
        partial_fractions(RatFunPi.from_coeffs(0, (1,), (-2, 0, 1)))
    with pytest.raises(NonIntegerPole):
        partial_fractions(RatFunPi.from_coeffs(0, (1,), (F(1, 2), 1)))


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        keys=st.integers(-8, 8),
        values=nonzero_rationals,
        min_size=1,
        max_size=4,
    )
)
def test_partial_fractions_reconstruction(residues):
    """Building sum r/(s - n) and decomposing returns the same residues."""
    f = RatFunPi.zero()
    for n, r in residues.items():
        f = f + RatFunPi.from_coeffs(3, (r,), (-n, 1))
    out = partial_fractions(f)
    assert out == {n: PiScaled(r, 3) for n, r in residues.items()}


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-3, 3),
    st.dictionaries(keys=st.integers(-8, 8), values=rationals, max_size=6),
)
@example(2, {0: F(3, 2), 1: F(0), -4: F(-1, 6)})
@example(0, {0: F(0)})
def test_ratfun_from_poles_equals_sum_of_terms(grade, residues):
    """The direct build equals the gcd-reduced sum of its simple fractions."""
    total = RatFunPi.zero()
    for n, r in residues.items():
        total = total + RatFunPi.from_coeffs(grade, (r,), (-n, 1))
    assert ratfun_from_poles(grade, residues) == total


def test_partial_fractions_huge_integer_poles():
    """Poles at +-10^15, and at 10^15 alone, where the root bound read off
    the top coefficients is exactly the root."""
    big = 10 ** 15
    res = partial_fractions(RatFunPi.from_coeffs(0, (1,), (-big * big, 0, 1)))
    assert res == {-big: PiScaled(F(-1, 2 * big)), big: PiScaled(F(1, 2 * big))}
    assert partial_fractions(RatFunPi.from_coeffs(1, (3,), (-big, 1))) == {
        big: PiScaled(F(3), 1)
    }


def test_partial_fractions_match_near_pole_limit():
    """(s - n) f(s) at s = n + 1e-6 approaches the residue at n."""
    f = hhat2()
    eps = F(1, 10 ** 6)
    for n, res in partial_fractions(f).items():
        near = ratfun_eval_exact(f, n + eps).coeff * eps
        assert float(near) == pytest.approx(float(res.coeff), rel=1e-4)


# ---------------------------------------------------------------------------
# Laurent polynomials and the Mellin table


def test_laurent_rejects_odd_exponents():
    with pytest.raises(OddExponent):
        LaurentPi(0, {3: F(1)})


def test_laurent_drops_zero_terms_and_canonicalizes():
    g = LaurentPi(2, {2: F(0), 4: F(1)})
    assert g.coeffs == {4: F(1)}
    assert LaurentPi(2, {2: F(0)}) == LaurentPi.zero()


def test_laurent_value_at_one_and_eval_anchor():
    g = LaurentPi(1, {2: F(1), -2: F(-1)})
    assert g.value_at_one() == PiScaled(F(0))
    assert g.eval(1.0) == 0.0
    assert g.eval(2.0) == pytest.approx(math.pi * (4 - 0.25), rel=1e-15)
    with pytest.raises(ZeroArgument):
        g.eval(0.0)


def test_laurent_eval_is_the_exact_value_rounded_once():
    """eval rounds the exact value, with pi as the 128-bit _PI_128, once:
    at grade 0, at a negative grade, at a negative x (the exponents are
    even), on the zero polynomial, and in the subnormal range."""
    g = LaurentPi(0, {2: F(1, 3), -4: F(-2, 7)})
    assert g.eval(1.5) == float(F(1, 3) * F(3, 2) ** 2 - F(2, 7) * F(2, 3) ** 4)
    assert g.eval(-1.5) == g.eval(1.5)
    assert g.eval(0.1) == float(F(1, 3) * F(0.1) ** 2 - F(2, 7) * F(0.1) ** -4)
    inv = LaurentPi(-2, {2: F(5)})
    assert inv.eval(3.0) == float(45 / _PI_128 ** 2)
    assert inv.eval(3.0) == pytest.approx(45 / math.pi ** 2, rel=1e-15)
    assert LaurentPi(3, {0: F(1)}).eval(7.0) == float(_PI_128 ** 3)
    assert LaurentPi.zero().eval(2.0) == 0.0
    assert LaurentPi.zero().eval(-2.0) == 0.0
    # 2^-1074 is the smallest subnormal; 2^-1076 rounds to +0.0
    assert LaurentPi(0, {-1074: F(1)}).eval(2.0) == 5e-324
    tiny = LaurentPi(0, {-1076: F(1)}).eval(2.0)
    assert tiny == 0.0 and math.copysign(1.0, tiny) == 1.0
    with pytest.raises(OverflowError):
        LaurentPi(0, {1024: F(1)}).eval(2.0)
    assert LaurentPi(0, {1024: F(1, 2)}).eval(2.0) == 2.0 ** 1023
    for h in (g, inv, LaurentPi.zero()):
        with pytest.raises(ZeroArgument):
            h.eval(0.0)


def test_laurent_addition_grade_mismatch():
    with pytest.raises(GradeMismatch):
        LaurentPi(1, {2: F(1)}) + LaurentPi(2, {2: F(1)})
    assert LaurentPi(1, {2: F(1)}) + LaurentPi.zero() == LaurentPi(1, {2: F(1)})


def test_mellin_term_rule_frozen():
    # constant: 2 -> 1/s
    assert laurent_mellin(LaurentPi(0, {0: F(2)})) == RatFunPi.from_coeffs(
        0, (1,), (0, 1)
    )
    # xi^4 alone: 3 -> (3/2)/(s - 2)
    assert laurent_mellin(LaurentPi(0, {4: F(3)})) == RatFunPi.from_coeffs(
        0, (F(3, 2),), (-2, 1)
    )
    # xi^2 - xi^-2 at grade 1 -> pi/(s^2 - 1)
    assert laurent_mellin(LaurentPi(1, {2: F(1), -2: F(-1)})) == RatFunPi.from_coeffs(
        1, (1,), (-1, 0, 1)
    )
    # xi^2 + xi^-2 -> 2s/(s^2 - 1) hidden in one addition
    assert laurent_mellin(LaurentPi(0, {2: F(1), -2: F(1)})) == RatFunPi.from_coeffs(
        0, (0, 1), (-1, 0, 1)
    )
    assert laurent_mellin(LaurentPi.zero()) == RatFunPi.zero()


even_laurents = st.dictionaries(
    keys=st.integers(-4, 4).map(lambda n: 2 * n),
    values=rationals,
    max_size=4,
).map(lambda d: LaurentPi(1, d))


@settings(max_examples=60, deadline=None)
@given(even_laurents)
def test_laurent_from_poles_inverts_mellin(g):
    residues = {n: r.coeff for n, r in partial_fractions(laurent_mellin(g)).items()}
    assert laurent_from_poles(g.pi_power, residues) == g


@settings(max_examples=60, deadline=None)
@given(even_laurents, even_laurents, rationals)
def test_mellin_is_linear(g1, g2, q):
    assert laurent_mellin(g1 + g2) == laurent_mellin(g1) + laurent_mellin(g2)
    assert laurent_mellin(g1 * q) == laurent_mellin(g1) * q


# ---------------------------------------------------------------------------
# serialization


def test_ratfun_lists_round_trip():
    for f in [hhat2(), RatFunPi.zero(), RatFunPi.from_coeffs(-1, (F(1, 3), 2), (5, 1))]:
        data = ratfun_to_lists(f)
        assert ratfun_from_lists(data) == f
        assert all(isinstance(c, str) for c in data["num"] + data["den"])


def test_laurent_map_round_trip():
    for g in [LaurentPi(1, {2: F(1), -2: F(-1)}), LaurentPi.zero(), LaurentPi(3, {0: F(-7, 2)})]:
        assert laurent_from_map(laurent_to_map(g)) == g


@settings(max_examples=40, deadline=None)
@given(even_laurents)
def test_laurent_map_round_trip_property(g):
    assert laurent_from_map(laurent_to_map(g)) == g
