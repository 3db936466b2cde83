"""Exact layer: graded scalars, sums of simple poles, Laurent forms,
partial fractions, and the Mellin term table.

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
    NonIntegerPole,
    OddExponent,
    PoleEvaluation,
    ZeroArgument,
)
from recmahler.exact import (
    _PI_128,
    LaurentPi,
    PiScaled,
    RatFunPi,
    laurent_from_map,
    laurent_from_poles,
    laurent_mellin,
    laurent_to_map,
    parse_pi_scaled,
    partial_fractions,
    poly_divmod,
    poly_mul,
    poly_sub,
    ratfun_eval_exact,
    ratfun_to_lists,
)

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def lists_value(data, s0):
    """The value at s0 of ratfun_to_lists' num/den lists, pi kept as a grade."""
    num = sum(F(c) * s0 ** i for i, c in enumerate(data["num"]))
    den = sum(F(c) * s0 ** i for i, c in enumerate(data["den"]))
    return PiScaled(num / den, data["pi_power"])


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
# rational functions: sums of simple integer poles


def test_ratfunq_reduces_and_normalizes():
    """A pole whose residue cancels leaves the map; residues become
    Fractions and the poles are sorted."""
    f = RatFunPi(0, {2: 3, -1: F(1, 2), 5: 0})
    assert f.residues == {-1: F(1, 2), 2: F(3)}
    assert list(f.residues) == [-1, 2]
    assert all(type(r) is Fraction for r in f.residues.values())
    assert f + RatFunPi(0, {2: -3}) == RatFunPi(0, {-1: F(1, 2)})
    assert ratfun_eval_exact(f, 3) == PiScaled(F(1, 8) + 3)


def test_ratfunq_zero_canonical():
    for z in (RatFunPi(3, {}), RatFunPi(3, {4: 0, -1: F(0)})):
        assert z == RatFunPi.zero()
        assert z.is_zero and z.pi_power == 0


def test_ratfunq_eval_pole():
    f = RatFunPi(0, {1: 1})
    with pytest.raises(PoleEvaluation):
        ratfun_eval_exact(f, 1)
    with pytest.raises(PoleEvaluation):
        ratfun_eval_exact(f, F(1))
    assert ratfun_eval_exact(f, 2) == PiScaled(F(1))
    # a cancelled pole is no pole
    assert ratfun_eval_exact(RatFunPi(0, {1: 0, 2: 1}), 1) == PiScaled(F(-1))


def test_ratfunq_division_by_zero():
    with pytest.raises(DivisionByZero):
        RatFunPi(1, {1: 1}) / 0
    with pytest.raises(DivisionByZero):
        RatFunPi(1, {1: 1}) / F(0)


def test_ratfunpi_zero_keeps_grade_zero():
    """Zero is canonical at grade 0 however it is reached: negation and
    scalar division keep it there."""
    z = RatFunPi(5, {2: F(0)})
    assert z == RatFunPi.zero() and z.pi_power == 0
    d1 = RatFunPi(1, {1: 1, -1: 1})
    for w in [-z, z / 3, z / F(-2, 7), -(d1 - d1), (d1 - d1) / 5, d1 * 0]:
        assert w == RatFunPi.zero() and w.pi_power == 0


def test_ratfun_pi_divides_by_a_scalar():
    """Division by an int or a Fraction scales every residue and keeps the
    grade."""
    f = RatFunPi(2, {1: 2, -1: 2})
    assert f / 3 == RatFunPi(2, {1: F(2, 3), -1: F(2, 3)})
    assert f / F(-1, 2) == f * -2 == -2 * f
    with pytest.raises(DivisionByZero):
        f / 0


pole_maps = st.dictionaries(keys=st.integers(-8, 8), values=rationals, max_size=4)
# one grade for all, so that every sum below is defined
ratfuns = pole_maps.map(lambda m: RatFunPi(1, m))


@settings(max_examples=60, deadline=None)
@given(ratfuns, ratfuns, ratfuns, rationals, nonzero_rationals)
def test_ratfunq_field_identities(a, b, c, p, q):
    """Pole sums of one grade form a vector space over Q."""
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - b == a + (-b)
    assert (a + b) * p == a * p + b * p
    assert (a / q) * q == a
    assert a - a == RatFunPi.zero()


@settings(max_examples=60, deadline=None)
@given(ratfuns, st.integers(9, 20))
def test_ratfunq_make_is_idempotent_and_gcd_free(f, pole):
    """Rebuilding from the fields gives the same value, and a new pole with
    zero residue, the analogue of a common factor of num and den, is no
    pole."""
    assert RatFunPi(f.pi_power, f.residues) == f
    assert RatFunPi(f.pi_power, {**f.residues, pole: 0}) == f
    assert all(r != 0 for r in f.residues.values())


def hhat2() -> RatFunPi:
    # 2 pi^2 s / ((s^2-1)(s^2-4)), the N = 2 transform, by hand
    return RatFunPi(2, {1: F(-1, 3), -1: F(-1, 3), 2: F(1, 3), -2: F(1, 3)})


def test_ratfunpi_grade_rules():
    d1 = RatFunPi(1, {1: 1, -1: 1})
    assert (d1 * F(3, 2)).pi_power == 1
    assert (d1 / 7).pi_power == 1
    with pytest.raises(GradeMismatch):
        d1 + RatFunPi(2, {1: 1})
    with pytest.raises(GradeMismatch):
        d1 - RatFunPi(2, {1: 1})
    assert d1 + RatFunPi.zero() == d1
    assert RatFunPi.zero() - d1 == -d1
    assert (d1 - d1) == RatFunPi.zero()
    assert (d1 - d1).pi_power == 0


def test_ratfun_eval_frozen():
    """The numeric value is the exact value's to_float."""
    d1 = RatFunPi(1, {1: 1, -1: 1})
    assert ratfun_eval_exact(d1, 2).to_float() == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert ratfun_eval_exact(hhat2(), 3).to_float() == pytest.approx(
        3 * math.pi ** 2 / 20, rel=1e-15
    )
    with pytest.raises(PoleEvaluation):
        ratfun_eval_exact(d1, -1)


def test_ratfun_eval_exact_frozen():
    assert ratfun_eval_exact(hhat2(), F(3)) == PiScaled(F(3, 20), 2)
    assert ratfun_eval_exact(hhat2(), F(1, 2)) == PiScaled(
        F(1) / (F(1, 4) - 1) / (F(1, 4) - 4), 2
    )
    assert ratfun_eval_exact(RatFunPi.zero(), 5) == PiScaled(F(0))


# ---------------------------------------------------------------------------
# partial fractions


def test_partial_fractions_frozen_map():
    """Residues of 2 s/((s^2-1)(s^2-4)), times pi^2, poles ascending."""
    res = partial_fractions(hhat2())
    third = F(1, 3)
    assert res == {
        1: PiScaled(-third, 2),
        -1: PiScaled(-third, 2),
        2: PiScaled(third, 2),
        -2: PiScaled(third, 2),
    }
    assert list(res) == [-2, -1, 1, 2]


def test_partial_fractions_of_zero():
    assert partial_fractions(RatFunPi.zero()) == {}


def test_partial_fractions_rejects_non_integer_pole():
    """A pole that is not an int is refused where the pole sum is built,
    an integral Fraction too."""
    for pole in (F(1, 2), F(3), 0.5, "1"):
        with pytest.raises(NonIntegerPole):
            partial_fractions(RatFunPi(0, {pole: 1}))


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
    """Summing the simple fractions r/(s - n) and decomposing returns the
    same residues."""
    f = RatFunPi.zero()
    for n, r in residues.items():
        f = f + RatFunPi(3, {n: r})
    out = partial_fractions(f)
    assert out == {n: PiScaled(r, 3) for n, r in residues.items()}


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-3, 3),
    st.dictionaries(keys=st.integers(-8, 8), values=rationals, max_size=6),
)
@example(2, {0: F(3, 2), 1: F(0), -4: F(-1, 6)})
@example(0, {0: F(0)})
def test_ratfun_to_lists_equals_sum_of_terms(grade, residues):
    """The num/den lists take the value of the sum of the simple fractions
    at half-integers, off the poles.  Times L = prod (s - n) over the at
    most six poles, both are polynomials of degree below 6, so six points
    make this a proof."""
    f = RatFunPi(grade, residues)
    data = ratfun_to_lists(f)
    assert data["den"][-1] == "1" and len(data["num"]) < len(data["den"])
    for k in range(6):
        s0 = F(2 * k - 5, 2)
        assert lists_value(data, s0) == ratfun_eval_exact(f, s0)


def test_partial_fractions_huge_integer_poles():
    """Poles at +-10^15, and at 10^15 alone."""
    big = 10 ** 15
    res = partial_fractions(RatFunPi(0, {big: F(1, 2 * big), -big: F(-1, 2 * big)}))
    assert res == {-big: PiScaled(F(-1, 2 * big)), big: PiScaled(F(1, 2 * big))}
    assert partial_fractions(RatFunPi(1, {big: 3})) == {big: PiScaled(F(3), 1)}


def test_partial_fractions_of_a_large_prime_pole_pair():
    """1/(s^2 - p^2) with p = 10^12 + 39, a prime: the residues come back
    from the map, where factoring the constant term p^2 of the denominator
    ran past 10 s."""
    p = 10 ** 12 + 39
    f = RatFunPi(0, {p: F(1, 2 * p), -p: F(-1, 2 * p)})
    assert partial_fractions(f) == {-p: PiScaled(F(-1, 2 * p)), p: PiScaled(F(1, 2 * p))}
    assert ratfun_to_lists(f) == {"pi_power": 0, "num": ["1"], "den": [str(-p * p), "0", "1"]}


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
    assert laurent_mellin(LaurentPi(0, {0: F(2)})) == RatFunPi(0, {0: 1})
    # xi^4 alone: 3 -> (3/2)/(s - 2)
    assert laurent_mellin(LaurentPi(0, {4: F(3)})) == RatFunPi(0, {2: F(3, 2)})
    # xi^2 - xi^-2 at grade 1 -> pi/(s^2 - 1)
    assert laurent_mellin(LaurentPi(1, {2: F(1), -2: F(-1)})) == RatFunPi(
        1, {1: F(1, 2), -1: F(-1, 2)}
    )
    # xi^2 + xi^-2 -> 2s/(s^2 - 1) / 2
    assert laurent_mellin(LaurentPi(0, {2: F(1), -2: F(1)})) == RatFunPi(
        0, {1: F(1, 2), -1: F(1, 2)}
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
# integer polynomials (the test names keep the polyq prefix of the rational
# polynomial type these lists replaced)


def test_polyq_trims_and_degree():
    """Ascending lists, trailing zeros trimmed, and zero is []."""
    assert poly_sub([1, 2, 5, 7], [0, 0, 5, 7]) == [1, 2]
    assert poly_sub([3], [3]) == []
    assert poly_mul([1, 2], []) == []
    assert poly_mul([-1, 1], [1, 1]) == [-1, 0, 1]


def test_polyq_divmod_exact():
    q, r = poly_divmod([-1, 0, 0, 1], [-1, 1])  # (s^3 - 1) / (s - 1)
    assert (q, r) == ([1, 1, 1], [])
    assert poly_divmod([-1, 1], [-1, 0, 0, 1]) == ([], [-1, 1])


def test_polyq_divmod_property_seeded():
    """a = q b + r with deg r < deg b, for divisors with a unit leading
    coefficient, where every step divides exactly over Z."""
    import random

    rng = random.Random(7)
    for _ in range(50):
        a = [rng.randint(-6, 6) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(-6, 6) for _ in range(rng.randint(0, 4))] + [rng.choice((1, -1))]
        q, r = poly_divmod(a, b)
        assert poly_sub(poly_sub(a, r), poly_mul(q, b)) == []
        assert len(r) < len(b)


# ---------------------------------------------------------------------------
# serialization


def test_ratfun_lists_round_trip():
    """The lists are the reduced num/den form, strings throughout, and
    evaluate back to the function."""
    assert ratfun_to_lists(hhat2()) == {
        "pi_power": 2,
        "num": ["0", "2"],
        "den": ["4", "0", "-5", "0", "1"],
    }
    assert ratfun_to_lists(RatFunPi.zero()) == {"pi_power": 0, "num": [], "den": ["1"]}
    for f in [hhat2(), RatFunPi(-1, {-5: F(7, 3)}), RatFunPi(1, {0: F(1, 2), 3: F(-2, 5)})]:
        data = ratfun_to_lists(f)
        assert all(isinstance(c, str) for c in data["num"] + data["den"])
        for s0 in (F(1, 2), F(-7, 3), F(11)):
            assert lists_value(data, s0) == ratfun_eval_exact(f, s0)


def test_laurent_map_round_trip():
    for g in [LaurentPi(1, {2: F(1), -2: F(-1)}), LaurentPi.zero(), LaurentPi(3, {0: F(-7, 2)})]:
        assert laurent_from_map(laurent_to_map(g)) == g


@settings(max_examples=40, deadline=None)
@given(even_laurents)
def test_laurent_map_round_trip_property(g):
    assert laurent_from_map(laurent_to_map(g)) == g
