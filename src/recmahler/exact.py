"""Exact arithmetic, one type per concept: rationals graded by powers of pi
(PiScaled), sums of simple integer poles with one pi grade (RatFunPi),
even-exponent Laurent polynomials with one pi grade (LaurentPi), the
Laurent-to-Mellin term table between the last two, and the integer
polynomials that pole sums clear to.

pi is never evaluated here; it rides along as an integer grade on otherwise
rational data.  Sums therefore only make sense between values of the same
grade (or with an exact zero), and mismatches raise GradeMismatch rather
than silently coercing.  Numeric values enter only through the explicit
evaluation helpers, which all round the exact value, with pi as a rational
within 2^-126 of it, once to a double (_round_pi).

The Mellin convention used throughout maps a Laurent monomial with even
exponent e to the simple fraction (1/2) / (s - e/2):

    xi^{2n}  ->  (1/2) / (s - n)        xi^{-2n}  ->  (1/2) / (s + n)

so a pole at s = +n always comes from the xi^{+2n} term.  Everything
downstream (closed distribution forms, residue tables, volume evaluations)
leans on that orientation.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    DivisionByZero,
    GradeMismatch,
    NonIntegerPole,
    OddExponent,
    PoleEvaluation,
    ZeroArgument,
)

Rational = Fraction

# pi * 2^126 rounded to an integer: a rational pi within 2^-126 of pi
_PI_128 = Fraction(0xC90FDAA22168C234C4C6628B80DC1CD1, 1 << 126)


# pi_num^k, built once for the 2N coefficients of one grade: at N = 400 it
# was 73% of the time to round them
_pi_num_power = functools.lru_cache(maxsize=16)(_PI_128.numerator.__pow__)


def _round_pi(num: int, den: int, pi_power: int, shift: int = 0) -> float:
    """num / (den 2^shift) * pi^pi_power, with pi as _PI_128 = pi_num / 2^126,
    as one ratio of integers that int / int true division rounds once: 0.0
    below the double range, OverflowError above it."""
    num *= _pi_num_power(max(pi_power, 0))
    den *= _pi_num_power(max(-pi_power, 0))
    shift += 126 * pi_power
    return num / (den << shift) if shift >= 0 else (num << -shift) / den


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# scalars


@dataclass(frozen=True, slots=True)
class PiScaled:
    """Exact scalar coeff * pi^pi_power with rational coeff.

    Zero is canonical: coeff == 0 forces pi_power == 0, so equality of
    dataclass fields is equality of values.
    """

    coeff: Fraction
    pi_power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", _as_fraction(self.coeff))
        if self.coeff == 0:
            object.__setattr__(self, "pi_power", 0)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __add__(self, other: "PiScaled") -> "PiScaled":
        if not isinstance(other, PiScaled):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_power != other.pi_power:
            raise GradeMismatch(
                f"cannot add pi^{self.pi_power} and pi^{other.pi_power} terms"
            )
        return PiScaled(self.coeff + other.coeff, self.pi_power)

    def __sub__(self, other: "PiScaled") -> "PiScaled":
        if not isinstance(other, PiScaled):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PiScaled":
        return PiScaled(-self.coeff, self.pi_power)

    def __mul__(self, other):
        if isinstance(other, PiScaled):
            return PiScaled(self.coeff * other.coeff, self.pi_power + other.pi_power)
        if isinstance(other, (int, Fraction)):
            return PiScaled(self.coeff * other, self.pi_power)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScaled):
            if other.is_zero:
                raise DivisionByZero("division by exact zero")
            return PiScaled(self.coeff / other.coeff, self.pi_power - other.pi_power)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by exact zero")
            return PiScaled(self.coeff / other, self.pi_power)
        return NotImplemented

    def to_float(self) -> float:
        """Numeric value, correctly rounded (see _round_pi)."""
        return _round_pi(self.coeff.numerator, self.coeff.denominator, self.pi_power)

    def __str__(self) -> str:
        c = self.coeff
        return f"{c.numerator}/{c.denominator} * pi^{self.pi_power}"


_PI_SCALED_RE = re.compile(
    r"^\s*(-?\d+)\s*/\s*(\d+)\s*\*\s*pi\^(-?\d+)\s*$"
)


def parse_pi_scaled(text: str) -> PiScaled:
    """Inverse of str(PiScaled); accepts exactly the 'p/q * pi^k' form."""
    m = _PI_SCALED_RE.match(text)
    if not m:
        raise ValueError(f"not a 'p/q * pi^k' literal: {text!r}")
    return PiScaled(Fraction(int(m.group(1)), int(m.group(2))), int(m.group(3)))


# ---------------------------------------------------------------------------
# rational functions: sums of simple integer poles


@dataclass(frozen=True)
class RatFunPi:
    """pi^pi_power * sum_n r_n / (s - n): simple poles at integers n with
    rational residues r_n, one pi grade for the whole sum.

    Every rational function of the paper has this form (hhat_N, the
    determinant product, d_n, the moment entries, every Mellin image), so
    the residue map is the value itself: two are equal exactly when their
    maps are.  Zero residues are dropped and the poles sorted; the zero
    function is the empty map at grade 0.  A pole that is not an int raises
    NonIntegerPole.
    """

    pi_power: int
    residues: Mapping[int, Fraction]

    def __post_init__(self):
        clean: dict[int, Fraction] = {}
        for n, r in self.residues.items():
            if not isinstance(n, int):
                raise NonIntegerPole(f"pole {n!r} is not an integer")
            r = _as_fraction(r)
            if r != 0:
                clean[n] = r
        object.__setattr__(self, "residues", dict(sorted(clean.items())))
        if not clean:
            object.__setattr__(self, "pi_power", 0)

    @staticmethod
    def zero() -> "RatFunPi":
        return RatFunPi(0, {})

    @property
    def is_zero(self) -> bool:
        return not self.residues

    def __add__(self, other: "RatFunPi") -> "RatFunPi":
        if not isinstance(other, RatFunPi):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_power != other.pi_power:
            raise GradeMismatch(
                f"cannot add pi^{self.pi_power} and pi^{other.pi_power} functions"
            )
        out = dict(self.residues)
        for n, r in other.residues.items():
            out[n] = out.get(n, 0) + r
        return RatFunPi(self.pi_power, out)

    def __sub__(self, other: "RatFunPi") -> "RatFunPi":
        if not isinstance(other, RatFunPi):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "RatFunPi":
        return RatFunPi(self.pi_power, {n: -r for n, r in self.residues.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunPi(self.pi_power, {n: r * other for n, r in self.residues.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by exact zero")
            return self * (1 / Fraction(other))
        return NotImplemented


def ratfun_eval_exact(f: RatFunPi, s0) -> PiScaled:
    """Exact value sum_n r_n / (s0 - n) of f at rational s0, keeping the pi
    grade symbolic.  With s0 = p/q each term is r_n q / (p - n q), summed
    in integers over the least common denominator, reduced once.

    Raises PoleEvaluation at a pole of f.
    """
    s0 = _as_fraction(s0)
    if s0 in f.residues:
        raise PoleEvaluation(f"f has a pole at s = {s0}")
    p, q = s0.numerator, s0.denominator
    dens = [r.denominator * (p - n * q) for n, r in f.residues.items()]
    common = 1
    for d in dens:
        if common % d:  # most d divide the running lcm: a division, no gcd
            common = math.lcm(common, d)
    num = sum(r.numerator * q * (common // d) for r, d in zip(f.residues.values(), dens))
    return PiScaled(Fraction(num, common), f.pi_power)


# ---------------------------------------------------------------------------
# Laurent polynomials with even exponents


@dataclass(frozen=True)
class LaurentPi:
    """Laurent polynomial in xi with even exponents whose coefficients all
    carry one shared pi grade.

    coeffs maps exponent -> nonzero Fraction; the pi_power applies to every
    term.  The zero polynomial is the empty map at grade 0.
    """

    pi_power: int
    coeffs: Mapping[int, Fraction]

    def __post_init__(self):
        clean: dict[int, Fraction] = {}
        for e, c in self.coeffs.items():
            e = int(e)
            if e % 2:
                raise OddExponent(f"exponent {e} is odd")
            c = _as_fraction(c)
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))
        if not clean:
            object.__setattr__(self, "pi_power", 0)

    @staticmethod
    def zero() -> "LaurentPi":
        return LaurentPi(0, {})

    @property
    def terms(self) -> dict[int, PiScaled]:
        return {e: PiScaled(c, self.pi_power) for e, c in self.coeffs.items()}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPi") -> "LaurentPi":
        if not isinstance(other, LaurentPi):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_power != other.pi_power:
            raise GradeMismatch(
                f"cannot add pi^{self.pi_power} and pi^{other.pi_power} polynomials"
            )
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPi(self.pi_power, out)

    def __sub__(self, other: "LaurentPi") -> "LaurentPi":
        return self + (-other)

    def __neg__(self) -> "LaurentPi":
        return LaurentPi(self.pi_power, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, PiScaled):
            if other.is_zero:
                return LaurentPi.zero()
            return LaurentPi(
                self.pi_power + other.pi_power,
                {e: c * other.coeff for e, c in self.coeffs.items()},
            )
        if isinstance(other, (int, Fraction)):
            return LaurentPi(
                self.pi_power, {e: c * other for e, c in self.coeffs.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    @functools.cached_property
    def _integer_form(self) -> tuple[int, int, tuple[int, ...], int]:
        """(low, top, ints, common), built once: the polynomial is the sum of
        ints[i] xi^(top - 2i) / common, zeros filling the exponent gaps."""
        low, top = min(self.coeffs, default=0), max(self.coeffs, default=0)
        common = math.lcm(*(c.denominator for c in self.coeffs.values()))
        coeffs = (self.coeffs.get(e, 0) for e in range(top, low - 1, -2))
        ints = tuple(c.numerator * (common // c.denominator) for c in coeffs)
        return low, top, ints, common

    def value_at_one(self) -> PiScaled:
        """Exact value at xi = 1: the plain sum of the coefficients."""
        _, _, ints, common = self._integer_form
        return PiScaled(Fraction(sum(ints), common), self.pi_power)

    def eval(self, x: float) -> float:
        """Value at a real x != 0, correctly rounded.  x = p / 2^s is exact, so
        the value is a ratio of integers (Horner in x^2, powers of 2 as
        shifts) times pi^grade, which _round_pi rounds once."""
        if x == 0:
            raise ZeroArgument("Laurent evaluation at 0")
        low, top, ints, common = self._integer_form
        p, q = float(x).as_integer_ratio()
        s, p2, acc = q.bit_length() - 1, p * p, 0  # q = 2^s
        for k, c in enumerate(ints):
            acc = acc * p2 + (c << 2 * s * k)
        # acc / 2^(s (top - low)) sums x^(e - low); x^low and pi^grade remain
        num, den = acc * p ** max(low, 0), common * p ** max(-low, 0)
        return _round_pi(num, den, self.pi_power, s * top)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = [
            f"({c.numerator}/{c.denominator})*xi^{e}" for e, c in self.coeffs.items()
        ]
        return f"pi^{self.pi_power} * [" + " + ".join(parts) + "]"


# ---------------------------------------------------------------------------
# residues and Mellin images


def partial_fractions(f: RatFunPi) -> dict[int, PiScaled]:
    """Residue map of f, pole -> residue at f's grade, poles ascending."""
    return {n: PiScaled(r, f.pi_power) for n, r in f.residues.items()}


def laurent_mellin(g: LaurentPi) -> RatFunPi:
    """Mellin image of an even-exponent Laurent polynomial.

    Term rule: coefficient c at exponent e contributes (c/2) / (s - e/2);
    LaurentPi admits even e only.  Grade is preserved.  The zero polynomial
    maps to zero.
    """
    return RatFunPi(g.pi_power, {e // 2: c / 2 for e, c in g.coeffs.items()})


def laurent_from_poles(pi_power: int, residues: Mapping[int, Fraction]) -> LaurentPi:
    """Inverse of laurent_mellin: residue r at s = n becomes the coefficient
    2r at xi^{2n}.  Zero residues drop out; no residue gives zero."""
    return LaurentPi(pi_power, {2 * n: 2 * r for n, r in residues.items()})


# ---------------------------------------------------------------------------
# integer polynomials: ascending coefficient lists, zero is []


def int_poly_from_roots(roots: Iterable[int]) -> list[int]:
    """Ascending integer coefficients of prod (x - r) over the roots."""
    out = [1]
    for r in roots:
        out = [0] + out
        for i in range(len(out) - 1):
            out[i] -= r * out[i + 1]
    return out


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with a = q b + r and deg r < deg b over Z, for a b whose
    leading coefficient divides every step: a monic b, or Bareiss's exact
    divisions."""
    rem, top = list(a), len(b) - 1
    quo = [0] * (len(a) - top)
    for k in range(len(quo) - 1, -1, -1):
        c, miss = divmod(rem[k + top], b[-1])
        assert not miss
        quo[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    return _trim(quo), _trim(rem[:top])


def cleared_poly(f: RatFunPi, ell: list[int], common: int) -> list[int]:
    """common * L * f as ascending integer coefficients, for L = prod (s - n)
    over a superset of f's poles and common a multiple of its residues'
    denominators: sum_n common r_n L / (s - n)."""
    out = [0] * (len(ell) - 1)
    for n, r in f.residues.items():
        scale = r.numerator * (common // r.denominator)
        quo, rem = poly_divmod(ell, [-n, 1])
        assert not rem
        for i, c in enumerate(quo):
            out[i] += scale * c
    return _trim(out)


# ---------------------------------------------------------------------------
# serialization helpers shared with the CLI


def num_den_lists(pi_power: int, num: Iterable, den: Iterable) -> dict:
    """JSON-friendly num/den form: the pi grade and ascending numerator and
    denominator coefficient lists, as strings."""
    return {"pi_power": pi_power, "num": list(map(str, num)), "den": list(map(str, den))}


def ratfun_to_lists(f: RatFunPi) -> dict:
    """num_den_lists of f's reduced form.

    den is prod (s - n) over the poles, in integers, and num is
    sum_n r_n prod_{m != n} (s - m) over a common denominator of the
    residues.  They are coprime, as num(n) = r_n prod (n - m) is nonzero,
    and den is monic; zero is num [], den [1].
    """
    den = int_poly_from_roots(f.residues)
    common = math.lcm(*(r.denominator for r in f.residues.values()))
    num = [Fraction(c, common) for c in cleared_poly(f, den, common)]
    return num_den_lists(f.pi_power, num, den)


def laurent_to_map(g: LaurentPi) -> dict:
    return {
        "pi_power": g.pi_power,
        "coeffs": {str(e): str(c) for e, c in g.coeffs.items()},
    }


def laurent_from_map(data: Mapping) -> LaurentPi:
    return LaurentPi(
        int(data["pi_power"]),
        {int(e): Fraction(c) for e, c in data["coeffs"].items()},
    )
