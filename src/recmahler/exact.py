"""Exact arithmetic tower, one type per concept: rationals graded by powers
of pi (PiScaled), univariate polynomials over Q (PolyQ), reduced rational
functions over Q with one pi grade (RatFunPi), even-exponent Laurent
polynomials with one pi grade (LaurentPi), partial fractions over distinct
integer poles, and the Laurent-to-Mellin term table.

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
    ImproperFraction,
    NonIntegerPole,
    OddExponent,
    PoleEvaluation,
    RepeatedPole,
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
# polynomials over Q


@dataclass(frozen=True, slots=True)
class PolyQ:
    """Univariate polynomial over Q, ascending coefficients, trailing zeros
    trimmed so the zero polynomial is the empty tuple."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        cs = tuple(_as_fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "PolyQ") -> "PolyQ":
        if not isinstance(other, PolyQ):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(tuple(out))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, PolyQ):
            if self.is_zero or other.is_zero:
                return PolyQ()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return PolyQ(tuple(out))
        if isinstance(other, (int, Fraction)):
            return PolyQ(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; exact for Fraction x, numeric otherwise."""
        if self.is_zero:
            return Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        """Exact long division: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lead = other.leading
        if len(rem) - 1 < db:
            return PolyQ(), self
        quo = [Fraction(0)] * (len(rem) - db)
        for k in range(len(rem) - 1 - db, -1, -1):
            c = rem[db + k] / lead
            quo[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return PolyQ(tuple(quo)), PolyQ(tuple(rem[:db]))

    def monic(self) -> "PolyQ":
        if self.is_zero:
            return self
        inv = 1 / self.leading
        return PolyQ(tuple(c * inv for c in self.coeffs))

    def subs_neg(self) -> "PolyQ":
        """p(-s): flip the sign of the odd-degree coefficients."""
        return PolyQ(
            tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))
        )


def _int_scaled(p: PolyQ) -> list[int]:
    """Clear denominators: integer coefficient list, same roots."""
    lcm = 1
    for c in p.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c * lcm) for c in p.coeffs]


def _primitive(ints: list[int]) -> list[int]:
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return ints
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of primitive integer polynomials (b nonzero)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while True:
        while r and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if dr < db:
            return r
        lead = r[-1]
        r = [lb * c for c in r]
        for j in range(db + 1):
            r[dr - db + j] -= lead * b[j]


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over Q via a primitive pseudo-remainder sequence over Z."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    ia = _primitive(_int_scaled(a))
    ib = _primitive(_int_scaled(b))
    if len(ia) < len(ib):
        ia, ib = ib, ia
    while ib:
        ia, ib = ib, _primitive(_pseudo_rem(ia, ib))
    return PolyQ(tuple(Fraction(c) for c in ia)).monic()


# ---------------------------------------------------------------------------
# rational functions


@dataclass(frozen=True, slots=True)
class RatFunPi:
    """pi^pi_power * num / den, a rational function over Q with one pi grade.

    The grade is a single integer for the whole function, so sums of
    mismatched grades are rejected; this is all the downstream algebra
    (entry sums, determinants, Mellin images) ever needs.  num / den is
    reduced and den is monic; zero is num = 0, den = 1 at grade 0.
    Construct through make(); the bare constructor trusts its inputs.
    """

    pi_power: int
    num: PolyQ
    den: PolyQ

    @staticmethod
    def make(pi_power: int, num: PolyQ, den: PolyQ) -> "RatFunPi":
        """The reduced form: gcd cancelled, den monic, zero at grade 0."""
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero:
            return RatFunPi.zero()
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        inv = 1 / den.leading
        return RatFunPi(pi_power, num * inv, den * inv)

    @staticmethod
    def from_coeffs(pi_power: int, num: Iterable, den: Iterable) -> "RatFunPi":
        return RatFunPi.make(pi_power, PolyQ(tuple(num)), PolyQ(tuple(den)))

    @staticmethod
    def zero() -> "RatFunPi":
        return RatFunPi(0, PolyQ(), PolyQ((1,)))

    @staticmethod
    def one() -> "RatFunPi":
        return RatFunPi(0, PolyQ((1,)), PolyQ((1,)))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

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
        return RatFunPi.make(
            self.pi_power, self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RatFunPi") -> "RatFunPi":
        if not isinstance(other, RatFunPi):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "RatFunPi":
        return RatFunPi(self.pi_power, -self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, RatFunPi):
            return RatFunPi.make(
                self.pi_power + other.pi_power, self.num * other.num, self.den * other.den
            )
        if isinstance(other, (int, Fraction)):
            # a nonzero scalar keeps num / den reduced and den monic
            if other == 0:
                return RatFunPi.zero()
            return RatFunPi(self.pi_power, self.num * other, self.den)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RatFunPi):
            if other.is_zero:
                raise DivisionByZero("division by the zero rational function")
            return RatFunPi.make(
                self.pi_power - other.pi_power, self.num * other.den, self.den * other.num
            )
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by exact zero")
            return self * (1 / Fraction(other))
        return NotImplemented

    def is_odd(self) -> bool:
        """True when f(-s) == -f(s) exactly: num(-s) den(s) == -num(s) den(-s)."""
        return self.num.subs_neg() * self.den == -(self.num * self.den.subs_neg())


def ratfun_eval(f: RatFunPi, s0) -> float:
    """Numeric value of f at rational s0, the exact value rounded once."""
    return ratfun_eval_exact(f, s0).to_float()


def ratfun_eval_exact(f: RatFunPi, s0) -> PiScaled:
    """Exact value of f at rational s0, keeping the pi grade symbolic.

    Raises PoleEvaluation on zeros of the reduced denominator.
    """
    s0 = _as_fraction(s0)
    d = f.den(s0)
    if d == 0:
        raise PoleEvaluation(f"denominator vanishes at s = {s0}")
    return PiScaled(f.num(s0) / d, f.pi_power)


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
# partial fractions over distinct integer poles


def _divisors_upto(n: int, bound: int) -> list[int]:
    """Positive divisors d <= bound of n > 0, ascending.

    Trial division only runs over primes that some divisor <= bound can
    hold: once the trial prime passes the bound, whatever is left of n
    shares no factor with such a divisor.
    """
    primes: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= bound:
        while n % d == 0:
            primes[d] = primes.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if 1 < n <= bound:
        primes[n] = primes.get(n, 0) + 1
    divs = [1]
    for p, k in primes.items():
        divs = [x * p ** i for x in divs for i in range(k + 1) if x * p ** i <= bound]
    return sorted(divs)


def _integer_roots(ints: list[int]) -> tuple[dict[int, int], int]:
    """All integer roots (with multiplicity) of a monic integer polynomial
    that splits over Z.

    Returns (roots, remaining_degree) after deflating every integer root.
    For a split polynomial the roots n_i satisfy sum n_i^2 = e1^2 - 2 e2,
    read off the two top coefficients, so only divisors of the constant
    term up to isqrt of that are tried.  A polynomial that does not split
    may keep some integer roots undetected; its remaining degree is then
    positive either way.
    """

    roots: dict[int, int] = {}
    work = list(ints)
    while len(work) > 1 and work[0] == 0:
        roots[0] = roots.get(0, 0) + 1
        work = work[1:]
    if len(work) > 1:
        e1 = -work[-2]
        e2 = work[-3] if len(work) > 2 else 0
        sum_sq = e1 * e1 - 2 * e2
        bound = math.isqrt(sum_sq) if sum_sq > 0 else 0
        for d in _divisors_upto(abs(work[0]), bound):
            for cand in (-d, d):
                while len(work) > 1 and _eval_int(work, cand) == 0:
                    roots[cand] = roots.get(cand, 0) + 1
                    work = _deflate(work, cand)
    return roots, len(work) - 1


def _eval_int(cs: list[int], x: int) -> int:
    """Value of an integer polynomial (ascending coefficients) at x."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _deflate(cs: list[int], x: int) -> list[int]:
    """Synthetic division of an integer polynomial by (s - x), where x is
    a root, so the division is exact."""
    out = [0] * (len(cs) - 1)
    carry = cs[-1]
    for i in range(len(cs) - 2, -1, -1):
        out[i] = carry
        carry = cs[i] + carry * x
    assert carry == 0
    return out


def int_poly_from_roots(roots: Iterable[int]) -> list[int]:
    """Ascending integer coefficients of prod (x - r) over the roots."""
    out = [1]
    for r in roots:
        out = [0] + out
        for i in range(len(out) - 1):
            out[i] -= r * out[i + 1]
    return out


def _ratfun_from_ints(pi_power: int, num: list[int], common: int, den: list[int]) -> RatFunPi:
    """pi^pi_power * (num / common) / den by the bare constructor: the caller
    vouches that the two are coprime and den is monic."""
    return RatFunPi(
        pi_power,
        PolyQ(tuple(Fraction(c, common) for c in num)),
        PolyQ(tuple(Fraction(c) for c in den)),
    )


def ratfun_from_poles(pi_power: int, residues: Mapping[int, Fraction]) -> RatFunPi:
    """pi^pi_power * sum_n r_n / (s - n), built directly in reduced form.

    The denominator is prod (s - n) over the poles with a nonzero residue,
    in integers; the numerator is sum_n r_n prod_{m != n} (s - m) over a
    common denominator of the residues.  Distinct simple poles with nonzero
    residues leave the two coprime (the numerator at n is r_n prod (n - m)),
    and the denominator is monic, so this is the form RatFunPi.make would
    reach through gcds.  Zero residues are dropped.
    """
    poles = {n: _as_fraction(r) for n, r in residues.items() if r != 0}
    if not poles:
        return RatFunPi.zero()
    den = int_poly_from_roots(poles)
    common = math.lcm(*(r.denominator for r in poles.values()))
    num = [0] * (len(den) - 1)
    for n, r in poles.items():
        scale = r.numerator * (common // r.denominator)
        for i, c in enumerate(_deflate(den, n)):
            num[i] += scale * c
    return _ratfun_from_ints(pi_power, num, common, den)


def partial_fractions(f: RatFunPi) -> dict[int, PiScaled]:
    """Residue map of a proper rational function whose denominator splits
    into distinct monic linear factors with integer roots.

    Residues come from the cover-up rule: res at n is num(n) divided by the
    product of (n - m) over the other poles m.  Everything stays exact.
    """
    num, den = f.num, f.den
    if num.is_zero:
        return {}
    if num.degree >= den.degree:
        raise ImproperFraction(
            f"numerator degree {num.degree} >= denominator degree {den.degree}"
        )
    if any(c.denominator != 1 for c in den.coeffs):
        # a monic product of (s - n) with integer n has integer coefficients
        raise NonIntegerPole("denominator has non-integer coefficients")
    ints = [int(c) for c in den.coeffs]
    roots, leftover = _integer_roots(ints)
    if leftover > 0:
        raise NonIntegerPole("denominator has a non-integer root")
    if any(m > 1 for m in roots.values()):
        bad = [r for r, m in roots.items() if m > 1]
        raise RepeatedPole(f"repeated pole(s) at {bad}")
    out: dict[int, PiScaled] = {}
    poles = sorted(roots)
    for n in poles:
        denom = Fraction(1)
        for m in poles:
            if m != n:
                denom *= n - m
        out[n] = PiScaled(num(Fraction(n)) / denom, f.pi_power)
    return out


def laurent_mellin(g: LaurentPi) -> RatFunPi:
    """Mellin image of an even-exponent Laurent polynomial.

    Term rule: coefficient c at exponent e contributes (c/2) / (s - e/2);
    LaurentPi admits even e only.  Grade is preserved.  The zero polynomial
    maps to zero.
    """
    if g.is_zero:
        return RatFunPi.zero()
    return ratfun_from_poles(g.pi_power, {e // 2: c / 2 for e, c in g.coeffs.items()})


def laurent_from_poles(pi_power: int, residues: Mapping[int, Fraction]) -> LaurentPi:
    """Inverse of laurent_mellin: residue r at s = n becomes the coefficient
    2r at xi^{2n}.  Zero residues drop out; no residue gives zero."""
    return LaurentPi(pi_power, {2 * n: 2 * r for n, r in residues.items()})


# ---------------------------------------------------------------------------
# serialization helpers shared with the CLI


def ratfun_to_lists(f: RatFunPi) -> dict:
    """JSON-friendly form: pi grade plus ascending num/den coefficient lists."""
    return {
        "pi_power": f.pi_power,
        "num": [str(c) for c in f.num.coeffs],
        "den": [str(c) for c in f.den.coeffs],
    }


def ratfun_from_lists(data: Mapping) -> RatFunPi:
    return RatFunPi.from_coeffs(
        int(data["pi_power"]),
        (Fraction(c) for c in data["num"]),
        (Fraction(c) for c in data["den"]),
    )


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
