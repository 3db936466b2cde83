"""The paper's closed forms, computed without the recmahler package, and the
checks that hold each operation's output to them.

Every check takes what the operation produced (its stdout text, or the
returned object for a library call) and returns None when the output is
right, or a one-line reason when it is not.  Exact quantities are compared
as Fractions; numeric ones against mpmath values of the same closed forms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import mpmath

_DPS = 40
_PI_SCALED = re.compile(r"^(-?\d+)/(\d+) \* pi\^(-?\d+)$")


# ---------------------------------------------------------------------------
# closed forms


def rho(n_order: int, n: int) -> Fraction:
    """Rational part of the residue at s = n:
    2^{N-1} n^N (-1)^{N-n} / ((N+n)! (N-n)!), times pi^N."""
    num = 2 ** (n_order - 1) * n**n_order * (-1) ** (n_order - n)
    return Fraction(num, math.factorial(n_order + n) * math.factorial(n_order - n))


def h_coeffs(n_order: int) -> dict[int, Fraction]:
    """h_N(xi) = pi^N sum_n 2 rho(n) (xi^{2n} + (-1)^N xi^{-2n})."""
    out = {}
    for n in range(1, n_order + 1):
        c = 2 * rho(n_order, n)
        out[2 * n] = c
        out[-2 * n] = (-1) ** n_order * c
    return out


def h_value(n_order: int, xi: float) -> mpmath.mpf:
    """h_N at a float xi: the Laurent sum in exact rationals, then pi^N."""
    x = Fraction(xi)
    total = sum((c * x**e for e, c in h_coeffs(n_order).items()), Fraction(0))
    with mpmath.workdps(_DPS):
        return mpmath.mpf(total.numerator) / total.denominator * mpmath.pi**n_order


def h_rounding_scale(n_order: int, xi: float) -> float:
    """sum |c_e| pi^N |xi^e - 1|: the size of the terms a float evaluation
    of h_N adds up, which bounds its rounding error."""
    x = Fraction(xi)
    terms = sum(
        (abs(c) * abs(x**e - 1) for e, c in h_coeffs(n_order).items()), Fraction(0)
    )
    return float(terms) * math.pi**n_order


def volume(n_order: int) -> Fraction:
    """Star body volume 2^N pi^{N+1} (N+1)^N / (2N+1)!, rational part."""
    return Fraction(
        2**n_order * (n_order + 1) ** n_order, math.factorial(2 * n_order + 1)
    )


def volume_value(n_order: int) -> mpmath.mpf:
    v = volume(n_order)
    with mpmath.workdps(_DPS):
        return mpmath.mpf(v.numerator) / v.denominator * mpmath.pi ** (n_order + 1)


def coeff_c(n: int, j: int) -> int:
    """Expansion coefficient c_n(J) of the moment basis."""
    if n > j or (j - n) % 2:
        return 0
    m = (j + n) // 2
    return math.comb(j - 1, m - 1) - math.comb(j - 1, m)


def _horner(coeffs: list[Fraction], s: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


# ---------------------------------------------------------------------------
# helpers


def _pi_scaled(text: str) -> tuple[Fraction, int]:
    m = _PI_SCALED.match(text)
    if not m:
        raise ValueError(f"not a 'p/q * pi^k' string: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2))), int(m.group(3))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _fractions(strings) -> list[Fraction]:
    return [Fraction(x) for x in strings]


def _equals_product(lists: dict, n_order: int) -> str | None:
    """num/den equal prod_{n<=N} 2 pi s/(s^2 - n^2), proved by evaluation.

    num * Q - den * P, with P = (2s)^N and Q = prod (s^2 - n^2), is a
    polynomial of degree at most max(deg num + 2N, deg den + N); vanishing
    at more points than that makes it the zero polynomial.
    """
    if lists["pi_power"] != n_order:
        return f"pi grade {lists['pi_power']}, expected {n_order}"
    num, den = _fractions(lists["num"]), _fractions(lists["den"])
    if not any(den):
        return "zero denominator"
    bound = max(len(num) - 1 + 2 * n_order, len(den) - 1 + n_order)
    for j in range(bound + 1):
        s = Fraction(2 * j + 1, 2)
        p = (2 * s) ** n_order
        q = Fraction(1)
        for n in range(1, n_order + 1):
            q *= s * s - n * n
        if _horner(num, s) * q != _horner(den, s) * p:
            return f"differs from the product form at s = {s}"
    return None


# ---------------------------------------------------------------------------
# checks, one per operation kind


def check_hn(text: str, n_order: int, xi: float | None) -> str | None:
    rep = json.loads(text)
    got = rep["exact_results"]["h_coeffs"]
    want = h_coeffs(n_order)
    if set(got) != {str(e) for e in want}:
        return f"exponents {sorted(got)} differ from the closed form"
    for e, c in want.items():
        if _pi_scaled(got[str(e)]) != (c, n_order):
            return f"coefficient of xi^{e} is {got[str(e)]}, expected {c} * pi^{n_order}"
    mellin = rep["exact_results"]["mellin_transform"]
    if mellin["pi_power"] != n_order:
        return f"Mellin image has grade {mellin['pi_power']}"
    num, den = _fractions(mellin["num"]), _fractions(mellin["den"])
    for s in (Fraction(1, 2), Fraction(3, 2), Fraction(2 * n_order + 1, 2)):
        hhat = Fraction(2 ** (n_order - 1)) * s ** (n_order - 1)
        for n in range(1, n_order + 1):
            hhat /= s * s - n * n
        if _horner(num, s) != hhat * _horner(den, s):
            return f"Mellin image differs from H_N/(2s) at s = {s}"
    if xi is not None:
        val = rep["numeric_results"]["h_value"]
        ref = float(h_value(n_order, xi))
        if _rel(val, ref) > 1e-12:
            return f"h_value {val} against closed form {ref}"
    return None


def check_volume(text: str, n_order: int) -> str | None:
    rep = json.loads(text)
    want = volume(n_order)
    if _pi_scaled(rep["exact_results"]["volume"]) != (want, n_order + 1):
        return f"volume {rep['exact_results']['volume']}, expected {want} * pi^{n_order + 1}"
    if _rel(rep["numeric_results"]["volume"], float(volume_value(n_order))) > 1e-12:
        return "numeric volume differs from the closed form"
    return None


def check_verify_det(text: str, n_order: int) -> str | None:
    rep = json.loads(text)["exact_results"]
    for key in ("determinant", "product_form"):
        why = _equals_product(rep[key], n_order)
        if why:
            return f"{key}: {why}"
    return None


def check_rank_one(text: str, n_order: int) -> str | None:
    psi = _fractions(json.loads(text)["exact_results"]["psi"])
    if len(psi) != n_order or not any(psi):
        return "psi is empty or zero"
    for n in range(1, n_order):
        if sum(coeff_c(n, j + 1) * psi[j] for j in range(n_order)) != 0:
            return f"psi is not orthogonal to omega_{n}"
    return None


def check_partial_fractions(residues, n_order: int) -> str | None:
    want = {}
    for n in range(1, n_order + 1):
        want[n] = rho(n_order, n)
        want[-n] = (-1) ** n_order * rho(n_order, n)
    if set(residues) != set(want):
        return f"poles {sorted(residues)}, expected +-1..+-{n_order}"
    for n, r in want.items():
        got = residues[n]
        if (got.coeff, got.pi_power) != (r, n_order):
            return f"residue at {n} is {got}, expected {r} * pi^{n_order}"
    return None


def check_measure(text: str, expected: float) -> str | None:
    nr = json.loads(text)["numeric_results"]
    for key in ("mahler_from_roots", "mahler_quadrature"):
        if _rel(nr[key], expected) > 1e-8:
            return f"{key} {nr[key]!r}, expected {expected!r} from the roots"
    return None


def check_table(text: str, n_order: int) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["xi", "h_N"] or len(rows) < 2:
        return "missing header or rows"
    if rows[1] != ["1", "0"]:
        return f"first row {rows[1]}, expected h(1) = 0 exactly"
    prev = -math.inf
    for xi_s, h_s in rows[1:]:
        xi, got = float(xi_s), float(h_s)
        ref = float(h_value(n_order, xi))
        tol = 1e-9 * abs(ref) + 64 * 2.0**-52 * h_rounding_scale(n_order, xi)
        if abs(got - ref) > tol:
            return f"h_{n_order}({xi_s}) = {h_s}, closed form {ref!r}"
        if got < prev:
            return f"table decreases at xi = {xi_s}"
        prev = got
    return None


def jacobian_factor(alpha: list[complex]) -> float:
    """|V(beta)|^2 prod |(alpha^2 - 1)/alpha^2|^2 with beta = alpha + 1/alpha."""
    beta = [a + 1 / a for a in alpha]
    acc = 1.0
    for n in range(len(beta)):
        for m in range(n):
            acc *= abs(beta[n] - beta[m]) ** 2
    for a in alpha:
        acc *= abs((a * a - 1) / (a * a)) ** 2
    return acc


def check_jacobian(text: str, points: int) -> str | None:
    rows = json.loads(text)["numeric_results"]["points"]
    if len(rows) != points:
        return f"{len(rows)} points, expected {points}"
    for row in rows:
        alpha = [complex(re_, im) for re_, im in row["alpha"]]
        want = jacobian_factor(alpha)
        if _rel(row["formula"], want) > 1e-9:
            return f"formula {row['formula']!r}, recomputed {want!r}"
    return None


def check_mc(text: str, mode: str, n_order: int, xi: float | None, samples: int) -> str | None:
    rep = json.loads(text)["numeric_results"]
    est = rep["estimate"]
    ref = h_value(n_order, xi) if mode == "hn" else volume_value(n_order)
    if est["samples"] != samples:
        return f"{est['samples']} samples, expected {samples}"
    if _rel(rep["target"], float(ref)) > 1e-12:
        return f"target {rep['target']!r}, closed form {float(ref)!r}"
    p = est["mean"] / est["region_volume"]
    sigma = est["region_volume"] * math.sqrt(max(p * (1 - p), 0.0) / samples)
    if sigma == 0.0:
        return "no hits, so the estimate has no error bar"
    z = float((est["mean"] - ref) / sigma)
    if abs(z) > 3.0:
        return f"estimate {est['mean']!r} is {z:.2f} sigma from the closed form"
    return None


def roots_measure(lead: complex, roots: list[complex]) -> float:
    """|lead| prod max(1, |alpha|): the measure of lead * prod (x - alpha)."""
    acc = abs(lead)
    for a in roots:
        acc *= max(1.0, abs(a))
    return acc


def poly_from_roots(lead: complex, roots: list[complex]) -> list[complex]:
    """Ascending coefficients of lead * prod (x - alpha)."""
    coeffs = [complex(lead)]
    for a in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= a * c
        coeffs = nxt
    return coeffs
