"""Coefficient-space forms of reciprocal Laurent polynomials.

A reciprocal Laurent polynomial of order N is

    p_v(x) = v_0 + sum_{n=1}^{N} v_n (x^n + x^{-n}),

and its monic variant replaces the top pair with a fixed leading term:

    p~_b(x) = (x^N + x^{-N}) + b_0 + sum_{n=1}^{N-1} b_n (x^n + x^{-n}).

Multiplying by x^N turns either into an honest polynomial of degree 2N whose
ascending coefficient vector is the palindrome (v_N, ..., v_1, v_0, v_1, ...,
v_N); the Mahler measure of that polynomial is by definition the measure of
the Laurent form, since |x| = 1 on the integration circle.

Everything in this module works in complex doubles. Exact arithmetic lives
in recmahler.exact; the two layers only meet in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroArgument, ZeroRoot


def _as_complex_vec(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty one-dimensional vector")
    return arr


@dataclass(frozen=True)
class RecipLaurent:
    """Coefficients (v_0, ..., v_N) of a reciprocal Laurent polynomial."""

    v: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vec(self.v, "v")
        if arr.size < 2:
            raise ValueError("order N >= 1 requires at least two coefficients")
        object.__setattr__(self, "v", arr)

    @property
    def order(self) -> int:
        return self.v.size - 1


@dataclass(frozen=True)
class MonicRecip:
    """Coefficients (b_0, ..., b_{N-1}) of the monic form of order N."""

    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", _as_complex_vec(self.b, "b"))

    @property
    def order(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class RootVec:
    """Multiplicative root parameters (alpha_1, ..., alpha_N), all nonzero."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vec(self.alpha, "alpha")
        if np.any(arr == 0):
            raise ZeroRoot("root parameters must be nonzero")
        object.__setattr__(self, "alpha", arr)

    @property
    def order(self) -> int:
        return self.alpha.size


def eval_recip(p: RecipLaurent | MonicRecip, x: complex) -> complex:
    """Value of the Laurent form at x != 0."""
    x = complex(x)
    if x == 0:
        raise ZeroArgument("reciprocal Laurent polynomial is singular at 0")
    xi = 1.0 / x
    if isinstance(p, RecipLaurent):
        acc = complex(p.v[0])
        for n in range(1, p.v.size):
            acc += p.v[n] * (x ** n + xi ** n)
        return acc
    if isinstance(p, MonicRecip):
        n = p.order
        acc = x ** n + xi ** n + complex(p.b[0])
        for k in range(1, n):
            acc += p.b[k] * (x ** k + xi ** k)
        return acc
    raise TypeError(f"expected RecipLaurent or MonicRecip, got {type(p).__name__}")


def monic_to_poly(p: MonicRecip) -> np.ndarray:
    """Ascending coefficients of x^N * p~_b(x): a degree-2N palindrome with
    leading and constant coefficient exactly 1."""
    return lambda_embed(np.append(p.b, 1.0))


def lambda_embed(p: RecipLaurent | np.ndarray) -> np.ndarray:
    """Ascending coefficients of x^N * p_v(x), for one v or a (..., N+1)
    array of them along the last axis.

    The result is the palindrome (v_N, ..., v_1, v_0, v_1, ..., v_N); its
    Mahler measure equals the measure of the Laurent form exactly, which is
    the property the measure module relies on.
    """
    v = p.v if isinstance(p, RecipLaurent) else np.asarray(p, dtype=complex)
    return np.concatenate([v[..., :0:-1], v], axis=-1)


def from_roots(alpha: RootVec | np.ndarray) -> MonicRecip:
    """Monic form with multiplicative roots alpha: expand

        x^N p~_b(x) = prod_n (x + alpha_n)(x + 1/alpha_n)
                    = prod_n (x^2 + beta_n x + 1),   beta_n = alpha_n + 1/alpha_n.

    Each quadratic factor is a palindrome, so the product is one; the b
    vector is read off the upper half of the expanded coefficients.
    """
    if not isinstance(alpha, RootVec):
        alpha = RootVec(np.asarray(alpha, dtype=complex))
    n = alpha.order
    coeffs = np.array([1.0 + 0.0j])
    for a in alpha.alpha:
        beta = a + 1.0 / a
        coeffs = np.convolve(coeffs, np.array([1.0, beta, 1.0]))
    return MonicRecip(coeffs[n : 2 * n].copy())


def e_map(beta) -> np.ndarray:
    """Coefficients (b_0, ..., b_{N-1}) of prod_n (x + beta_n) = x^N + sum b_n x^n.

    The coefficient of x^j in the product is the elementary symmetric
    polynomial e_{N-j}(beta), so b_{N-n} = e_n(beta).  This is a plain
    degree-N expansion, not the reciprocal pair basis: converting between
    the two is what the binomial expansion identity in symfun is for.
    """
    beta = _as_complex_vec(beta, "beta")
    coeffs = np.array([1.0 + 0.0j])
    for b in beta:
        coeffs = np.convolve(coeffs, np.array([b, 1.0]))
    # ascending: coeffs[j] is the x^j coefficient, which is e_{N-j}(beta)
    return coeffs[: beta.size].copy()
