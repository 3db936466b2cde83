"""Elementary symmetric functions and the Jacobian of the root-to-coefficient
map for reciprocal polynomials.

The coefficient expansion used here: with beta_n = alpha_n + 1/alpha_n,
the coefficient of x^{2N-n} + x^n in prod (x + alpha)(x + 1/alpha) is

    eps_n = sum_{M >= 0} C(N - n + 2M, M) * e_{n-2M}(beta),

where e_k is the k-th elementary symmetric polynomial and terms with a
negative subscript vanish.  A natural-looking alternative with the binomial
C(N - n - 2M, M) fails on direct expansion already at N = 2, n = 2, where
the constant contribution is e_2(beta) + 2 = e_2(beta) + C(2, 1); the
identity test suite pins the version implemented here against brute-force
expansion with exact rational roots for every N up to 8.

Both elem_sym and epsilon_via_e are written generically: they only use
ring operations, so they run unchanged over complex floats and over
Fraction (which is how the exact identity tests drive them).

Jacobian of the full root-to-coefficient map alpha -> (eps_N, ..., eps_1)
in complex coordinates:

    det = V(beta) * prod_n (alpha_n^2 - 1) / alpha_n^2,

with V the Vandermonde determinant of beta.  Viewed as a smooth map of 2N
real variables (interleaved re/im), the real Jacobian determinant is the
squared modulus of the complex one, which is what the finite-difference
check below computes.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import IndexOutOfRange, StepTooLarge, StepTooSmall, ZeroRoot
from .polynomials import from_roots


def _elem_all(values: Sequence):
    """Coefficient build of prod (x + v): returns [e_0, e_1, ..., e_m]."""
    e = [1] + [0] * len(values)
    top = 0
    for v in values:
        top += 1
        for k in range(top, 0, -1):
            e[k] = e[k] + v * e[k - 1]
    return e


def elem_sym(values: Sequence, n: int):
    """Elementary symmetric polynomial e_n of the given values.

    e_0 = 1, e_m = product of all values; n outside 0..len(values) is a
    caller error rather than a zero, to catch index slips early.
    """
    if n < 0 or n > len(values):
        raise IndexOutOfRange(f"e_{n} undefined for {len(values)} values")
    return _elem_all(values)[n]


def epsilon_via_e(n_order: int, n: int, beta: Sequence):
    """Coefficient eps_n of the reciprocal expansion in terms of e_k(beta).

    Defined for 0 <= n <= 2N; the upper half mirrors the lower half
    (eps_n = eps_{2N-n}), matching the palindrome it expands.
    """
    big_n = n_order
    if len(beta) != big_n:
        raise ValueError(f"expected {big_n} beta values, got {len(beta)}")
    if n < 0 or n > 2 * big_n:
        raise IndexOutOfRange(f"eps_{n} undefined for order {big_n}")
    if n > big_n:
        n = 2 * big_n - n
    e = _elem_all(beta)
    acc = None
    for m in range(0, n // 2 + 1):
        term = math.comb(big_n - n + 2 * m, m) * e[n - 2 * m]
        acc = term if acc is None else acc + term
    return acc


def pair_basis(n_order: int) -> np.ndarray:
    """Integer matrix taking (v_0, ..., v_N) to the coefficients of p_v in y.

    Row m holds the ascending coefficients, in y = x + 1/x, of x^m + x^{-m}
    (row 0: the constant 1), built by V_1 = y, V_2 = y^2 - 2 and
    V_{m+1} = y V_m - V_{m-1}.  So q = v @ pair_basis(N) gives
    p_v(x) = sum_k q_k y^k, and for the monic form sum_k q_k y^k =
    prod (y + beta_n).  This inverts the unitriangular map of
    epsilon_via_e, which sends q_k = e_{N-k}(beta) to v_m = eps_{N-m}.
    """
    if n_order < 1:
        raise ValueError("order must be at least 1")
    rows = [[1], [0, 1]]
    prev, cur = [2], [0, 1]
    for _ in range(n_order - 1):
        nxt = [0] + cur
        for k, c in enumerate(prev):
            nxt[k] -= c
        prev, cur = cur, nxt
        rows.append(cur)
    out = np.zeros((n_order + 1, n_order + 1), dtype=np.int64)
    for m, row in enumerate(rows):
        out[m, : len(row)] = row
    return out


def vandermonde(beta: Sequence):
    """prod_{m < n} (beta_n - beta_m); 1 for a single value."""
    acc = 1
    for n in range(len(beta)):
        for m in range(n):
            acc = acc * (beta[n] - beta[m])
    return acc


def jacobian_complex_det(alpha) -> complex:
    """Holomorphic Jacobian determinant of the root-to-coefficient map."""
    arr = np.asarray(alpha, dtype=complex).ravel()
    if arr.size == 0:
        raise ValueError("need at least one root")
    if np.any(arr == 0):
        raise ZeroRoot("root parameters must be nonzero")
    beta = arr + 1.0 / arr
    v = complex(vandermonde(list(beta)))
    factors = np.prod((arr ** 2 - 1.0) / arr ** 2)
    return v * complex(factors)


def jacobian_real_factor(alpha) -> float:
    """Real 2N x 2N Jacobian determinant: |complex determinant|^2."""
    return float(abs(jacobian_complex_det(alpha)) ** 2)


def coefficient_map(alpha) -> np.ndarray:
    """The map under test: alpha -> (b_0, ..., b_{N-1}) of the monic form."""
    return from_roots(np.asarray(alpha, dtype=complex)).b


def numeric_jacobian(
    map_fn: Callable[[np.ndarray], np.ndarray],
    point,
    h: float | None = None,
) -> np.ndarray:
    """Central finite-difference Jacobian in interleaved real coordinates.

    Coordinates are (re a_1, im a_1, re a_2, im a_2, ...), rows likewise for
    the outputs.  The step defaults to 1e-5 * min |alpha_n| and refuses to
    run above 1e-2 * min |alpha_n|, where the stencil would stray too far
    from the base point for the quadratic error model to mean anything, and
    below eps * max |alpha_n|, where base +- h would round back to the base
    point in some coordinate and the difference quotient would be 0/0.
    """
    base = np.asarray(point, dtype=complex).ravel()
    if np.any(base == 0):
        raise ZeroRoot("cannot difference around a zero root")
    scale = float(np.min(np.abs(base)))
    if h is None:
        h = 1e-5 * scale
    if h > 1e-2 * scale:
        raise StepTooLarge(f"step {h:.3e} exceeds 1e-2 * min|alpha| = {1e-2 * scale:.3e}")
    floor = np.finfo(float).eps * float(np.max(np.abs(base)))
    if h < floor:
        raise StepTooSmall(f"step {h:.3e} is below eps * max|alpha| = {floor:.3e}")
    n = base.size
    m = np.asarray(map_fn(base), dtype=complex).ravel().size
    jac = np.empty((2 * m, 2 * n), dtype=float)
    for j in range(2 * n):
        bump = np.zeros(n, dtype=complex)
        bump[j // 2] = h if j % 2 == 0 else 1j * h
        fp = np.asarray(map_fn(base + bump), dtype=complex).ravel()
        fm = np.asarray(map_fn(base - bump), dtype=complex).ravel()
        col = (fp - fm) / (2.0 * h)
        jac[0::2, j] = col.real
        jac[1::2, j] = col.imag
    return jac
