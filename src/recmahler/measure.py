"""Numeric Mahler measures.

Two independent evaluation routes are kept side by side:

* mahler_from_roots: find all roots, then take |leading| * prod max(1, |root|)
  (the product form that follows from Jensen's formula);
* mahler_quadrature: exponential of the average of log|f| over equispaced
  points of the unit circle (the defining log-integral, midpoint rule).

The root route is the workhorse: it is fast and insensitive to roots near
the circle.  The quadrature route converges geometrically in the node count
with rate set by the distance of the nearest root to the circle, so it is
only trustworthy for root-screened inputs, where it provides a genuinely
independent cross-check.

Root finding is a simultaneous iteration (Ehrlich-Aberth corrections) over
all roots at once, started deterministically on a circle whose radius comes
from the Cauchy coefficient bound, finished with a short Newton polish.
The kernel is written over a batch axis so the Monte Carlo module can push
tens of thousands of small polynomials through it per call; the single
polynomial API is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLeadingCoefficient,
    NoConvergence,
    NodeOnZero,
    ZeroPolynomial,
)
from .polynomials import RecipLaurent, MonicRecip, lambda_embed

_MAX_ITER = 160
_STEP_TOL = 1e-14


@dataclass(frozen=True)
class RootSet:
    """All roots of one polynomial plus the worst normalized residual.

    residual is max over roots of |f(z)| / sum_j |c_j| |z|^j, a scale-free
    backward-error measure: it sits at rounding level for a well-computed
    root regardless of the coefficient scale.
    """

    roots: np.ndarray
    residual: float

    def mahler(self, leading) -> float:
        """Mahler measure |leading| * prod max(1, |root|) of the polynomial
        whose roots these are and whose top coefficient is leading."""
        return float(abs(leading) * np.prod(np.maximum(1.0, np.abs(self.roots))))


def _horner_batch(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Evaluate each row polynomial (ascending coeffs) at its row of points."""
    acc = np.broadcast_to(coeffs[:, -1][:, None], z.shape).copy()
    for j in range(coeffs.shape[1] - 2, -1, -1):
        acc *= z
        acc += coeffs[:, j][:, None]
    return acc


def _residual_batch(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Normalized residual per row: max_k |p(z_k)| / sum_j |c_j||z_k|^j."""
    vals = np.abs(_horner_batch(coeffs, z))
    scale = np.abs(
        _horner_batch(np.abs(coeffs).astype(complex), np.abs(z).astype(complex))
    )
    # an exact root at 0 with zero constant term gives 0/0; call that exact
    scale[scale == 0.0] = np.finfo(float).tiny
    return np.max(vals / scale, axis=1)


def aberth_batch(
    coeffs: np.ndarray, tol: float = 1e-10, fast_exit: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneous root iteration over a batch of same-degree polynomials.

    coeffs: (B, d+1) complex, ascending, leading column nonzero in every row.
    Returns (roots (B, d), residual (B,), converged (B,) bool).  Rows that
    fail to reach tol are reported, not raised; the single-polynomial API
    turns that into NoConvergence, the Monte Carlo driver counts it.

    fast_exit stops as soon as the whole batch clears the residual target,
    which is all an indicator-function consumer needs.  Without it the
    iteration runs to step stagnation, which keeps grinding on root
    clusters (linear convergence) and pays off with near-exact multiple
    roots instead of sqrt(tol)-accurate ones.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    batch, width = coeffs.shape
    deg = width - 1
    monic = coeffs / coeffs[:, -1][:, None]
    dcoeffs = monic[:, 1:] * np.arange(1, deg + 1)

    # deterministic start: Cauchy bound radius, equispaced angles with a
    # fixed offset so no guess starts on a symmetry axis of real inputs
    radius = 1.0 + np.max(np.abs(monic[:, :-1]), axis=1)
    angles = 2.0 * np.pi * (np.arange(deg) + 0.5) / deg + 0.4 / deg
    z = radius[:, None] * np.exp(1j * angles)[None, :]

    eye = np.eye(deg, dtype=bool)
    for it in range(_MAX_ITER):
        p = _horner_batch(monic, z)
        dp = _horner_batch(dcoeffs, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = p / dp
            diff = z[:, :, None] - z[:, None, :]
            inv = 1.0 / diff
            inv[:, eye] = 0.0
            s = inv.sum(axis=2)
            delta = w / (1.0 - w * s)
        bad = ~np.isfinite(delta)
        if bad.any():
            # derivative hit zero or two estimates collided: nudge instead
            delta[bad] = 0.1 * (1.0 + np.abs(z[bad])) * np.exp(0.7j)
        z = z - delta
        steps = np.abs(delta) / (1.0 + np.abs(z))
        if np.max(steps) <= _STEP_TOL:
            break
        if fast_exit and it >= 4 and (it & 3) == 0:
            if np.max(_residual_batch(monic, z)) <= 0.25 * tol:
                break

    # Newton polish
    for _ in range(3):
        p = _horner_batch(monic, z)
        dp = _horner_batch(dcoeffs, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
        step[~np.isfinite(step)] = 0.0
        z = z - step

    residual = _residual_batch(monic, z)
    return z, residual, residual <= tol


def find_roots(coeffs, tol: float = 1e-10) -> RootSet:
    """All complex roots of one polynomial given by ascending coefficients.

    The returned roots are sorted by (real, imag) so equal inputs give
    identical output, not just equal root multisets.
    """
    arr = np.asarray(coeffs, dtype=complex)
    if arr.ndim != 1 or arr.size == 0 or not np.any(arr != 0):
        raise ZeroPolynomial("root finding needs a nonzero polynomial")
    if arr[-1] == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if arr.size == 1:
        raise ZeroPolynomial("a nonzero constant has no roots")
    roots, residual, ok = aberth_batch(arr[None, :], tol)
    if not ok[0]:
        raise NoConvergence(
            f"residual {residual[0]:.3e} above tolerance {tol:.1e}"
        )
    order = np.lexsort((roots[0].imag, roots[0].real))
    return RootSet(roots[0][order], float(residual[0]))


def mahler_from_roots(coeffs, tol: float = 1e-10) -> float:
    """Mahler measure via the product form |c_d| * prod max(1, |root|)."""
    arr = np.asarray(coeffs, dtype=complex)
    if arr.ndim != 1 or arr.size == 0 or not np.any(arr != 0):
        raise ZeroPolynomial("Mahler measure of the zero polynomial")
    if arr[-1] == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if arr.size == 1:
        return float(abs(arr[0]))
    return find_roots(arr, tol).mahler(arr[-1])


def mahler_quadrature(coeffs, nodes: int = 4096) -> float:
    """Mahler measure via the defining integral of log|f| over the circle.

    Midpoint nodes t_j = (j + 1/2)/nodes keep t = 0 out of the stencil.
    Exact zeros of |f| at a node are a hard failure: the log-integral
    is still finite, but this rule cannot see that.
    """
    if nodes < 16:
        raise ValueError("at least 16 nodes required")
    arr = np.asarray(coeffs, dtype=complex)
    if arr.ndim != 1 or arr.size == 0 or not np.any(arr != 0):
        raise ZeroPolynomial("Mahler measure of the zero polynomial")
    t = (np.arange(nodes) + 0.5) / nodes
    x = np.exp(2j * np.pi * t)
    vals = np.zeros(nodes, dtype=complex)
    for c in arr[::-1]:
        vals *= x
        vals += c
    mags = np.abs(vals)
    if np.any(mags == 0.0):
        raise NodeOnZero("integrand vanished at a quadrature node")
    return float(np.exp(np.mean(np.log(mags))))


def mu_rec(p: RecipLaurent | np.ndarray, tol: float = 1e-10) -> float:
    """Mahler measure of a reciprocal Laurent polynomial.

    Works on the palindromic embedding x^N p_v; zero coefficients at the
    top of v only shift the embedding by powers of x, which have measure 1,
    so both ends of the palindrome are trimmed before the root call.
    """
    if not isinstance(p, RecipLaurent):
        arr = np.asarray(p, dtype=complex)
        if arr.size >= 1 and not np.any(arr != 0):
            return 0.0
        if arr.size == 1:
            return float(abs(arr[0]))
        p = RecipLaurent(arr)
    emb = lambda_embed(p)
    nz = np.nonzero(emb)[0]
    if nz.size == 0:
        return 0.0
    emb = emb[nz[0] : nz[-1] + 1]
    if emb.size == 1:
        return float(abs(emb[0]))
    return mahler_from_roots(emb, tol)


def nu_rec(b: MonicRecip | np.ndarray, tol: float = 1e-10) -> float:
    """Mahler measure of the monic form: mu_rec of (b_0, ..., b_{N-1}, 1).

    Always >= 1, because the embedded polynomial is monic with constant
    term 1, so its roots multiply to a unimodular number and the measure
    max(1, .)-product cannot drop below 1.
    """
    if not isinstance(b, MonicRecip):
        b = MonicRecip(np.asarray(b, dtype=complex))
    v = np.concatenate([b.b, [1.0 + 0.0j]])
    return mu_rec(RecipLaurent(v), tol)
