"""Numeric Mahler measures.

Two independent evaluation routes are kept side by side:

* mahler_from_roots: find all roots, then take |leading| * prod max(1, |root|)
  (the product form that follows from Jensen's formula);
* mahler_quadrature: exponential of the average of log|f| over equispaced
  points of the unit circle (the defining log-integral, midpoint rule).

The root route is the workhorse: it is fast and insensitive to roots near
the circle.  The quadrature nears the measure only as fast as the nearest
root's distance to the circle allows, but its n-node sum is exactly Q_n of
the roots at every n (jensen_quadrature), so it is checked against Q_n of
the computed roots, which holds them to the polynomial's circle values.

Root finding (find_roots) is a simultaneous iteration (Ehrlich-Aberth
corrections) over all roots at once, started from the companion matrix's
eigenvalues and finished with a short Newton polish.  The eigenvalues are
accurate to rounding for well-separated roots, so Aberth stops after one
sweep where a start on the Cauchy-bound circle, kept as the fallback,
takes several (README gives the figures).

Reciprocal measures use the paper's pair products instead of the degree-2N
palindrome: x^N p_v(x) = v_N prod (x^2 + beta_n x + 1), so with
y = x + 1/x, p_v(x) = Q(y) for a degree-N polynomial Q, and the measure is
|v_N| prod max(|alpha_n|, 1/|alpha_n|) over the N roots of Q.  mu_rec_batch
computes it for a batch of coefficient vectors.  From N = 9, where Q's
monomial basis loses accuracy, it solves the degree-2N palindrome instead.
Each row takes one of two tiers:

1. the exact closed form of Q's roots at N = 1 and 2, for the whole batch;
2. find_roots, one row at a time, on every row from N = 3 and on each row
   whose closed-form measure is not finite, re-formed from its copy scaled
   into range: a row near either end of the double range still gets its
   measure.  find_roots also splits off exact zero roots, which Aberth
   cannot certify (the scale-free residual stays at 1 near them).

The Monte Carlo module, at N <= 2, pushes its samples through mu_rec_batch
in blocks of a few thousand rows, and mu_rec / nu_rec are its batch of one.
No step mixes rows, so at every N a row's bits do not depend on its batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLeadingCoefficient,
    NoConvergence,
    NodeOnZero,
    ZeroPolynomial,
)
from .polynomials import MonicRecip, RecipLaurent, lambda_embed
from .symfun import pair_basis

_MAX_ITER = 160
_STEP_TOL = 1e-14
# Q(y) in the monomial basis costs about (1 + sqrt 2)^N of the working
# precision (its roots crowd the segment [-2, 2]): 7e-15 relative at N = 8,
# 4e-12 at N = 16, no convergence at N = 30.  Above this order the
# reciprocal kernel solves the degree-2N palindrome instead.  Below it Q
# stays: a root y = +-2 of Q is a double root x = +-1 of the palindrome,
# which costs the palindrome's solve about half the digits.
Y_MAX_ORDER = 8
# A coefficient vector whose largest part leaves [2^-500, 2^500] is scaled by
# a power of two, which is exact, before its monic ratios or circle values
# are formed: complex division by 1e-320 overflows, and so do the circle
# values of a quadratic with coefficients 1e308.
_SCALE_EXPONENT = 500
# mahler_quadrature's default node count, and the one `measure` uses
QUADRATURE_NODES = 4096


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


def _unit_scaled(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(arr * 2^-e, e): e = 0 when the largest real or imaginary part of
    arr is within 2^(+-_SCALE_EXPONENT), else its binary exponent."""
    top = np.max(np.maximum(np.abs(arr.real), np.abs(arr.imag)))
    e = math.frexp(float(top))[1]
    if abs(e) <= _SCALE_EXPONENT:
        return arr, 0
    return np.ldexp(arr.real, -e) + 1j * np.ldexp(arr.imag, -e), e


def _require_finite(arr: np.ndarray) -> None:
    """ValueError naming the first entry of arr that is not finite."""
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"coefficient c_{bad[0]} = {arr[bad[0]]} is not finite")


def _horner_batch(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Evaluate each row polynomial (ascending coeffs) at its row of points."""
    cols = coeffs.T[:, :, None]
    acc = np.empty(z.shape, dtype=np.result_type(coeffs, z))
    acc[...] = cols[-1]
    for col in cols[-2::-1]:
        acc *= z
        acc += col
    return acc


def _residual_batch(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Normalized residual per row: max_k |p(z_k)| / sum_j |c_j||z_k|^j."""
    vals = np.abs(_horner_batch(coeffs, z))
    scale = _horner_batch(np.abs(coeffs), np.abs(z))
    # an exact root at 0 with zero constant term gives 0/0; call that exact
    scale[scale == 0.0] = np.finfo(float).tiny
    return np.max(vals / scale, axis=1)


def aberth_batch(
    coeffs: np.ndarray, tol: float = 1e-10, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneous root iteration over a batch of same-degree polynomials.

    coeffs: (B, d+1) complex, ascending, leading column nonzero in every row.
    start: (B, d) initial root estimates; by default a circle of Cauchy bound
    radius per row.  find_roots, the one caller, passes a batch of one.
    Returns (roots (B, d), residual (B,), converged (B,) bool).  Rows that
    fail to reach tol are reported, not raised; find_roots turns that into
    NoConvergence.

    The iteration runs until every row's step stagnates, which keeps
    grinding on root clusters (linear convergence) and pays off with
    near-exact multiple roots instead of sqrt(tol)-accurate ones.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    batch, width = coeffs.shape
    deg = width - 1
    monic = coeffs / coeffs[:, -1][:, None]
    dcoeffs = monic[:, 1:] * np.arange(1, deg + 1)

    if start is None:
        # equispaced angles with a fixed offset, so that no guess starts on
        # a symmetry axis of real inputs
        radius = 1.0 + np.max(np.abs(monic[:, :-1]), axis=1)
        angles = 2.0 * np.pi * (np.arange(deg) + 0.5) / deg + 0.4 / deg
        z = radius[:, None] * np.exp(1j * angles)[None, :]
    else:
        z = np.array(start, dtype=complex).reshape(batch, deg)

    eye = np.eye(deg, dtype=bool)
    for _ in range(_MAX_ITER):
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
        if not np.any((np.abs(delta) / (1.0 + np.abs(z))).max(axis=1) > _STEP_TOL):
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


def _companion_start(ratios: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of the companion matrix of the monic polynomial with
    lower coefficients ratios, as a (1, d) Aberth start.

    None, for the circle start, when LAPACK fails, returns a non-finite
    value or returns one value twice.  The Aberth correction treats equal
    estimates alike, so they would stay equal and report one root twice:
    eigenvalues of [5e-39, 1e119, -6e65, 1e-22] lose the root 2.5e53 to a
    second 0, and both zeros then converge to the root -3.7e-158.
    """
    deg = ratios.size
    companion = np.eye(deg, k=-1, dtype=complex)
    companion[:, -1] = -ratios
    try:
        eig = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(eig)) or np.unique(eig).size < deg:
        return None
    return eig[None, :]


def find_roots(coeffs, tol: float = 1e-10) -> RootSet:
    """All complex roots of one polynomial given by ascending coefficients.

    Aberth starts from the companion eigenvalues (see the module docstring)
    and runs to stagnation, so the eigenvalues only place the start.  A
    nonzero constant has the empty root set, with residual 0.0.  A
    coefficient that is not finite raises ValueError.  A polynomial whose
    coefficient ratio c_j/c_d overflows a double has no usable monic form
    and raises NoConvergence.  The returned roots are sorted by (real,
    imag) so equal inputs give identical output, not just equal root
    multisets.
    """
    arr = np.asarray(coeffs, dtype=complex)
    if arr.ndim != 1 or arr.size == 0 or not np.any(arr != 0):
        raise ZeroPolynomial("root finding needs a nonzero polynomial")
    _require_finite(arr)
    if arr[-1] == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    # the roots do not change with the scale
    arr = _unit_scaled(arr)[0]
    # x^k divides the polynomial: its k roots are exactly 0, and the
    # normalized residual, 0/0 at a multiple zero root, is taken on the rest
    k = 0
    while arr[k] == 0:
        k += 1
    roots, residual = np.zeros(k, dtype=complex), 0.0
    if arr.size - k > 1:
        rest = arr[k:]
        # the scaling can flush a tiny leading coefficient to 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratios = rest[:-1] / rest[-1]
        overflow = np.flatnonzero(~np.isfinite(ratios))
        if overflow.size:
            raise NoConvergence(
                f"coefficient ratio c_{overflow[0] + k}/c_{arr.size - 1} "
                "overflows a double"
            )
        # a value that overflows on the way fails the residual gate below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            found, res, ok = aberth_batch(rest[None, :], tol, _companion_start(ratios))
        if not ok[0]:
            raise NoConvergence(f"residual {res[0]:.3e} above tolerance {tol:.1e}")
        roots = np.concatenate([roots, found[0]]) if k else found[0]
        residual = float(res[0])
    order = np.lexsort((roots.imag, roots.real))
    return RootSet(roots[order], residual)


def mahler_from_roots(coeffs, tol: float = 1e-10) -> float:
    """Mahler measure |c_d| * prod max(1, |root|); find_roots checks coeffs."""
    arr = np.asarray(coeffs, dtype=complex)
    return find_roots(arr, tol).mahler(arr[-1])


@functools.lru_cache(maxsize=8)
def _circle_nodes(nodes: int) -> np.ndarray:
    """The (1, nodes) midpoint nodes exp(2 pi i t_j), read-only because the
    cache hands the same array to every caller."""
    t = (np.arange(nodes) + 0.5) / nodes
    z = np.exp(2j * np.pi * t)[None, :]
    z.flags.writeable = False
    return z


def mahler_quadrature(coeffs, nodes: int = QUADRATURE_NODES) -> float:
    """Mahler measure via the defining integral of log|f| over the circle.

    Midpoint nodes t_j = (j + 1/2)/nodes keep t = 0 out of the stencil.
    Exact zeros of |f| at a node are a hard failure: the log-integral
    is still finite, but this rule cannot see that.  A coefficient that is
    not finite raises ValueError.
    """
    if nodes < 16:
        raise ValueError("at least 16 nodes required")
    arr = np.asarray(coeffs, dtype=complex)
    if arr.ndim != 1 or arr.size == 0 or not np.any(arr != 0):
        raise ZeroPolynomial("Mahler measure of the zero polynomial")
    _require_finite(arr)
    arr, e = _unit_scaled(arr)
    mags = np.abs(_horner_batch(arr[None, :], _circle_nodes(nodes))[0])
    if np.any(mags == 0.0):
        raise NodeOnZero("integrand vanished at a quadrature node")
    return float(np.ldexp(np.exp(np.mean(np.log(mags))), e))


def jensen_quadrature(roots, leading, nodes: int = QUADRATURE_NODES) -> float:
    """Q_n = |leading| prod |1 + root^n|^(1/n), exactly mahler_quadrature's
    n-node value for the polynomial with these roots and top coefficient:
    the midpoint nodes are the roots of z^n = -1.  Q_n tends to the measure
    as n grows.  A root outside the circle enters as log|root| plus
    (1/n) log|1 + root^-n|, through root |root|^-2, the conjugate of root^-1.
    """
    roots = np.asarray(roots, dtype=complex)
    outer = np.maximum(1.0, np.abs(roots))
    with np.errstate(divide="ignore"):
        log_gap = np.log(np.abs(1.0 + (roots / outer / outer) ** nodes)).sum() / nodes
    return float(abs(leading) * np.prod(outer) * np.exp(log_gap))


def _aligned_sqrt(d: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """sqrt(d) on the branch s where Re(conj(ref) s) >= 0, elementwise, so
    that ref + s has no cancellation."""
    s = np.sqrt(d)
    return np.where((ref.conj() * s).real < 0.0, -s, s)


def _pair_moduli(y: np.ndarray) -> np.ndarray:
    """max(|x|, 1/|x|) over the roots x of x^2 - y x + 1, elementwise.

    The roots are (y +- s)/2 with s = sqrt(y^2 - 4), and the larger is the
    one without cancellation.  The two roots multiply to 1, hence the floor
    at 1 for rounding on the unit circle; y = 0 is the pair +-i, of modulus
    exactly 1.
    """
    s = np.sqrt(y * y - 4.0)
    return np.maximum(1.0, 0.5 * np.maximum(np.abs(y + s), np.abs(y - s)))


@functools.lru_cache(maxsize=None)
def _y_terms(n_order: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per k < N, the nonzero (m, P_mk), m > k ascending, of P = pair_basis(N)."""
    basis = pair_basis(n_order)
    return tuple(
        tuple((m, float(basis[m, k])) for m in range(k + 1, n_order + 1) if basis[m, k])
        for k in range(n_order)
    )


def y_coeffs(v: np.ndarray, lead: complex | None = None) -> np.ndarray:
    """(B, N+1) ascending coefficients q = v @ pair_basis(N) of Q(y) = p_v(x),
    y = x + 1/x, with q_N = v_N, for rows (v_0, ..., v_N), or (v_0, ...,
    v_{N-1}) when lead is every row's v_N.  Summed a column at a time in
    _y_terms' order, a row's q does not depend on its batch, as a BLAS
    product's does, and a scalar lead gives its column's |q_k| bit for bit.
    """
    n = v.shape[1] - (lead is None)
    top = v[:, n] if lead is None else lead
    # column-major, so that each column is written and read contiguously
    q = np.empty((n + 1, len(v)), dtype=complex)
    q[n] = top
    for k, terms in enumerate(_y_terms(n)):
        q[k] = v[:, k]
        for m, coeff in terms:
            q[k] += coeff * (top if m == n else v[:, m])
    return q.T


def _closed_form_roots(coeffs: np.ndarray) -> np.ndarray:
    """(B, d) roots of each row polynomial of degree d = 1 or 2 (ascending
    coefficients): tier 1 of the module docstring."""
    if coeffs.shape[1] == 2:
        return -coeffs[:, :1] / coeffs[:, 1:]
    a, b, c = coeffs[:, 2], coeffs[:, 1], coeffs[:, 0]
    t = -0.5 * (b + _aligned_sqrt(b * b - 4.0 * a * c, b))
    # t = 0 only for b = c = 0: a double root at 0
    return np.stack([t / a, np.where(t == 0, 0.0, c / t)], axis=1)


def mu_rec_batch(v: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Mahler measures of a batch of reciprocal Laurent polynomials.

    v: (B, N+1) complex rows (v_0, ..., v_N).  Returns (measures, converged).

    With y = x + 1/x, p_v(x) = Q(y) for a degree-N polynomial Q whose
    coefficients come from y_coeffs: Q = v_N prod (y + beta_n), and each
    root y = -beta_n carries the root pair of x^2 - y x + 1, which
    contributes max(|alpha|, 1/|alpha|) to the measure.  Q's roots, or the
    degree-2N palindrome's above N = 8 (see Y_MAX_ORDER), come from the two
    tiers of the module docstring; find_roots takes only a row with finite
    entries and v_N != 0.  A row that fails the root solve or gives a
    non-finite measure, as one with v_N = 0 does, reports inf and converged
    False.  N >= 1: mu_rec takes N = 0.
    """
    v = np.asarray(v, dtype=complex)
    n = v.shape[1] - 1
    if n > Y_MAX_ORDER:
        embed, moduli_of = lambda_embed, lambda x: np.maximum(1.0, np.abs(x))
    else:
        embed, moduli_of = y_coeffs, _pair_moduli
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n <= 2:
            # np.prod's order, column by column: its reduction along a short
            # axis costs about 20 ns a row
            prod = np.ones(len(v))
            for col in _pair_moduli(_closed_form_roots(y_coeffs(v))).T:
                prod *= col
        else:
            prod = np.full(len(v), np.nan)
        # tier 2: every row from N = 3, and a row whose closed form
        # overflowed on the way to a measure that may be finite
        for row in np.flatnonzero(~np.isfinite(prod)):
            if not (np.all(np.isfinite(v[row])) and v[row, -1] != 0):
                continue
            # the roots do not change with the scale
            row_coeffs = embed(_unit_scaled(v[row])[0][None, :])[0]
            try:
                prod[row] = math.prod(moduli_of(find_roots(row_coeffs, tol).roots))
            except NoConvergence:
                continue
        meas = np.abs(v[:, -1]) * prod
    ok = np.isfinite(meas)
    return np.where(ok, meas, np.inf), ok


def mu_rec(p: RecipLaurent | np.ndarray, tol: float = 1e-10) -> float:
    """Mahler measure of a reciprocal Laurent polynomial.

    Zero coefficients at the top of v only shift the palindromic embedding
    x^N p_v by powers of x, which have measure 1, so they are trimmed before
    the call to mu_rec_batch, as a batch of one.
    """
    v = p.v if isinstance(p, RecipLaurent) else np.asarray(p, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a non-empty one-dimensional vector")
    nz = np.nonzero(v)[0]
    if nz.size == 0:
        return 0.0
    v = v[: nz[-1] + 1]
    if v.size == 1:
        return float(abs(v[0]))
    meas, ok = mu_rec_batch(v[None, :], tol)
    if not ok[0]:
        raise NoConvergence(f"no finite measure at tolerance {tol:.1e}")
    return float(meas[0])


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
