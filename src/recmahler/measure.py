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
all roots at once, finished with a short Newton polish.  The kernel is
written over a batch axis; each row stops iterating once its own step
stagnates.  A batch starts deterministically on a circle whose radius comes
from the Cauchy coefficient bound.  One polynomial (find_roots) starts
instead from the eigenvalues of its companion matrix, which are accurate to
rounding for well-separated roots, so Aberth stops after one sweep at every
degree from 2 to 16 where the circle start takes 6 to 25 (roots at radius
1.25 to 2 or its inverse), each paying NumPy's per-call overhead.  Batches
keep the circle start: LAPACK solves one matrix at a time, and on Gaussian
coefficients (one thread, 2 cores) eigenvalues plus Aberth measured 9.8
against 6.8 us per polynomial at degree 3 (65536 rows), 35 against 22 at
degree 6 (16384 rows) and 227 against 202 at degree 16 (4096 rows).
Cubic batches, the N = 3 Monte Carlo chunks of mu_rec_batch, start instead
from Cardano's formula, vectorized over the rows: on 65536 sampled rows
Aberth stops after one sweep where the circle start takes 19, and the
kernel measured 3.2 to 3.4 against 8.0 to 8.3 us a sample (2 cores).

Reciprocal measures use the paper's pair products instead of the degree-2N
palindrome: x^N p_v(x) = v_N prod (x^2 + beta_n x + 1), so with
y = x + 1/x, p_v(x) = Q(y) for a degree-N polynomial Q, and the measure is
|v_N| prod max(|alpha_n|, 1/|alpha_n|) over the N roots of Q.  mu_rec_batch
computes it for a batch of coefficient vectors, with closed-form roots for
N <= 2, Aberth from Cardano's roots at N = 3 and Aberth from the circle
up to N = 8, where the monomial basis in y
still keeps the measure to 1e-14; the Monte Carlo module pushes
tens of thousands of samples through it per call, and mu_rec / nu_rec are
its batch of one.
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
# reciprocal kernel solves the degree-2N palindrome instead.
Y_MAX_ORDER = 8
# A coefficient vector whose largest part leaves [2^-500, 2^500] is scaled by
# a power of two, which is exact, before its monic ratios or circle values
# are formed: complex division by 1e-320 overflows, and so do the circle
# values of a quadratic with coefficients 1e308.
_SCALE_EXPONENT = 500


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


def _circle_start(monic: np.ndarray) -> np.ndarray:
    """Deterministic Aberth start for monic rows: a circle of Cauchy bound
    radius, equispaced angles with a fixed offset so no guess starts on a
    symmetry axis of real inputs."""
    deg = monic.shape[1] - 1
    radius = 1.0 + np.max(np.abs(monic[:, :-1]), axis=1)
    angles = 2.0 * np.pi * (np.arange(deg) + 0.5) / deg + 0.4 / deg
    return radius[:, None] * np.exp(1j * angles)[None, :]


def aberth_batch(
    coeffs: np.ndarray, tol: float = 1e-10, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneous root iteration over a batch of same-degree polynomials.

    coeffs: (B, d+1) complex, ascending, leading column nonzero in every row.
    start: (B, d) initial root estimates; by default a circle of Cauchy bound
    radius per row.  find_roots passes a polynomial's companion eigenvalues,
    which pay off for a batch of one only: batched, eigenvalues plus Aberth
    cost 9.8 against 6.8 us per polynomial at degree 3, 35 against 22 at
    degree 6 and 227 against 202 at degree 16 (module docstring).
    mu_rec_batch passes Cardano's roots for its cubic batches, which cost
    no more than the circle and end the iteration after one sweep.
    Returns (roots (B, d), residual (B,), converged (B,) bool).  Rows that
    fail to reach tol are reported, not raised; the single-polynomial API
    turns that into NoConvergence, the Monte Carlo driver counts it.

    The iteration runs to step stagnation, which keeps grinding on root
    clusters (linear convergence) and pays off with near-exact multiple
    roots instead of sqrt(tol)-accurate ones.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    batch, width = coeffs.shape
    deg = width - 1
    monic = coeffs / coeffs[:, -1][:, None]
    dcoeffs = monic[:, 1:] * np.arange(1, deg + 1)

    if start is None:
        z = _circle_start(monic)
    else:
        z = np.array(start, dtype=complex).reshape(batch, deg)

    # rows leave the active set once their own step stagnates, so one slow
    # row does not keep the whole batch iterating
    eye = np.eye(deg, dtype=bool)
    active = np.arange(batch)
    za, ma, da = z, monic, dcoeffs
    for _ in range(_MAX_ITER):
        p = _horner_batch(ma, za)
        dp = _horner_batch(da, za)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = p / dp
            diff = za[:, :, None] - za[:, None, :]
            inv = 1.0 / diff
            inv[:, eye] = 0.0
            s = inv.sum(axis=2)
            delta = w / (1.0 - w * s)
        bad = ~np.isfinite(delta)
        if bad.any():
            # derivative hit zero or two estimates collided: nudge instead
            delta[bad] = 0.1 * (1.0 + np.abs(za[bad])) * np.exp(0.7j)
        za = za - delta
        going = (np.abs(delta) / (1.0 + np.abs(za))).max(axis=1) > _STEP_TOL
        n_going = np.count_nonzero(going)
        if n_going < going.size:
            if n_going == 0:
                break
            z[active] = za
            active, za, ma, da = active[going], za[going], ma[going], da[going]
    z[active] = za

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
    and runs to stagnation as in a batch, so the eigenvalues only place the
    start.  A polynomial whose coefficient ratio c_j/c_d overflows a double
    has no usable monic form and raises NoConvergence.  The returned roots
    are sorted by (real, imag) so equal inputs give identical output, not
    just equal root multisets.
    """
    arr = np.asarray(coeffs, dtype=complex)
    if arr.ndim != 1 or arr.size == 0 or not np.any(arr != 0):
        raise ZeroPolynomial("root finding needs a nonzero polynomial")
    if arr[-1] == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if arr.size == 1:
        raise ZeroPolynomial("a nonzero constant has no roots")
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
        with np.errstate(over="ignore", invalid="ignore"):
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
    """Mahler measure via the product form |c_d| * prod max(1, |root|)."""
    arr = np.asarray(coeffs, dtype=complex)
    if arr.ndim != 1 or arr.size == 0 or not np.any(arr != 0):
        raise ZeroPolynomial("Mahler measure of the zero polynomial")
    if arr[-1] == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if arr.size == 1:
        return float(abs(arr[0]))
    return find_roots(arr, tol).mahler(arr[-1])


@functools.lru_cache(maxsize=8)
def _circle_nodes(nodes: int) -> np.ndarray:
    """The (1, nodes) midpoint nodes exp(2 pi i t_j), read-only because the
    cache hands the same array to every caller."""
    t = (np.arange(nodes) + 0.5) / nodes
    z = np.exp(2j * np.pi * t)[None, :]
    z.flags.writeable = False
    return z


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
    arr, e = _unit_scaled(arr)
    mags = np.abs(_horner_batch(arr[None, :], _circle_nodes(nodes))[0])
    if np.any(mags == 0.0):
        raise NodeOnZero("integrand vanished at a quadrature node")
    return float(np.ldexp(np.exp(np.mean(np.log(mags))), e))


# 1, w, w^2 for w = exp(2 pi i / 3): the three cube roots in Cardano's formula
_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi * np.arange(3) / 3)
# Cardano values closer than this, relative, count as one repeated value
_CARDANO_REPEAT = 1e-7


def _cardano_start(q: np.ndarray) -> np.ndarray:
    """Roots of each row cubic (ascending coefficients) by Cardano's
    formula, as a (B, 3) Aberth start.

    The square root takes the branch where Re(conj(D1) s) >= 0, so D1 + s
    has no cancellation, as in the quadratic of _q_pair_moduli.  Rows whose
    values are non-finite or repeat one start on the circle instead.  Equal
    estimates stay equal under Aberth (see _companion_start), and an exact
    triple root gives C = 0 and 0/0 below.  Values that agree to
    _CARDANO_REPEAT count as repeats: Cardano places the double root of
    (y - 3)^2 (y - 0.5i) to within 5e-16, where p and p' are rounding
    noise, so the first sweep's step already stagnates and the Newton
    polish then throws the pair 0.02 apart.  From the circle, Aberth leaves
    a double root spread by about sqrt(eps), where the polish holds.
    """
    monic = q / q[:, -1][:, None]
    c2, c1, c0 = monic[:, 2], monic[:, 1], monic[:, 0]
    d0 = c2 * c2 - 3.0 * c1
    d1 = (2.0 * c2 * c2 - 9.0 * c1) * c2 + 27.0 * c0
    s = np.sqrt(d1 * d1 - 4.0 * d0 * d0 * d0)
    s = np.where((d1.conj() * s).real < 0.0, -s, s)
    c = (0.5 * (d1 + s)) ** (1.0 / 3.0)
    cw = c[:, None] * _CUBE_ROOTS_OF_UNITY
    y = (c2[:, None] + cw + d0[:, None] / cw) / -3.0
    i, j = [0, 0, 1], [1, 2, 2]
    gap = np.abs(y[:, i] - y[:, j])
    near = gap <= _CARDANO_REPEAT * np.maximum(np.abs(y[:, i]), np.abs(y[:, j]))
    bad = ~np.all(np.isfinite(y), axis=1) | np.any(near, axis=1)
    if bad.any():
        y[bad] = _circle_start(monic[bad])
    return y


def _pair_moduli(y: np.ndarray) -> np.ndarray:
    """max(|x|, 1/|x|) over the roots x of x^2 - y x + 1, elementwise.

    The larger root is (y + s)/2 with s = sqrt(y^2 - 4) on the branch where
    Re(conj(y) s) >= 0, so y + s has no cancellation.  The two roots
    multiply to 1, hence the floor at 1 for rounding on the unit circle.
    """
    s = np.sqrt(y * y - 4.0)
    s = np.where((y.conj() * s).real < 0.0, -s, s)
    return np.maximum(1.0, 0.5 * np.abs(y + s))


def _q_pair_moduli(q: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(B, m) pair moduli _pair_moduli over the roots of each row's
    degree-m Q (ascending coefficients), and the rows' converged flags."""
    batch, m = q.shape[0], q.shape[1] - 1
    ok = np.ones(batch, dtype=bool)
    if m == 0:
        return np.ones((batch, 0)), ok
    if m == 1:
        return _pair_moduli(-q[:, :1] / q[:, 1:]), ok
    if m == 2:
        a, b, c = q[:, 2], q[:, 1], q[:, 0]
        d = np.sqrt(b * b - 4.0 * a * c)
        d = np.where((b.conj() * d).real < 0.0, -d, d)
        t = -0.5 * (b + d)
        # t = 0 only for b = c = 0: a double root at 0
        y = np.stack([t / a, np.where(t == 0, 0.0, c / t)], axis=1)
        return _pair_moduli(y), ok
    # y^k divides Q: its k roots are exactly 0, each the root pair +-i of
    # modulus 1, and near a multiple root at 0 the scale-free residual stays
    # at 1, so such rows are solved at degree m - k, as find_roots does
    strip = np.flatnonzero((q[:, 0] == 0) & (q[:, -1] != 0))
    if strip.size:
        k = np.zeros(batch, dtype=int)
        k[strip] = np.argmax(q[strip] != 0, axis=1)
        moduli = np.ones((batch, m))
        for kk in np.unique(k):
            rows = k == kk
            moduli[rows, kk:], ok[rows] = _q_pair_moduli(q[rows, kk:], tol)
        return moduli, ok
    y, _, ok = aberth_batch(q, tol, _cardano_start(q) if m == 3 else None)
    return _pair_moduli(y), ok


def mu_rec_batch(v: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Mahler measures of a batch of reciprocal Laurent polynomials.

    v: (B, N+1) complex rows (v_0, ..., v_N).  Returns (measures, converged).

    With y = x + 1/x, p_v(x) = Q(y) for a degree-N polynomial Q whose
    coefficients come from symfun.pair_basis: Q = v_N prod (y + beta_n),
    and each root y = -beta_n carries the root pair of x^2 - y x + 1, which
    contributes max(|alpha|, 1/|alpha|) to the measure.  Q's roots are
    closed form for N <= 2 (the quadratic in cancellation-free form) and
    come from aberth_batch at degree N up to N = 8, started from Cardano's
    roots at N = 3; above that the degree-2N palindrome x^N p_v is solved
    instead (see Y_MAX_ORDER).  A factor y^k of Q is split off first.
    A row that fails the root solve or gives a non-finite measure, as one
    with v_N = 0 does, reports inf and converged False.
    """
    v = np.asarray(v, dtype=complex)
    n = v.shape[1] - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n > Y_MAX_ORDER:
            x, _, ok = aberth_batch(lambda_embed(v), tol)
            moduli = np.maximum(1.0, np.abs(x))
        else:
            moduli, ok = _q_pair_moduli(v @ pair_basis(n), tol)
        meas = np.abs(v[:, -1]) * np.prod(moduli, axis=1)
    ok &= np.isfinite(meas)
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
