"""Monte Carlo cross-checks of the closed distribution and volume forms.

Sampling pulls coefficient vectors uniformly from a product of disks that
provably contains the target sublevel set: a monic degree-2N polynomial
with Mahler measure mu has |coefficient of x^{N+n}| <= C(2N, N-n) * mu
(each coefficient is an elementary symmetric function of the roots, and
every k-subset product is at most prod max(1, |root|)).  The indicator of
{nu_rec <= xi} integrated over that region times the region volume is the
distribution value h_N(xi); dropping the monic normalization and bounding
the leading coefficient by 1 gives the star-body volume the same way.
The sampler takes N <= BOX_MAX_ORDER = 2.  Each sampled vector v = (v_0,
..., v_N) that the screen below keeps goes to measure.mu_rec_batch, which
measures it through y = x + 1/x with the closed-form roots of Q(y).

The screen.  The kernel's Q(y) = sum q_k y^k has q = measure.y_coeffs(v),
and q_k = v_N e_{N-k}(beta) for the pair sums beta_n = alpha_n + 1/alpha_n.
With l = |v_N| and t_n = log max(|alpha_n|, 1/|alpha_n|) >= 0, a row has
mu_rec = l exp(sum t_n), so mu_rec <= tau puts t in the simplex
{t >= 0, sum t <= log(tau / l)}, and |beta_n| <= 2 cosh t_n gives
|q_k| <= l e_{N-k}(2 cosh t).  Every product of cosh's is log-convex, so
e_j(2 cosh t) is convex and peaks at a vertex of the simplex, at
t = (log(tau / l), 0, ..., 0):

    |q_k| <= l C(N-1, N-k) 2^(N-k) + (tau + l^2/tau) C(N-1, N-k-1) 2^(N-k-1)

for every k < N, with equality at alpha = (tau / l, 1, ..., 1).  The box
comes from Mahler's bound on the palindrome's coefficients; the same
reasoning on Q leaves a region about 9 times smaller at N = 2.  The bound
holds for any polynomial, so also for the very q the kernel solves, and a
row is dropped when some |q_k| is above its bound by more than 1e-4 of it.
That margin covers the bound's float evaluation and a kernel that
underestimates a row near tau.  The kernel's closed form was within
1.2e-15 relative of a 50-digit evaluation of the same q on 971 box rows
near tau, and within 9.2e-8 on 9000 built rows with near-double roots of
Q, a root at y = +-2 or both roots on [-2, 2], so no row that it puts at
or below tau is dropped, and hits, and hence estimates, keep every bit.  A
dropped row cannot count as a rejection either, and the tests check that
rejections match the unscreened run too.  Rows with v_N = 0 or a
non-finite entry always reach the kernel, which scores them as rejections.

The screen runs from N = 1, in two stages, so that most rows are dropped
before their points are formed: the complex exponential is most of a
point's cost.  The moduli stage sees only r = |v|.  Since q_k = v_k +
sum_{m>k} P_mk v_m (measure._y_terms), |q_k| >= |v_k| - S_k with S_k =
sum_{m>k} |P_mk| |v_m|, and the stage drops a row when, for some k,
|v_k| > (1 + _MODULI_REL) (b_k + S_k), b_k being the second stage's bound
on |q_k|.  The slack _MODULI_REL = 1e-6 is far above the rounding of q_k
and of the stage's own sums, so the stage drops only rows that the second
stage would drop too.  q_{N-1} = v_{N-1} exactly, and at N = 1 the moduli
stage is the whole screen.  The kept rows' points are formed next, and
from N = 2 the second stage, _may_hit, bounds their complex q.  Of the box
rows, the stages keep:

    N    hn (xi = 1.5)       volume
    1    52%                 58%          (moduli stage only)
    2    24%, then 11%       36%, then 16%

A chunk is drawn, screened and measured in row blocks of _BLOCK = 4096.
For a whole chunk the root kernel's temporaries take a megabyte per complex
column: every fresh page costs a page fault, and the process keeps its
largest size.  A block's temporaries stay in cache and are reused.  Each
block's w is drawn for every row, the dropped ones too, so the stream does
not depend on the screen.  The rows a chunk keeps reach the kernel _BLOCK at a time, so one
N = 2 chunk makes about 2 calls instead of 16.  The kernel works row by
row and the tallies are integers, so blocks change no bit of an estimate.

Reproducibility: draws come from the Philox counter-based generator, keyed
by the user seed with the chunk index placed in the counter's top word.
Samples are processed in fixed-size chunks of 2^16 regardless of worker
count, so estimates are bit-identical for any --workers value; worker
threads, at most one per chunk and per CPU, only change wall-clock time.
Chunk tallies are integers, which makes the reduction order immaterial.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationOverflow, NoConvergence
from .measure import _y_terms, mu_rec_batch, y_coeffs

CHUNK = 1 << 16
# rows per mu_rec_batch call (module docstring)
_BLOCK = 4096
# residual target of find_roots on a row whose closed form is not finite
_ROOT_TOL = 1e-9
_REJECTION_CAP = 1e-6
# Largest order N the box sampler takes: the star body's volume
# 2^N pi^(N+1) (N+1)^N / (2N+1)! fills about 3e-8 of its box at N = 3, so
# 1% error would take about 10^12 samples, and no practical run scores a hit.
BOX_MAX_ORDER = 2
# the screen's one margin, relative to the bound (module docstring): it
# must cover the kernel underestimating a row near the threshold
_SCREEN_REL = 1e-4
# the moduli stage's slack on top of it, far above the rounding of q_k or
# of the stage's own sums, so that it drops only rows _may_hit drops
_MODULI_REL = 1e-6


@dataclass(frozen=True)
class MCEstimate:
    """A mean with its standard error and the run's audit fields.

    solved counts the samples that reached the root kernel, the rest having
    been screened out as provable misses.  rejections counts the solved
    samples whose root solve failed to converge; they are scored as misses
    and must stay below 1e-6 of the total, which the drivers enforce before
    returning.
    """

    mean: float
    std_error: float
    samples: int
    seed: int
    region_volume: float
    rejections: int = 0
    solved: int = 0


def bounding_radii(n_order: int, xi: float) -> np.ndarray:
    """Disk radii containing {nu_rec <= xi}: |b_n| <= C(2N, N-n) * xi."""
    if n_order < 1:
        raise ValueError("order must be at least 1")
    if not (xi >= 1.0):
        raise ValueError("threshold below the support edge xi = 1")
    if xi == math.inf:
        raise ValueError("threshold must be finite")
    return np.array(
        [math.comb(2 * n_order, n_order - n) * xi for n in range(n_order)],
        dtype=float,
    )


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = np.uint64(chunk_index + 1)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


def _sample_disks(
    gen: np.random.Generator, count: int, radii: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """count x len(radii) points uniform on each disk, in polar form, as
    (r, w) per block of _BLOCK rows; the point is _disk_points(r, w).

    The moduli r = radii * sqrt(u) come from u drawn whole, then each
    block's w is drawn in turn, which continues the stream of w drawn
    whole, so the points have the bytes of radii * sqrt(u) * exp(2j * pi *
    w) for u and w drawn whole, in that order.
    """
    u = gen.random((count, radii.size))
    np.sqrt(u, out=u)
    u *= radii
    for first in range(0, count, _BLOCK):
        r = u[first : first + _BLOCK]
        yield r, gen.random(r.shape)


def _disk_points(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """r * exp(2j * pi * w), elementwise, so that any subset of rows gets
    the bytes the whole block would."""
    z = np.multiply(w, 2j * np.pi)
    np.exp(z, out=z)
    z *= r
    return z


def _run_chunks(samples: int, seed: int, workers: int, chunk_fn):
    """Map chunk_fn(gen, count) over fixed chunks, sum its integer tallies."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n_chunks = (samples + CHUNK - 1) // CHUNK
    threads = min(workers, n_chunks, os.cpu_count() or 1)

    def work(ci: int) -> tuple[int, ...]:
        count = min(CHUNK, samples - ci * CHUNK)
        return chunk_fn(_chunk_generator(seed, ci), count)

    if threads == 1:
        tallies = [work(ci) for ci in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(work, range(n_chunks)))
    return tuple(sum(column) for column in zip(*tallies))


@functools.lru_cache(maxsize=None)
def _screen_terms(n_order: int) -> tuple[tuple[float, float], ...]:
    """For each k < N, the weights (A_k, B_k) of the bound
    |q_k| <= l A_k + (tau + l^2 / tau) B_k, widened by _SCREEN_REL."""
    w = [(1.0 + _SCREEN_REL) * math.comb(n_order - 1, j) * 2.0 ** j for j in range(n_order + 1)]
    return tuple((w[j], w[j - 1]) for j in range(n_order, 0, -1))


def _may_hit(block: np.ndarray, lead: complex | None, threshold: float) -> np.ndarray:
    """Mask of the rows of block that may measure at most threshold: all
    but those with some |q_k|, k < N, above the bound on {mu_rec <=
    threshold} by more than its margin (module docstring).  block ends with
    v_N when lead is None.  A row with v_N = 0 or a non-finite entry is
    kept.
    """
    n = block.shape[1] - (lead is None)
    with np.errstate(invalid="ignore", over="ignore"):
        q = y_coeffs(block, lead)
        ell = np.abs(block[:, n] if lead is None else lead)
        far = threshold + ell * ell / threshold
        # sum of every |q_k|: finite exactly when the row is (q is
        # unitriangular in v), short of an overflow, which only keeps a row
        total = ell
        miss = np.zeros(len(block), dtype=bool)
        for k, (a, b) in enumerate(_screen_terms(n)):
            size = np.abs(q[:, k])
            miss |= size > ell * a + far * b
            total = total + size
        miss &= (ell > 0) & np.isfinite(total)
    return ~miss


@functools.lru_cache(maxsize=None)
def _moduli_terms(n_order: int) -> tuple[tuple[float, float, tuple[tuple[int, float], ...]], ...]:
    """For each k < N, (A_k, B_k) of _screen_terms and the (m, |P_mk|) of
    measure._y_terms, all widened by _MODULI_REL."""
    s = 1.0 + _MODULI_REL
    return tuple(
        (a * s, b * s, tuple((m, abs(c) * s) for m, c in terms))
        for (a, b), terms in zip(_screen_terms(n_order), _y_terms(n_order))
    )


def _moduli_may_hit(r: np.ndarray, lead: complex | None, threshold: float) -> np.ndarray:
    """Mask of the rows of moduli r = |v| that _may_hit may keep: all but
    those where some |v_k| - sum_{m>k} |P_mk| |v_m|, a lower bound on
    |q_k|, is above _may_hit's bound on |q_k|, with the slack of the module
    docstring.  r ends with |v_N| when lead is None.  A row with v_N = 0 or
    a non-finite entry is kept.
    """
    n = r.shape[1] - (lead is None)
    with np.errstate(invalid="ignore", over="ignore"):
        ell = r[:, n] if lead is None else abs(lead)
        far = threshold + ell * ell / threshold
        total = ell
        miss = np.zeros(len(r), dtype=bool)
        for k, (a, b, terms) in enumerate(_moduli_terms(n)):
            # |v_k| > (1 + slack) (bound + sum), so a rounding of q_k far
            # below the slack still leaves |q_k| above the bound
            room = ell * a + far * b
            for m, c in terms:
                room = room + c * (ell if m == n else r[:, m])
            miss |= r[:, k] > room
            total = total + r[:, k]
        miss &= (ell > 0) & np.isfinite(total)
    return ~miss


def _box_estimate(
    n_order: int,
    lead: complex | None,
    threshold: float,
    samples: int,
    seed: int,
    workers: int,
) -> MCEstimate:
    """Estimate of vol{v : mu_rec(v) <= threshold} at order N, from v
    uniform on the box bounding_radii(N, threshold), followed by the fixed
    leading coefficient lead, or with v_N uniform on the unit disk when lead
    is None.  Only the rows the screen keeps reach the root kernel: the
    moduli stage, then from N = 2 _may_hit.  N above BOX_MAX_ORDER raises
    ValueError, and a box volume that overflows EvaluationOverflow, before
    any sample is drawn.
    """
    if samples < 10_000:
        raise ValueError("at least 10^4 samples required")
    if n_order > BOX_MAX_ORDER:
        raise ValueError(
            f"the Monte Carlo box sampler takes N <= {BOX_MAX_ORDER}, got N = {n_order}"
        )
    radii = bounding_radii(n_order, threshold)
    if lead is None:
        radii = np.append(radii, 1.0)
    # every factor is at least pi, so an overflow on the way is one at the end
    with np.errstate(over="ignore"):
        volume = float(np.prod(np.pi * radii ** 2))
    if not math.isfinite(volume):
        raise EvaluationOverflow(
            f"Monte Carlo box volume at N = {n_order}, xi = {threshold:.15g} "
            "overflows a double"
        )

    def screened(r: np.ndarray, w: np.ndarray) -> np.ndarray:
        # np.compress copies the kept rows in a fraction of the time that
        # boolean indexing takes
        rows = _moduli_may_hit(r, lead, threshold)
        block = _disk_points(np.compress(rows, r, axis=0), np.compress(rows, w, axis=0))
        if n_order > 1:
            block = np.compress(_may_hit(block, lead, threshold), block, axis=0)
        return block

    def chunk(gen: np.random.Generator, count: int) -> tuple[int, int, int]:
        v = np.concatenate([screened(r, w) for r, w in _sample_disks(gen, count, radii)])
        hits = rejections = 0
        for first in range(0, len(v), _BLOCK):
            block = v[first : first + _BLOCK]
            if lead is not None:
                block = np.concatenate(
                    [block, np.full((block.shape[0], 1), lead, dtype=complex)], axis=1
                )
            # a leading coefficient of exactly 0 (probability 0) scores as a
            # rejection: the kernel reports its measure as not finite
            meas, ok = mu_rec_batch(block, _ROOT_TOL)
            hits += int(np.count_nonzero(meas <= threshold))
            rejections += int(np.count_nonzero(~ok))
        return hits, rejections, len(v)

    hits, rejections, solved = _run_chunks(samples, seed, workers, chunk)
    if rejections > _REJECTION_CAP * samples:
        raise NoConvergence(f"{rejections} of {samples} samples failed the root solve")
    p = hits / samples
    return MCEstimate(
        mean=volume * p,
        std_error=volume * math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
        seed=seed,
        region_volume=volume,
        rejections=rejections,
        solved=solved,
    )


def mc_hN(
    n_order: int,
    xi: float,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of the distribution value h_N(xi), N <= 2."""
    return _box_estimate(n_order, 1.0, xi, samples, seed, workers)


def mc_volume(
    n_order: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of the volume of {mu_rec <= 1} in C^{N+1}, N <= 2,
    on the box bounding_radii(N, 1) with a sampled leading slot of radius 1."""
    return _box_estimate(n_order, None, 1.0, samples, seed, workers)
