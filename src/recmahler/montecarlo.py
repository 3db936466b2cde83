"""Monte Carlo cross-checks of the closed distribution and volume forms.

Sampling pulls coefficient vectors uniformly from a product of disks that
provably contains the target sublevel set: a monic degree-2N polynomial
with Mahler measure mu has |coefficient of x^{N+n}| <= C(2N, N-n) * mu
(each coefficient is an elementary symmetric function of the roots, and
every k-subset product is at most prod max(1, |root|)).  The indicator of
{nu_rec <= xi} integrated over that region times the region volume is the
distribution value h_N(xi); dropping the monic normalization and bounding
the leading coefficient by 1 gives the star-body volume the same way.
Each sampled vector v = (v_0, ..., v_N) goes straight to
measure.mu_rec_batch, which measures it through y = x + 1/x: closed-form
roots for N <= 3, at N = 3 behind a residual gate, and a degree-N Aberth
solve for every row the closed form does not certify, which at N >= 4 is
every row.

A chunk is built and measured in row blocks of _BLOCK = 4096.  For a whole
chunk the root kernel's temporaries take a megabyte per complex column, and
at N = 8 Aberth's (rows, N, N) arrays take 67 MB each: every fresh page
costs a page fault, and the process keeps its largest size.  A block's
temporaries stay in cache and are reused.  The kernel works row by row and
the tallies are integers, so blocks change no bit of an estimate.

Reproducibility: draws come from the Philox counter-based generator, keyed
by the user seed with the chunk index placed in the counter's top word.
Samples are processed in fixed-size chunks of 2^16 regardless of worker
count, so estimates are bit-identical for any --workers value; worker
threads, at most one per chunk and per CPU, only change wall-clock time.
Chunk tallies are integers, which makes the reduction order immaterial.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationOverflow, NoConvergence
from .measure import mu_rec_batch

CHUNK = 1 << 16
# rows per mu_rec_batch call (module docstring)
_BLOCK = 4096
# residual target of the degree-N root solve for N >= 3
_ROOT_TOL = 1e-9
_REJECTION_CAP = 1e-6


@dataclass(frozen=True)
class MCEstimate:
    """A mean with its standard error and the run's audit fields.

    rejections counts samples whose root solve failed to converge; they are
    scored as misses and must stay below 1e-6 of the total, which the
    drivers enforce before returning.
    """

    mean: float
    std_error: float
    samples: int
    seed: int
    region_volume: float
    rejections: int = 0


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


def _sample_disks(gen: np.random.Generator, count: int, radii: np.ndarray) -> np.ndarray:
    """count x len(radii) complex points, uniform on each disk.

    The bytes are those of radii * sqrt(u) * exp(2j * pi * w) for u and w
    drawn whole, in that order.  w is drawn _BLOCK rows at a time, which
    continues the same stream, and each block of the result is built in
    place, so u and the result are the only full-size arrays.
    """
    u = gen.random((count, radii.size))
    np.sqrt(u, out=u)
    u *= radii
    v = np.empty((count, radii.size), dtype=complex)
    for first in range(0, count, _BLOCK):
        block = v[first : first + _BLOCK]
        np.multiply(gen.random(block.shape), 2j * np.pi, out=block)
        np.exp(block, out=block)
        block *= u[first : first + _BLOCK]
    return v


def _run_chunks(samples: int, seed: int, workers: int, chunk_fn):
    """Map chunk_fn(gen, count) over fixed chunks, reduce integer tallies."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n_chunks = (samples + CHUNK - 1) // CHUNK
    threads = min(workers, n_chunks, os.cpu_count() or 1)

    def work(ci: int) -> tuple[int, int]:
        count = min(CHUNK, samples - ci * CHUNK)
        return chunk_fn(_chunk_generator(seed, ci), count)

    if threads == 1:
        tallies = [work(ci) for ci in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(work, range(n_chunks)))
    hits = sum(t[0] for t in tallies)
    rejections = sum(t[1] for t in tallies)
    return hits, rejections


def _box_estimate(
    radii: np.ndarray,
    lead: complex | None,
    threshold: float,
    samples: int,
    seed: int,
    workers: int,
) -> MCEstimate:
    """Estimate of vol{v : mu_rec(v) <= threshold} from v uniform on the
    product of disks with these radii, followed by the fixed leading
    coefficient lead, or with v_N sampled by the last disk when lead is None.
    A box whose volume overflows a double raises EvaluationOverflow before
    any sample is drawn.
    """
    # every factor is at least pi, so an overflow on the way is one at the end
    with np.errstate(over="ignore"):
        volume = float(np.prod(np.pi * radii ** 2))
    if not math.isfinite(volume):
        n_order = radii.size - (lead is None)
        raise EvaluationOverflow(
            f"Monte Carlo box volume at N = {n_order}, xi = {threshold:.15g} "
            "overflows a double"
        )

    def chunk(gen: np.random.Generator, count: int) -> tuple[int, int]:
        v = _sample_disks(gen, count, radii)
        hits = rejections = 0
        for first in range(0, count, _BLOCK):
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
        return hits, rejections

    hits, rejections = _run_chunks(samples, seed, workers, chunk)
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
    )


def mc_hN(
    n_order: int,
    xi: float,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of the distribution value h_N(xi)."""
    if samples < 10_000:
        raise ValueError("at least 10^4 samples required")
    return _box_estimate(bounding_radii(n_order, xi), 1.0, xi, samples, seed, workers)


def mc_volume(
    n_order: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of the volume of {mu_rec <= 1} in C^{N+1}, on
    the box bounding_radii(N, 1) with a sampled leading slot of radius 1."""
    if samples < 10_000:
        raise ValueError("at least 10^4 samples required")
    radii = np.append(bounding_radii(n_order, 1.0), 1.0)
    return _box_estimate(radii, None, 1.0, samples, seed, workers)
