"""The benchmark's workloads: each is one round of operations, rebuilt the
same way from the workload seed and repeated whole until the run's time is
up, so the share of failed operations is the same in every run.

An operation is either a command line the user could type, run in-process
through recmahler.cli.run, or one library call the CLI does not expose.
The recmahler modules are looked up at call time, so the tracer's wrappers
see every call.

Every round also carries a sweep of small calls, one per subcommand and
layer, and a few small Monte Carlo calls, so that every workload reports
every metric; they cost about two seconds a round.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

XI = 1.5

# The Monte Carlo seed is fixed, not drawn from the workload seed.  The root
# solver iterates each 2^16-sample chunk until its slowest row converges, so
# one chunk's time moves by about 15% from one Monte Carlo seed to another;
# and a correct estimator misses 3 sigma 0.27% of the time, which would make
# the failed count depend on the seed.  Every run checks every estimator
# below against 3 sigma at this seed; to try another, change it here and run
# run.py on each workload.
MC_SEED = 1

# The box sampler's hit rate at N = 3 is about 3e-8, so these samples score
# no hit (checked at this seed) and the CLI reports z = inf.
HN3_SAMPLES = 1 << 14
HN3_SEED = 0

FAULT_MC_N3 = "box sampler hit rate ~3e-8 at N = 3: no hits, z = inf (ROADMAP items 2, 5)"
FAULT_ZERO_ROOTS = "NoConvergence at a multiple zero root, exit 2 (ROADMAP item 3)"
FAULT_ROOT_CLUSTER = "root route gives 1.00122 for (1-x)^4 (ROADMAP item 3)"


@dataclass
class Op:
    """One operation: a CLI argv or a library call, and its output check."""

    label: str
    check: Callable[[object], str | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    fault: str | None = None
    # Monte Carlo bookkeeping: estimator key, samples, workers
    mc: tuple[str, int, int] | None = None
    # label of an earlier op whose output the check also reads
    needs: str | None = None
    # counted in the small-call latency percentiles
    small: bool = False


def _cli(label, argv, check, **kw) -> Op:
    return Op(label=label, argv=[str(a) for a in argv], check=check, **kw)


def _mc_op(mode: str, n: int, samples: int, seed: int, workers: int = 1, fault=None) -> Op:
    key = f"{'hn' if mode == 'hn' else 'vol'}{n}"
    argv = ["mc", "--mode", mode, "--N", n, "--samples", samples, "--seed", seed]
    if mode == "hn":
        argv += ["--xi", XI]
    argv += ["--workers", workers]
    xi = XI if mode == "hn" else None
    if workers == 1:
        check = lambda out: ref.check_mc(out, mode, n, xi, samples)
        needs = None
    else:
        check = _repeat_check
        needs = f"mc {key} s={samples} w=1"
    return _cli(
        f"mc {key} s={samples} w={workers}",
        argv,
        check,
        fault=fault,
        mc=(key, samples, workers),
        needs=needs,
    )


def _measure_op(rng: random.Random, degree: int) -> Op:
    """A polynomial from known roots at radius 1.25..2 or its reciprocal,
    at angles spread round the circle, so roots stay apart and away from
    the unit circle."""
    offset = rng.uniform(0.0, 2.0 * math.pi)
    roots = []
    for k in range(degree):
        radius = rng.uniform(1.25, 2.0)
        if rng.random() < 0.5:
            radius = 1.0 / radius
        theta = offset + 2.0 * math.pi * (k + rng.uniform(-0.3, 0.3)) / degree
        roots.append(cmath.rect(radius, theta))
    lead = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))
    coeffs = ref.poly_from_roots(lead, roots)
    expected = ref.roots_measure(lead, roots)
    text = json.dumps([[c.real, c.imag] for c in coeffs])
    return _cli(
        f"measure deg{degree}",
        ["measure", "--coeffs", text],
        lambda out: ref.check_measure(out, expected),
    )


def _fault_measure(coeffs: list[int], expected: float, fault: str) -> Op:
    return _cli(
        f"measure {coeffs}",
        ["measure", "--coeffs", json.dumps(coeffs)],
        lambda out: ref.check_measure(out, expected),
        fault=fault,
    )


def _hn(n: int, xi: float | None = None) -> Op:
    argv = ["hn", "--N", n] + (["--xi", xi] if xi is not None else [])
    return _cli(f"hn N={n}", argv, lambda out: ref.check_hn(out, n, xi))


def _volume(n: int) -> Op:
    return _cli(f"volume N={n}", ["volume", "--N", n], lambda out: ref.check_volume(out, n))


def _verify_det(n: int) -> Op:
    return _cli(
        f"verify-det N={n}", ["verify-det", "--N", n], lambda out: ref.check_verify_det(out, n)
    )


def _rank_one(n: int) -> Op:
    return _cli(f"rank-one N={n}", ["rank-one", "--N", n], lambda out: ref.check_rank_one(out, n))


def _table(n: int) -> Op:
    return _cli(f"table N={n}", ["table", "--N", n], lambda out: ref.check_table(out, n))


def _jacobian(n: int, points: int, seed: int) -> Op:
    return _cli(
        f"jacobian-test N={n}",
        ["jacobian-test", "--N", n, "--points", points, "--seed", seed],
        lambda out: ref.check_jacobian(out, points),
    )


def _partial_fractions(rm, n: int) -> Op:
    return Op(
        label=f"partial_fractions N={n}",
        call=lambda: rm["exact"].partial_fractions(rm["spectral"].h_hat(n)),
        check=lambda res: ref.check_partial_fractions(res, n),
    )


MEASURE_DEGREES = range(2, 17)
SWEEP_PER_DEGREE = 8


def _small(ops: list[Op]) -> list[Op]:
    for op in ops:
        op.small = True
    return ops


def _sweep(rm, rng: random.Random) -> list[Op]:
    """One small call per subcommand and layer, and eight measure calls per
    degree, which make the small-call latencies a spread of values rather
    than a few lumps, so their quantiles do not jump from run to run."""
    return _small([
        _hn(2, XI),
        _volume(2),
        _verify_det(3),
        _rank_one(3),
        _partial_fractions(rm, 3),
        _jacobian(3, 5, rng.randrange(1 << 16)),
        _table(2),
    ] + [_measure_op(rng, d) for _ in range(SWEEP_PER_DEGREE) for d in MEASURE_DEGREES])


def _small_mc(mc_seed: int) -> list[Op]:
    """Small Monte Carlo calls of one chunk each, so the --workers 2 repeat
    shows the cost of the thread pool on a call too small to split."""
    return [
        _mc_op("hn", 2, 1 << 15, mc_seed),
        _mc_op("volume", 1, 1 << 16, mc_seed),
        _mc_op("volume", 1, 1 << 16, mc_seed, workers=2),
    ]


# Each workload returns (its own operations, the shared small calls).


def mc_box(rm, rng: random.Random, mc_seed: int) -> tuple[list[Op], list[Op]]:
    """Box-sampler estimators at 2^16-2^17 samples, and one --workers 2
    repeat, which splits its two chunks over two threads."""
    return [
        _mc_op("hn", 1, 1 << 16, mc_seed),
        _mc_op("hn", 2, 1 << 16, mc_seed),
        _mc_op("volume", 1, 1 << 16, mc_seed),
        _mc_op("volume", 2, 1 << 17, mc_seed),
        _mc_op("hn", 3, HN3_SAMPLES, HN3_SEED, fault=FAULT_MC_N3),
        _mc_op("volume", 2, 1 << 17, mc_seed, workers=2),
    ], _sweep(rm, rng)


# hn and volume up to N = 40; verify-det and rank-one up to 20; the
# partial fraction ladder stops at 16 because it enumerates every divisor of
# (N!)^2 (40 s at N = 20).
HN_LADDER = (2, 5, 10, 20, 30, 40)
DET_LADDER = (4, 8, 12, 16, 20)
PF_LADDER = (4, 8, 12, 16)


def exact_ladder(rm, rng: random.Random, mc_seed: int) -> tuple[list[Op], list[Op]]:
    ops = [_hn(n) for n in HN_LADDER] + [_volume(n) for n in HN_LADDER]
    for n in DET_LADDER:
        ops += [_verify_det(n), _rank_one(n)]
    ops += [_partial_fractions(rm, n) for n in PF_LADDER]
    return ops, _sweep(rm, rng) + _small_mc(mc_seed)


MEASURE_PER_DEGREE = 10


def single_calls(rm, rng: random.Random, mc_seed: int) -> tuple[list[Op], list[Op]]:
    ops = _small(
        [_measure_op(rng, d) for _ in range(MEASURE_PER_DEGREE) for d in MEASURE_DEGREES]
        + [
            _table(8),
            _fault_measure([0, 0, 1], 1.0, FAULT_ZERO_ROOTS),
            _fault_measure([1, -4, 6, -4, 1], 1.0, FAULT_ROOT_CLUSTER),
        ]
    )
    return ops, _sweep(rm, rng) + _small_mc(mc_seed)


WORKLOADS = {"mc-box": mc_box, "exact-ladder": exact_ladder, "single-calls": single_calls}


def warmup(rm) -> list[Op]:
    """Calls that touch every subcommand and layer once before timing."""
    return _sweep(rm, random.Random(0)) + _small_mc(MC_SEED)


def _interleave(a: list[Op], b: list[Op]) -> list[Op]:
    """Spread b evenly through a, keeping the order within each, so the
    shared small calls sample the whole round rather than its end."""
    keyed = [((i + 0.5) / len(a), 0, op) for i, op in enumerate(a)]
    keyed += [((j + 0.5) / len(b), 1, op) for j, op in enumerate(b)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def build(name: str, seed: int, rm) -> list[Op]:
    """The round of operations for one workload and seed."""
    ops = _interleave(*WORKLOADS[name](rm, random.Random(seed), MC_SEED))
    seen = set()
    for op in ops:
        if op.needs is not None and op.needs not in seen:
            raise ValueError(f"{op.label} needs {op.needs}, which does not run before it")
        seen.add(op.label)
    return ops


def _repeat_check(out: str, earlier: str) -> str | None:
    """The --workers 2 estimate is bit-identical to the one-worker one."""
    a = json.loads(out)["numeric_results"]["estimate"]
    b = json.loads(earlier)["numeric_results"]["estimate"]
    if a != b:
        return f"--workers 2 estimate {a} differs from --workers 1 estimate {b}"
    return None
