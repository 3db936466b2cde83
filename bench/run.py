"""Run one benchmark workload of recmahler and print its metrics.

    python3 bench/run.py --workload mc-box --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  The workload's round of operations (see workloads.py) runs
whole, again and again, until --seconds have passed; each operation's
output is checked against closed forms computed by reference.py.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, prints the per-layer metrics and the tracing overhead, and
writes the spans and finer breakdowns to bench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; every metric name and unit comes from
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# NumPy starts OpenBLAS's thread pool on import.  On a shared 2-core host
# that start was half of NumPy's 0.14 s import, and it made setup_s swing
# from 0.16 to 0.28 s with the load on the other core.  recmahler makes one BLAS call (a small det in jacobian-test),
# so one BLAS thread costs its work nothing and keeps that noise out of
# setup_s.  Set before anything imports NumPy; the set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import recmahler.cli\n"
    "recmahler.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)
LAYER_MODULES = ("cli", "montecarlo", "measure", "spectral", "exact", "symfun", "polynomials")


class SetupProbe:
    """Times importing recmahler and building the CLI parser, each time in a
    fresh interpreter so nothing is cached in-process.

    Called between operations, it probes once every `seconds / SETUP_REPEATS`,
    so the probes sample the whole run.  On a shared 2-core host, nine probes
    taken back to back land in one few-second stretch of host load, and their
    median spread by 0.26 (Q3 - Q1 over the median) across ten runs."""

    def __init__(self, seconds: float):
        self.gap = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.last = -float("inf")

    def probe(self) -> None:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        self.times.append(float(done.stdout.strip()))
        self.last = time.perf_counter()

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= self.gap:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return statistics.median(self.times)


def load_package() -> dict:
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("recmahler")
    if Path(pkg.__file__).resolve().parent != SRC / "recmahler":
        raise ImportError(f"recmahler imported from {pkg.__file__}, not from {SRC}")
    modules = {"recmahler": pkg}
    for name in LAYER_MODULES:
        modules[name] = importlib.import_module(f"recmahler.{name}")
    return modules


def execute(op, cli) -> tuple[int, object, float]:
    """Run one operation; (exit code, stdout text or returned object, seconds)."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.run(op.argv)
            dt = time.perf_counter() - t0
        return code, out.getvalue(), dt
    t0 = time.perf_counter()
    result = op.call()
    return 0, result, time.perf_counter() - t0


def run_round(ops, modules, tracer, op_ids, records, between=None) -> tuple[float, dict]:
    """One pass over the round; appends (op, op id, seconds, failure or None)
    to records, calls `between` after each operation, and returns the summed
    operation time and the outputs."""
    outputs = {}
    wall = 0.0
    for op in ops:
        op_id = next(op_ids)
        # start each operation from a collected heap, as a fresh process
        # would, so its collector pauses do not depend on earlier work
        gc.collect()
        if tracer:
            tracer.begin_op(op_id)
        try:
            code, out, dt = execute(op, modules["cli"])
        except Exception as exc:  # a crash is this operation's failure
            code, out, dt = None, None, 0.0
            why = f"raised {type(exc).__name__}: {exc}"
        else:
            why = None if code == 0 else f"exit code {code}"
        if why is None:
            try:
                why = op.check(out, outputs[op.needs]) if op.needs else op.check(out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                why = f"unreadable output: {type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_op(op.label, why is not None)
        outputs[op.label] = out
        wall += dt
        records.append((op, op_id, dt, why))
        if between:
            between()
    return wall, outputs


def end_to_end(records, round_walls, outputs, setup_s) -> dict:
    lat_ms = [1e3 * dt for op, _, dt, _ in records if op.small]
    vigintiles = statistics.quantiles(lat_ms, n=20, method="inclusive")
    w1_samples = w1_secs = w2_samples = w2_secs = hn2_samples = hn2_secs = 0.0
    region = None
    for op, _, dt, _ in records:
        if op.mc is None:
            continue
        key, samples, workers = op.mc
        if workers == 1:
            w1_samples += samples
            w1_secs += dt
        else:
            w2_samples += samples
            w2_secs += dt
        if key == "hn2":
            hn2_samples += samples
            hn2_secs += dt
            region = json.loads(outputs[op.label])["numeric_results"]["estimate"]["region_volume"]
    # the exact hit rate, closed form over the sampled box's volume, so the
    # projection does not carry the noise of one seed's hit count
    p = float(reference.h_value(2, workloads.XI)) / region
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(round_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mc_samples_per_s": w1_samples / w1_secs,
        "mc_samples_per_s_w2": w2_samples / w2_secs,
        "mc_s_to_1pct": (1 - p) / (p * 1e-4) / (hn2_samples / hn2_secs),
        "op_ms_p50": vigintiles[9],
        "op_ms_p95": vigintiles[18],
    }


def summarize(records, stream) -> None:
    by_label = {}
    for op, _, dt, why in records:
        entry = by_label.setdefault(op.label, [[], 0, op.fault, None])
        entry[0].append(dt)
        if why is not None:
            entry[1] += 1
            entry[3] = why
    for label, (dts, nfail, fault, why) in by_label.items():
        line = f"  {label:<32} n={len(dts):<5} median {1e3 * statistics.median(dts):10.3f} ms"
        if nfail:
            line += f"  failed {nfail}: {why}" + (f"  [fault: {fault}]" if fault else "")
        print(line, file=stream)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "recmahler" / "__init__.py").is_file():
        print(f"error: no recmahler source under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # set-up is an end-to-end metric, so the traced run does not probe it
    setup = None if args.trace else SetupProbe(args.seconds)
    modules = load_package()
    ops = workloads.build(args.workload, args.seed, modules)
    tracer = tracing.Tracer(modules) if args.trace else None
    gc.collect()
    gc.freeze()  # the package and the inputs stay out of every collection

    records, walls, traced_walls = [], [], []
    warm_records, traced_records = [], []
    op_ids = iter(range(1, 1 << 62))
    start = time.perf_counter()
    # fill lazy imports and first-call caches; checked, not timed or counted
    run_round(workloads.warmup(modules), modules, None, op_ids, warm_records, setup)
    rounds = 0
    least = 2 if args.trace else 1
    while time.perf_counter() - start < args.seconds or len(walls) + len(traced_walls) < least:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        if traced:
            tracer.install()
            try:
                wall, outputs = run_round(ops, modules, tracer, op_ids, traced_records)
            finally:
                tracer.remove()
            traced_walls.append(wall)
        else:
            wall, outputs = run_round(ops, modules, None, op_ids, records, setup)
            walls.append(wall)
        rounds += 1

    all_records = records + traced_records
    failures = [(op, why) for op, _, _, why in all_records if why is not None]
    unexpected = [(op, why) for op, _, _, why in warm_records + all_records
                  if why is not None and op.fault is None]
    for op, why in unexpected[:5]:
        print(f"error: {op.label}: {why}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations")
    summarize(all_records, sys.stdout)

    if args.trace:
        failed_ops = {op_id for _, op_id, _, why in traced_records if why is not None}
        metrics, breakdown = tracing.layer_figures(tracer.spans, len(traced_walls), failed_ops)
        untraced, traced_med = statistics.median(walls), statistics.median(traced_walls)
        metrics["trace.overhead_s"] = traced_med - untraced
        metrics["trace.overhead_pct"] = 100.0 * (traced_med - untraced) / untraced
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem.with_suffix(".spans.jsonl"))
        stem.with_suffix(".summary.json").write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "untraced_wall_s": walls,
                    "traced_wall_s": traced_walls,
                    "metrics": metrics,
                    "breakdown": breakdown,
                },
                indent=1,
            ),
            encoding="utf-8",
        )
        spec = declared["per_layer"]
    else:
        metrics = end_to_end(records, walls, outputs, setup.median())
        spec = declared["end_to_end"]

    names = [m["name"] for m in spec]
    if set(names) != set(metrics):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    result = {
        "correct": not unexpected,
        "attempted": len(all_records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
