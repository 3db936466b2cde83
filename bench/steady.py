"""Run one workload several times, each with another seed, and print every
end-to-end metric's median, quartiles and spread against its bound.

    python3 bench/steady.py --workload mc-box --runs 10 --first-seed 1

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4).  A metric is steady when its spread is
below a third of its bound in BENCHMARK.json.  The share of failed
operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        res = json.loads(last)
        results.append(res)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']} {values}", flush=True)

    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    ok = len(shares) == 1 and all(r["correct"] for r in results)
    print(f"failed share: {sorted(str(s) for s in shares)}")
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    for spec in declared["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        if spread < spec["bound"] / 3:
            verdict = "steady"
        elif spread <= spec["bound"]:
            verdict = "within bound, above a third"
        else:
            verdict = "TOO WIDE"
            ok = False
        print(f"{spec['name']:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{spec['bound']:>7}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
