"""Spans around the calls into each recmahler layer, recorded from outside.

The tracer swaps module attributes for timing wrappers.  A function is
wrapped in every recmahler module that holds it, so a name a caller imported
into its own namespace (cli's find_roots, montecarlo's aberth_batch) is
timed where that caller looks it up.  Spans are kept in memory as tuples
(id, name, start, end, parent, op, attrs) and written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


def _rows_deg(args, kwargs, result):
    coeffs = args[0] if args else kwargs["coeffs"]
    return {"rows": coeffs.shape[0], "deg": coeffs.shape[1] - 1}


def _mc(prefix):
    def attrs(args, kwargs, est):
        n = args[0] if args else kwargs["n_order"]
        p = est.mean / est.region_volume
        return {
            "key": f"{prefix}{n}",
            "samples": est.samples,
            "hits": round(p * est.samples),
            "rejections": est.rejections,
        }

    return attrs


def _order(args, kwargs, result):
    return {"N": args[0] if args else kwargs["n_order"]}


def _grade(args, kwargs, result):
    return {"N": args[0].pi_power}


def _size(args, kwargs, result):
    return {"N": args[0].size}


def _sub(args, kwargs, result):
    return {"sub": args[0][0]}


# (module, function, attribute extractor or None)
TARGETS = (
    ("cli", "run", _sub),
    ("montecarlo", "mc_hN", _mc("hn")),
    ("montecarlo", "mc_volume", _mc("vol")),
    ("measure", "aberth_batch", _rows_deg),
    ("measure", "find_roots", None),
    ("measure", "mahler_from_roots", None),
    ("measure", "mahler_quadrature", None),
    ("spectral", "h_eval", None),
    ("spectral", "h_closed", None),
    ("spectral", "h_product", None),
    ("spectral", "hJK_closed", None),
    ("spectral", "hJK_quadrature", None),
    ("spectral", "h_hat", _order),
    ("spectral", "i_matrix", _order),
    ("spectral", "det_ratfun", _size),
    ("spectral", "omega_psi_check", _order),
    ("spectral", "volume_exact", None),
    ("exact", "laurent_mellin", _grade),
    ("exact", "partial_fractions", _grade),
    ("exact", "ratfun_eval_exact", None),
    ("exact", "ratfun_to_lists", None),
    ("symfun", "numeric_jacobian", None),
    ("symfun", "jacobian_real_factor", None),
    ("symfun", "coefficient_map", None),
    ("polynomials", "from_roots", None),
)

OP = "op"


class Tracer:
    """Collects spans while installed; `modules` maps short name -> module."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._op = None
        self._op_start = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the call that started it
        return self._main_stack[-1] if self._main_stack else None

    def _wrap(self, name, fn, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer.spans.append((sid, name, t0, time.perf_counter(), parent, tracer._op, None))
                raise
            t1 = time.perf_counter()
            stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            tracer.spans.append((sid, name, t0, t1, parent, tracer._op, attrs))
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        sid = next(self._ids)
        self._main_stack.append(sid)
        self._op_start = (sid, time.perf_counter())

    def end_op(self, label: str, failed: bool) -> None:
        sid, t0 = self._op_start
        self._main_stack.pop()
        self.spans.append(
            (sid, OP, t0, time.perf_counter(), None, self._op, {"label": label, "failed": failed})
        )
        self._op = None

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Swap every target for its wrapper in every module that holds it."""
        for mod_name, fn_name, attrs_fn in TARGETS:
            fn = getattr(self.modules[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, attrs_fn)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op, attrs in self.spans:
                row = {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "op": op}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# deriving layer figures from spans


def _covered(t0: float, t1: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [t0, t1] covered by the union of the intervals."""
    total, reach = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - _covered(t0, t1, children.get(sid, []))
        for sid, _, t0, t1, _, _, _ in spans
    }


def layer_figures(spans: list[tuple], rounds: int, failed_ops: set[int]) -> tuple[dict, dict]:
    """(metrics, breakdown): per-layer metrics over `rounds` traced rounds,
    and finer figures by N, estimator and subcommand for the trace file."""
    selft = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def total(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def per_call_us(name):
        calls = by_name[name]
        return 1e6 * total(name) / len(calls) if calls else 0.0

    m: dict[str, float] = {}

    # measure: the batch figures count the Monte Carlo batches only, apart
    # from the batches of one that find_roots runs for a measure call
    mc_spans = by_name["montecarlo.mc_hN"] + by_name["montecarlo.mc_volume"]
    mc_ids = {s[0] for s in mc_spans}
    rows, secs = defaultdict(int), defaultdict(float)
    one_rows, one_secs = defaultdict(int), defaultdict(float)
    mc_batches = 0
    for s in by_name["measure.aberth_batch"]:
        in_mc = s[4] in mc_ids
        mc_batches += in_mc
        if s[6]:
            (rows if in_mc else one_rows)[s[6]["deg"]] += s[6]["rows"]
            (secs if in_mc else one_secs)[s[6]["deg"]] += s[3] - s[2]
    for d in (2, 4, 6):
        m[f"measure.aberth_batch.us_per_poly.deg{d}"] = 1e6 * secs[d] / rows[d] if d in rows else 0.0
    m["measure.aberth_batch.calls"] = mc_batches / rounds
    for fn in ("find_roots", "mahler_from_roots", "mahler_quadrature"):
        m[f"measure.{fn}.us_per_call"] = per_call_us(f"measure.{fn}")
    op_sub = {
        s[5]: s[6]["sub"]
        for s in by_name["cli.run"]
        if s[6] and s[5] not in failed_ops
    }
    measure_ops = [op for op, sub in op_sub.items() if sub == "measure"]
    roots_in_measure = sum(1 for s in by_name["measure.find_roots"] if op_sub.get(s[5]) == "measure")
    m["measure.find_roots.calls_per_measure_op"] = (
        roots_in_measure / len(measure_ops) if measure_ops else 0.0
    )

    # montecarlo
    samples = sum(s[6]["samples"] for s in mc_spans if s[6])
    m["montecarlo.self_us_per_sample"] = (
        1e6 * sum(selft[s[0]] for s in mc_spans) / samples if samples else 0.0
    )
    hits, drawn, mc_secs = defaultdict(int), defaultdict(int), defaultdict(float)
    for s in mc_spans:
        if s[6]:
            hits[s[6]["key"]] += s[6]["hits"]
            drawn[s[6]["key"]] += s[6]["samples"]
            mc_secs[s[6]["key"]] += s[3] - s[2]
    rates = {k: hits[k] / drawn[k] for k in drawn}
    m["montecarlo.hit_rate.hn2"] = rates.get("hn2", 0.0)
    m["montecarlo.hit_rate.vol1"] = rates.get("vol1", 0.0)
    p = rates.get("hn2", 0.0)
    m["montecarlo.samples_for_1pct.hn2"] = (1 - p) / (p * 1e-4) if p > 0 else 0.0
    m["montecarlo.rejections"] = sum(s[6]["rejections"] for s in mc_spans if s[6]) / rounds

    # spectral, exact, symfun, polynomials
    m["spectral.h_eval.us_per_call"] = per_call_us("spectral.h_eval")
    h_eval_ids = {s[0] for s in by_name["spectral.h_eval"]}
    inner = sum(1 for s in by_name["spectral.h_closed"] if s[4] in h_eval_ids)
    m["spectral.h_closed.calls_per_h_eval"] = inner / len(h_eval_ids) if h_eval_ids else 0.0
    for fn in ("i_matrix", "det_ratfun", "omega_psi_check", "h_hat"):
        m[f"spectral.{fn}.ms"] = 1e3 * total(f"spectral.{fn}") / rounds
    for fn in ("laurent_mellin", "partial_fractions", "ratfun_eval_exact"):
        m[f"exact.{fn}.ms"] = 1e3 * total(f"exact.{fn}") / rounds
    m["symfun.numeric_jacobian.us_per_call"] = per_call_us("symfun.numeric_jacobian")
    m["symfun.jacobian_real_factor.us_per_call"] = per_call_us("symfun.jacobian_real_factor")
    m["polynomials.from_roots.us_per_call"] = per_call_us("polynomials.from_roots")

    # cli self time by subcommand, and every layer's self time
    cli_self, cli_calls = defaultdict(float), defaultdict(int)
    for s in by_name["cli.run"]:
        if s[6]:
            cli_self[s[6]["sub"]] += selft[s[0]]
            cli_calls[s[6]["sub"]] += 1
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.self_ms.{sub}"] = 1e3 * cli_self[sub] / cli_calls[sub] if cli_calls[sub] else 0.0
    layer_self = defaultdict(float)
    for s in spans:
        if s[1] != OP:
            layer_self[s[1].split(".")[0]] += selft[s[0]]
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = 1e3 * layer_self[layer] / rounds

    # breakdowns that exist on some workloads only
    by_n = defaultdict(lambda: defaultdict(float))
    for name in (
        "exact.laurent_mellin",
        "exact.partial_fractions",
        "spectral.i_matrix",
        "spectral.det_ratfun",
        "spectral.omega_psi_check",
        "spectral.h_hat",
    ):
        for s in by_name[name]:
            by_n[name][f"N{s[6]['N']}"] += 1e3 * (s[3] - s[2]) / rounds
    breakdown = {
        "ms_by_N": {k: dict(v) for k, v in by_n.items()},
        "hit_rate": rates,
        "mc_us_per_sample": {k: 1e6 * mc_secs[k] / drawn[k] for k in sorted(drawn)},
        "aberth_us_per_poly": {f"deg{d}": 1e6 * secs[d] / rows[d] for d in sorted(rows)},
        "aberth_us_per_poly_batch_of_one": {
            f"deg{d}": 1e6 * one_secs[d] / one_rows[d] for d in sorted(one_rows)
        },
        "cli_self_ms": {k: 1e3 * cli_self[k] / cli_calls[k] for k in sorted(cli_calls)},
    }
    return m, breakdown


CLI_SUBCOMMANDS = ("measure", "hn", "volume", "verify-det", "rank-one", "jacobian-test", "table", "mc")
LAYERS = ("cli", "montecarlo", "measure", "spectral", "exact", "symfun", "polynomials")
