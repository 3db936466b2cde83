"""Command line front end.

Every subcommand (except the plain CSV `table`) prints one JSON report with
a fixed key layout:

    {"command": ..., "inputs": ..., "exact_results": ...,
     "numeric_results": ..., "checks": [{"name", "status", "detail"}, ...]}

Exact values are serialized as 'p/q * pi^k' strings or coefficient lists of
such rationals, so they can be parsed back without precision loss.  Floats
are printed with 15 significant digits.  Reports for identical invocations
are byte-identical: nothing in here depends on time, machine, or dict
iteration happenstance.

Only measure, mc and jacobian-test compute in floating point arrays: they
import NumPy and the numeric layers (measure, montecarlo, symfun) when they
run, and look their names up on those modules.  Importing this module loads
errors, exact and spectral alone, so hn, volume, verify-det, verify-entries,
rank-one and table run without NumPy.

Exit status: 0 when every check passed, 1 when any check failed (for
measure: the roots do not explain the polynomial's values on the circle),
2 for malformed arguments (among them a flag above its cap in _CAPS: an
order N above N_CAPS, which for mc is the box sampler's limit of 2, a
verify-entries index above ENTRY_INDEX_CAP; a measure coefficient vector
above DEGREE_CAP; a JSON true or false as a coefficient), 3 when a
computation on valid input failed (a root solve that did not converge or
whose coefficient ratio c_j/c_d overflows a double, a quadrature node on a
zero of the integrand, a float value of h_N(xi) or of a Monte Carlo box
volume that overflows a double).
Exits 2 and 3 print one `error:` line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ComputationFailed, RecMahlerError
from .exact import (
    PiScaled,
    laurent_to_map,
    num_den_lists,
    ratfun_eval_exact,
)
from .spectral import (
    c_matrix,
    factorization_checks,
    h_closed,
    h_eval,
    h_hat,
    h_values,
    hJK_closed,
    hJK_quadrature,
    i_residue_maps,
    mellin_residue_miss,
    omega_psi_check,
    power_over_pairs,
    volume_exact,
)

if TYPE_CHECKING:
    import numpy as np


def _fmt(value):
    """Round every float to 15 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _emit(args, sections: dict) -> int:
    """Print the report of a subcommand and return its exit status.

    sections holds the report keys the handler computed.  Any other key
    keeps its default: the parsed flags as inputs, empty results and checks.
    """
    report = {
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in ("command", "fn")},
        "exact_results": {},
        "numeric_results": {},
        "checks": [],
    }
    report.update(sections)
    print(json.dumps(_fmt(report), indent=2))
    return 0 if all(c["status"] == "pass" for c in report["checks"]) else 1


def _parse_coeff_vector(text: str) -> np.ndarray:
    import numpy as np

    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("expected a nonempty JSON array")
    out = []
    for item in data:
        parts = item if isinstance(item, list) and len(item) == 2 else [item]
        # bool is an int subclass, but JSON true and false are no numbers
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
            raise ValueError(f"bad coefficient entry: {item!r}")
        # json.loads accepts NaN, Infinity and integers beyond a double
        if not all(abs(x) <= sys.float_info.max for x in parts):
            raise ValueError(f"coefficient entry {item!r} is not a finite double")
        out.append(complex(*parts))
    return np.asarray(out, dtype=complex)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_measure(args) -> int:
    from . import measure

    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol:g}")
    if args.coeffs is not None:
        text = args.coeffs
    else:
        with open(args.coeffs_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    coeffs = _parse_coeff_vector(text)
    if coeffs.size - 1 > DEGREE_CAP:
        raise ValueError(f"degree {coeffs.size - 1} is above the cap of {DEGREE_CAP} for measure")
    nodes = measure.QUADRATURE_NODES
    rs = measure.find_roots(coeffs, args.tol)
    by_roots = rs.mahler(coeffs[-1])
    by_quad = measure.mahler_quadrature(coeffs, nodes)
    q_n = measure.jensen_quadrature(rs.roots, coeffs[-1], nodes)
    rel = abs(q_n - by_quad) / max(q_n, by_quad)
    return _emit(args, {
        "inputs": {
            "coeffs": [[c.real, c.imag] for c in coeffs],
            "nodes": nodes,
            "tol": args.tol,
        },
        "numeric_results": {
            "mahler_from_roots": by_roots,
            "mahler_quadrature": by_quad,
            "root_residual": rs.residual,
        },
        "checks": [
            _check(
                "method-agreement",
                rel <= 1e-6,
                f"quadrature vs |c_d| prod |1 + root^n|^(1/n) of the roots at "
                f"n = {nodes}: relative gap {rel:.3e}, tolerance 1e-06",
            )
        ],
    })


def _cmd_hn(args) -> int:
    n = args.N
    h = h_closed(n)
    miss = mellin_residue_miss(h, n)
    at_one = h.value_at_one()
    fit = "equals H_N(s)/(2s), exact" if miss is None else f"differs from H_N(s)/(2s) at s = {miss}"
    transform = None if miss is not None else num_den_lists(n, *power_over_pairs(n, n - 1))
    numeric = {"coeffs": {str(e): t.to_float() for e, t in h.terms.items()}}
    if args.xi is not None:
        numeric["h_value"] = h_values(n, [args.xi], h)[0]
    return _emit(args, {
        "exact_results": {
            "h_coeffs": {str(e): str(t) for e, t in h.terms.items()},
            "mellin_transform": transform,
        },
        "numeric_results": numeric,
        "checks": [
            _check(
                "mellin-consistency",
                miss is None,
                f"Mellin image of the closed form {fit}",
            ),
            _check(
                "vanishes-at-one",
                at_one.is_zero,
                f"h_N(1) = {at_one}, expected exact 0",
            ),
        ],
    })


def _cmd_volume(args) -> int:
    n = args.N
    vol = volume_exact(n)
    via_mellin = ratfun_eval_exact(h_hat(n), Fraction(n + 1)) * PiScaled(Fraction(2), 1)
    return _emit(args, {
        "exact_results": {"volume": str(vol)},
        "numeric_results": {"volume": vol.to_float()},
        "checks": [
            _check(
                "mellin-consistency",
                via_mellin == vol,
                "2 pi hhat_N(N+1) equals the closed product form, exact",
            )
        ],
    })


def _cmd_verify_det(args) -> int:
    """det I = prod_n d_n follows from I = C^T D C with det C = 1, so the
    report carries the product form as the determinant once both hold."""
    n = args.N
    failed = [
        f"{name}: {detail}"
        for name, ok, detail in factorization_checks(c_matrix(n), i_residue_maps(n))
        if not ok
    ]
    prod = num_den_lists(n, *power_over_pairs(n, n))
    return _emit(args, {
        "exact_results": {"determinant": None if failed else prod, "product_form": prod},
        "checks": [
            _check(
                "determinant-identity",
                not failed,
                "; ".join(failed)
                or "det of the moment matrix equals prod 2 pi s/(s^2 - n^2), exact",
            )
        ],
    })


def _cmd_verify_entries(args) -> int:
    j, k = args.J, args.K
    nodes = 4 * (j + k) + 16
    closed = hJK_closed(j, k)
    radii = [1.0, 1.1, 2.0, 5.0]
    rows = []
    worst = 0.0
    ok = True
    for r in radii:
        cv = closed.eval(r)
        qv = hJK_quadrature(j, k, r, nodes)
        gap = abs(cv - qv)
        tol = 1e-10 * (1.0 + abs(cv))
        ok = ok and gap <= tol
        worst = max(worst, gap / (1.0 + abs(cv)))
        rows.append({"r": r, "closed": cv, "quadrature": qv, "abs_gap": gap})
    return _emit(args, {
        "inputs": {"J": j, "K": k, "nodes": nodes},
        "exact_results": {"closed_form": laurent_to_map(closed)},
        "numeric_results": {"grid": rows},
        "checks": [
            _check(
                "quadrature-match",
                ok,
                f"worst scaled gap {worst:.3e}, tolerance 1e-10 * (1 + |value|)",
            )
        ],
    })


def _cmd_rank_one(args) -> int:
    rep = omega_psi_check(args.N)
    return _emit(args, {
        "exact_results": {"psi": [str(x) for x in rep.psi]},
        "checks": [
            _check(name, ok, detail + " (tolerance: exact)")
            for name, ok, detail in rep.checks
        ],
    })


def _cmd_jacobian_test(args) -> int:
    import numpy as np

    from . import symfun

    if args.N < 1:
        raise ValueError(f"--N must be at least 1, got {args.N}")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    if args.step is not None and not 0 < args.step < math.inf:
        raise ValueError(f"--step must be positive and finite, got {args.step:g}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    n = args.N
    rows = []
    ok_all = True
    produced = 0
    while produced < args.points:
        radius = rng.uniform(0.5, 2.0, size=n)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
        alpha = radius * np.exp(1j * angle)
        formula = symfun.jacobian_real_factor(alpha)
        if formula < 1e-6:
            continue  # too close to a critical point for a relative check
        produced += 1
        jac = symfun.numeric_jacobian(symfun.coefficient_map, alpha, args.step)
        fd = float(np.linalg.det(jac))
        rel = abs(fd - formula) / abs(formula)
        ok_all = ok_all and rel <= 1e-5
        rows.append({
            "alpha": [[a.real, a.imag] for a in alpha],
            "formula": formula,
            "finite_difference": fd,
            "rel_gap": rel,
        })
    return _emit(args, {
        "numeric_results": {"points": rows},
        "checks": [
            _check(
                "jacobian-agreement",
                ok_all,
                "finite differences vs closed determinant, tolerance 1e-05 relative",
            )
        ],
    })


def _cmd_mc(args) -> int:
    from . import montecarlo

    if args.mode == "hn":
        if args.xi is None:
            raise _Usage("--xi is required for --mode hn")
        est = montecarlo.mc_hN(args.N, args.xi, args.samples, args.seed, args.workers)
        target = h_eval(args.N, args.xi)
        target_str = "h_N(xi) closed form"
    else:
        if args.xi is not None:
            raise ValueError("--xi is only for --mode hn: --mode volume estimates {mu <= 1}")
        est = montecarlo.mc_volume(args.N, args.samples, args.seed, args.workers)
        target = volume_exact(args.N).to_float()
        target_str = "star body volume closed form"
    z = None
    if est.std_error > 0:
        z = (est.mean - target) / est.std_error
        passed = abs(z) <= 3.0
        detail = f"z = {z:.3f} against {target_str}, tolerance 3 sigma"
    elif est.mean == 0.0 and target == 0.0:
        # h_N(1) = 0, so an estimate without hits is right
        passed = True
        detail = (
            f"no sample hit the target set in {est.samples} samples, and "
            f"{target_str} is exactly 0"
        )
    else:
        passed = False
        detail = (
            f"no sample hit the target set in {est.samples} samples, so this "
            f"estimator cannot resolve {target_str} at N = {args.N}"
        )
    return _emit(args, {
        "numeric_results": {
            "estimate": {
                "mean": est.mean,
                "std_error": est.std_error,
                "samples": est.samples,
                "seed": est.seed,
                "region_volume": est.region_volume,
                "rejections": est.rejections,
            },
            "target": target,
            "z_score": z,
        },
        "checks": [
            _check("within-3-sigma", passed, detail)
        ],
    })


def _cmd_table(args) -> int:
    if not args.step > 0:
        raise ValueError(f"--step must be positive, got {args.step:g}")
    if args.stop < args.start:
        raise ValueError(f"--stop {args.stop:g} is below --start {args.start:g}")
    span = (args.stop - args.start) / args.step
    # the grid is held in memory so that a failed value prints no rows; the
    # negated test also rejects an infinite or NaN span
    if not span < TABLE_MAX_STEPS:
        raise ValueError(f"the grid has more than {TABLE_MAX_STEPS} steps")
    steps = int(round(span))
    grid = [args.start + i * args.step for i in range(steps + 1)]
    values = h_values(args.N, grid)
    print("xi,h_N")
    for xi, h in zip(grid, values):
        print(f"{xi:.15g},{h:.15g}")
    return 0


class _Usage(Exception):
    pass


# Largest order N each subcommand accepts, so that every accepted N
# finishes within about a second on 2 cores (mc at 10^4 samples, table on
# its default grid, 0.5 s at N = 200; hn --xi 1.5 takes 0.48 s at N = 500
# and 0.70 s at N = 550, volume 0.10 s at N = 500); volume's value
# overflows from N = 618.  verify-det takes 0.52 s and 132 MB peak RSS at
# N = 250, rank-one 0.44 s and 73 MB at N = 200 (0.77 s at verify-det
# N = 280, 0.76 s at rank-one N = 240), all in-process; the N(N + 1)/2
# residue maps set the memory.
# mc stops at the box sampler's own limit, montecarlo.BOX_MAX_ORDER = 2:
# from N = 3 the star body fills too small a share of the box (about 3e-8
# at N = 3) for any practical sample count to score a hit.  The value is
# written out because montecarlo imports NumPy, which the exact subcommands
# never load; a test holds the two equal.
# jacobian-test stops where central differences still resolve the 2N x 2N
# determinant to its 1e-5 tolerance: every seed from 0 to 99 passes at
# N = 7, and 6 of them fail at N = 8.
N_CAPS = {
    "hn": 500,
    "volume": 500,
    "verify-det": 250,
    "rank-one": 200,
    "mc": 2,
    "table": 200,
    "jacobian-test": 7,
}

# Largest J and K `verify-entries` accepts: the r = 5 value of the (J, K)
# entry overflows a double from J = K = 216, and J = K = 215 takes about
# 0.01 s on 2 cores.
ENTRY_INDEX_CAP = 215

# Largest degree `measure` accepts, checked once the coefficients are
# parsed.  Each Aberth sweep holds (1, d, d) complex temporaries, 16 d^2
# bytes, for up to 160 sweeps.  At d = 384 every tested family finished
# within 0.9 s on 2 cores (Gaussian coefficients 0.26 s; the unsolvable
# cluster (1 + x)^d, exit 3, 0.89 s); at d = 512 a real Gaussian vector
# took 2.0 s and the cluster 1.7 s.
DEGREE_CAP = 384

# Largest number of xi steps `table` accepts.
TABLE_MAX_STEPS = 10**6

# Every capped flag, by subcommand; run() checks them in this order.
_CAPS = {command: {"N": cap} for command, cap in N_CAPS.items()}
_CAPS["verify-entries"] = {"J": ENTRY_INDEX_CAP, "K": ENTRY_INDEX_CAP}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="recmahler",
        description=(
            "Exact and numeric engine for the distribution of Mahler "
            "measures of complex reciprocal polynomials."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="Mahler measure of a coefficient vector")
    g = m.add_mutually_exclusive_group(required=True)
    g.add_argument("--coeffs", help="JSON array of [re, im] pairs, ascending")
    g.add_argument("--coeffs-file", help="file containing the same JSON")
    m.add_argument("--tol", type=float, default=1e-10)
    m.set_defaults(fn=_cmd_measure)

    h = sub.add_parser("hn", help="closed distribution form h_N")
    h.add_argument("--N", type=int, required=True)
    h.add_argument("--xi", type=float, default=None)
    h.set_defaults(fn=_cmd_hn)

    v = sub.add_parser("volume", help="exact star body volume")
    v.add_argument("--N", type=int, required=True)
    v.set_defaults(fn=_cmd_volume)

    vd = sub.add_parser("verify-det", help="determinant identity, exact")
    vd.add_argument("--N", type=int, required=True)
    vd.set_defaults(fn=_cmd_verify_det)

    ve = sub.add_parser("verify-entries", help="entry quadrature cross-check")
    ve.add_argument("--J", type=int, required=True)
    ve.add_argument("--K", type=int, required=True)
    ve.set_defaults(fn=_cmd_verify_entries)

    ro = sub.add_parser("rank-one", help="rank-one kernel identity, exact")
    ro.add_argument("--N", type=int, required=True)
    ro.set_defaults(fn=_cmd_rank_one)

    jt = sub.add_parser("jacobian-test", help="finite differences vs formula")
    jt.add_argument("--N", type=int, default=2)
    jt.add_argument("--points", type=int, default=5)
    jt.add_argument("--seed", type=int, default=0)
    jt.add_argument("--step", type=float, default=None)
    jt.set_defaults(fn=_cmd_jacobian_test)

    mc = sub.add_parser("mc", help="Monte Carlo cross-checks")
    mc.add_argument("--mode", choices=("hn", "volume"), required=True)
    mc.add_argument("--N", type=int, required=True)
    mc.add_argument("--xi", type=float, default=None)
    mc.add_argument("--samples", type=int, default=100_000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--workers", type=int, default=1)
    mc.set_defaults(fn=_cmd_mc)

    t = sub.add_parser("table", help="CSV table of h_N on a xi grid")
    t.add_argument("--N", type=int, required=True)
    t.add_argument("--start", type=float, default=1.0)
    t.add_argument("--stop", type=float, default=3.0)
    t.add_argument("--step", type=float, default=0.01)
    t.set_defaults(fn=_cmd_table)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing leaves the parser as it was."""
    return build_parser()


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        for flag, cap in _CAPS.get(args.command, {}).items():
            value = getattr(args, flag)
            if value > cap:
                raise ValueError(f"--{flag} {value} is above the cap of {cap} for {args.command}")
        # mc and jacobian-test key a Philox generator with the seed
        if not 0 <= getattr(args, "seed", 0) < 2**64:
            raise ValueError(f"--seed {args.seed} is outside [0, 2^64)")
        return args.fn(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except ComputationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError, RecMahlerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
