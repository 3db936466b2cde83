"""Command line contract: JSON report layout, exact round trips, exit
codes, and byte-identical reruns."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import recmahler
from recmahler import cli, exact, measure, montecarlo, spectral
from recmahler.cli import N_CAPS, run
from recmahler.errors import NoConvergence
from recmahler.exact import PiScaled, parse_pi_scaled, ratfun_eval_exact, ratfun_to_lists
from recmahler.spectral import (
    det_double_sum,
    det_ratfun,
    h_closed,
    h_eval,
    h_hat,
    i_matrix,
    volume_exact,
)

F = Fraction


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, argv):
    code, out, err = invoke(capsys, argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# measure


def test_measure_basic(capsys):
    code, rep, _ = invoke_json(
        capsys, ["measure", "--coeffs", "[[1,0],[2.5,0],[1,0]]"]
    )
    assert code == 0
    assert rep["command"] == "measure"
    assert rep["numeric_results"]["mahler_from_roots"] == pytest.approx(2.0, rel=1e-12)
    assert rep["numeric_results"]["mahler_quadrature"] == pytest.approx(2.0, rel=1e-7)
    assert rep["checks"][0]["name"] == "method-agreement"
    assert rep["checks"][0]["status"] == "pass"


def test_measure_accepts_plain_numbers(capsys):
    code, rep, _ = invoke_json(capsys, ["measure", "--coeffs", "[1, 2.5, 1]"])
    assert code == 0
    assert rep["numeric_results"]["mahler_from_roots"] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("coeffs", ["[5]", "[[3,4]]"])
def test_measure_of_a_nonzero_constant(capsys, coeffs):
    code, rep, _ = invoke_json(capsys, ["measure", "--coeffs", coeffs])
    assert code == 0
    assert rep["numeric_results"]["mahler_from_roots"] == 5.0
    assert rep["numeric_results"]["mahler_quadrature"] == pytest.approx(5.0, rel=1e-14)
    assert rep["numeric_results"]["root_residual"] == 0.0
    assert rep["checks"][0]["status"] == "pass"


def test_measure_coeffs_file_matches_inline(capsys, tmp_path):
    text = "[[1,0],[0,2],[1,0]]"
    _, out_inline, _ = invoke(capsys, ["measure", "--coeffs", text])
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    _, out_file, _ = invoke(capsys, ["measure", "--coeffs-file", str(path)])
    assert out_inline == out_file


def test_measure_failing_check_exits_one(capsys):
    # the computed roots of (1 - x)^4 are wrong, so they do not explain the
    # quadrature's values on the circle, and the check must fail loudly
    code, rep, _ = invoke_json(capsys, ["measure", "--coeffs", "[1, -4, 6, -4, 1]"])
    assert code == 1
    assert rep["checks"][0]["status"] == "fail"


def _gaussian_coeffs(degree, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return json.dumps([[x.real, x.imag] for x in c])


@pytest.mark.parametrize("degree", [64, 128, 384])
def test_measure_passes_random_vectors_whose_quadrature_has_not_converged(capsys, degree):
    """Random roots crowd the circle, so the 4096-node sum misses the root
    product by 3.9e-6 to 9.2e-4 on these vectors, yet equals Q_n of the
    roots."""
    for seed in range(5):
        code, rep, _ = invoke_json(capsys, ["measure", "--coeffs", _gaussian_coeffs(degree, seed)])
        assert code == 0, (seed, rep["checks"][0]["detail"])


def test_measure_passes_a_double_root_on_the_circle(capsys):
    """(1 + x)^2: the roots give the measure 1.0, which the quadrature
    misses by 3.4e-4 at 4096 nodes."""
    code, rep, _ = invoke_json(capsys, ["measure", "--coeffs", "[1, 2, 1]"])
    assert code == 0
    assert rep["numeric_results"]["mahler_from_roots"] == pytest.approx(1.0, rel=1e-12)


def test_measure_solves_the_roots_once(capsys, monkeypatch):
    calls = []
    solve = measure.aberth_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(measure, "aberth_batch", counted)
    code, rep, _ = invoke_json(capsys, ["measure", "--coeffs", "[1, 2.5, 1]"])
    assert code == 0
    assert len(calls) == 1
    assert rep["numeric_results"]["mahler_from_roots"] == measure.mahler_from_roots(
        [1, 2.5, 1]
    )


def test_measure_of_a_monomial(capsys):
    code, rep, _ = invoke_json(capsys, ["measure", "--coeffs", "[0,0,1]"])
    assert code == 0
    assert rep["numeric_results"]["mahler_from_roots"] == 1.0
    assert rep["numeric_results"]["mahler_quadrature"] == 1.0


def test_measure_rejects_bad_json(capsys):
    code, out, err = invoke(capsys, ["measure", "--coeffs", "not json"])
    assert code == 2
    assert "error" in err


def test_measure_rejects_zero_polynomial(capsys):
    code, _, err = invoke(capsys, ["measure", "--coeffs", "[0, 0]"])
    assert code == 2
    assert "error" in err


def test_measure_rejects_bad_entry(capsys):
    code, _, err = invoke(capsys, ["measure", "--coeffs", '[[1, 0], "x"]'])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "coeffs, entry",
    [("[true, 2.5, true]", "True"), ("[false, 1]", "False"), ("[[1, true], 2]", "[1, True]")],
)
def test_measure_rejects_json_booleans(capsys, coeffs, entry):
    """bool is an int subclass: [true, 2.5, true] was measured as
    1 + 2.5x + x^2 and reported 2.0."""
    code, out, err = invoke(capsys, ["measure", "--coeffs", coeffs])
    assert code == 2
    assert out == ""
    assert err == f"error: bad coefficient entry: {entry}\n"


# ---------------------------------------------------------------------------
# exact reports: hn, volume


def test_hn_report_round_trips_exact_values(capsys):
    code, rep, _ = invoke_json(capsys, ["hn", "--N", "1", "--xi", "1.5"])
    assert code == 0
    coeffs = rep["exact_results"]["h_coeffs"]
    parsed = {int(e): parse_pi_scaled(s) for e, s in coeffs.items()}
    assert parsed == h_closed(1).terms
    assert rep["exact_results"]["mellin_transform"] == ratfun_to_lists(h_hat(1))
    assert rep["numeric_results"]["h_value"] == pytest.approx(
        h_eval(1, 1.5), rel=1e-14
    )
    assert {c["name"] for c in rep["checks"]} == {
        "mellin-consistency",
        "vanishes-at-one",
    }
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_hn_builds_the_closed_form_once(capsys, monkeypatch):
    """The report's coefficients and its h_value come from one h_closed(N):
    the golden digest of this call pins the bytes."""
    calls = []

    def counted(n_order):
        calls.append(n_order)
        return h_closed(n_order)

    monkeypatch.setattr(spectral, "h_closed", counted)
    argv = ("hn", "--N", "12", "--xi", "1.5")
    code, out, _ = invoke(capsys, list(argv))
    assert code == 0
    assert calls == [12]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def test_hn_names_the_pole_where_the_closed_form_is_wrong(capsys, monkeypatch):
    """A wrong rho(N, 2) reaches h_closed but not h_hat's product: the Mellin
    check fails at s = 2 and the report prints no Mellin image."""
    rho = spectral.rho
    monkeypatch.setattr(
        spectral, "rho", lambda n_order, n: rho(n_order, n) * (F(2) if n == 2 else 1)
    )
    code, rep, _ = invoke_json(capsys, ["hn", "--N", "4"])
    assert code == 1
    assert rep["exact_results"]["mellin_transform"] is None
    check = rep["checks"][0]
    assert check["name"] == "mellin-consistency" and check["status"] == "fail"
    assert check["detail"].endswith("at s = 2")


def test_hn_never_expands_the_mellin_image(capsys, monkeypatch):
    def boom(g):
        raise AssertionError("hn called laurent_mellin")

    monkeypatch.setattr(exact, "laurent_mellin", boom)
    argv = ("hn", "--N", "12", "--xi", "1.5")
    code, out, _ = invoke(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def test_hn_without_xi_omits_value(capsys):
    code, rep, _ = invoke_json(capsys, ["hn", "--N", "3"])
    assert code == 0
    assert "h_value" not in rep["numeric_results"]


def _rounded_once(text: str) -> float:
    """A 'p/q * pi^k' value at 60 digits, turned back into an exact binary
    fraction that float() rounds once, subnormals included, then printed at
    15 digits as the reports print it."""
    c = parse_pi_scaled(text)
    with mpmath.workdps(60):
        sign, man, exp, _ = (c.coeff.numerator * mpmath.pi ** c.pi_power / c.coeff.denominator)._mpf_
    return float(f"{float((-1) ** sign * Fraction(man) * Fraction(2) ** exp):.15g}")


@pytest.mark.parametrize(
    "argv",
    [["hn", "--N", n] for n in ("12", "153")]
    + [["volume", "--N", n] for n in ("1", "2", "3", "91", "234", "500")],
)
def test_printed_floats_are_the_exact_values_rounded_once(capsys, argv):
    """math.pi ** k * coeff rounded twice, and underflowed in float(coeff):
    hn --N 153 printed 0.0 for 24 of its 306 coefficients."""
    _, rep, _ = invoke_json(capsys, argv)
    if argv[0] == "hn":
        terms = rep["exact_results"]["h_coeffs"]
        assert rep["numeric_results"]["coeffs"] == {e: _rounded_once(t) for e, t in terms.items()}
    else:
        assert rep["numeric_results"]["volume"] == _rounded_once(rep["exact_results"]["volume"])


def test_volume_report(capsys):
    code, rep, _ = invoke_json(capsys, ["volume", "--N", "2"])
    assert code == 0
    assert rep["exact_results"]["volume"] == "3/10 * pi^3"
    expect = float(f"{volume_exact(2).to_float():.15g}")
    assert rep["numeric_results"]["volume"] == expect
    assert rep["checks"][0]["status"] == "pass"


# ---------------------------------------------------------------------------
# verification subcommands


def test_verify_det(capsys):
    code, rep, _ = invoke_json(capsys, ["verify-det", "--N", "3"])
    assert code == 0
    assert rep["checks"][0]["name"] == "determinant-identity"
    assert rep["checks"][0]["status"] == "pass"
    assert rep["exact_results"]["determinant"] == rep["exact_results"]["product_form"]


def _tamper_entry(monkeypatch, j, k, change):
    true_maps = spectral.i_residue_maps

    def tampered(n):
        maps = true_maps(n)
        res = dict(maps[j - 1][k - 1])
        change(res)
        maps[j - 1][k - 1] = res
        return maps

    monkeypatch.setattr(spectral, "i_residue_maps", tampered)


def _assert_verify_det_names(capsys, entry):
    """A tampered moment matrix fails the factorization, so verify-det
    claims no determinant and names the entry where I != C^T D C."""
    code, rep, _ = invoke_json(capsys, ["verify-det", "--N", "4"])
    assert code == 1
    (check,) = rep["checks"]
    assert check["status"] == "fail"
    assert check["detail"] == f"factorization: I != C^T D C at (J, K) = {entry}"
    assert rep["exact_results"]["determinant"] is None
    assert rep["exact_results"]["product_form"] == ratfun_to_lists(spectral.h_product(4))


def test_verify_det_fails_on_a_scaled_entry(capsys, monkeypatch):
    """I[1][1] doubled: every entry stays a multiple of C^T D C's, but
    I[1][1] is not equal to it."""
    _tamper_entry(monkeypatch, 1, 1, lambda res: res.update({1: 2, -1: 2}))
    _assert_verify_det_names(capsys, (1, 1))


def test_verify_det_fails_on_an_entry_below_the_diagonal(capsys, monkeypatch):
    """I[3][1] one unit off at s = 1 while I[1][3] is right: the map built
    for the pair J <= K is held to both triangles."""
    _tamper_entry(monkeypatch, 3, 1, lambda res: res.update({1: res[1] + 1}))
    _assert_verify_det_names(capsys, (3, 1))


def test_a_wrong_expansion_of_c_fails_verify_det_and_rank_one(capsys, monkeypatch):
    """c_n(J) + 1 above the diagonal keeps C upper unitriangular, so only
    the moment matrix, taken from the integrand, can tell it from the true
    expansion: both commands fail the factorization and keep det C = 1."""
    true_coeff = spectral.coeff_c

    def wrong(n, j):
        return true_coeff(n, j) + (n < j and (j - n) % 2 == 0)

    monkeypatch.setattr(spectral, "coeff_c", wrong)
    code, rep, _ = invoke_json(capsys, ["verify-det", "--N", "6"])
    assert code == 1
    (check,) = rep["checks"]
    assert check["status"] == "fail"
    assert check["detail"].startswith("factorization: I != C^T D C at (J, K) = ")
    assert "unimodular C" not in check["detail"]
    code, rep, _ = invoke_json(capsys, ["rank-one", "--N", "6"])
    assert code == 1
    status = {c["name"]: c["status"] for c in rep["checks"]}
    assert status["factorization"] == "fail"
    assert status["unimodular C"] == "pass"


def _verify_det_determinant(capsys, n):
    code, rep, _ = invoke_json(capsys, ["verify-det", "--N", str(n)])
    assert code == 0
    return rep["exact_results"]["determinant"]


def test_verify_det_determinant_equals_det_ratfun_to_order_10(capsys):
    for n in range(1, 11):
        assert _verify_det_determinant(capsys, n) == ratfun_to_lists(det_ratfun(i_matrix(n)))


def test_verify_det_determinant_equals_double_sum_to_order_4(capsys):
    """The printed num/den lists and the double sum over the entries' values
    agree at 2N^2 - N + 1 half-integers.  Times L^N, L = prod (s - n) over
    the 2N poles, both are polynomials of degree <= 2N^2 - N, so this is a
    proof."""
    for n in range(1, 5):
        det = _verify_det_determinant(capsys, n)
        im = i_matrix(n)
        for k in range(2 * n * n - n + 1):
            s0 = F(2 * k + 1, 2)
            num = sum(F(c) * s0 ** i for i, c in enumerate(det["num"]))
            den = sum(F(c) * s0 ** i for i, c in enumerate(det["den"]))
            values = [[ratfun_eval_exact(e, s0) for e in row] for row in im]
            assert det_double_sum(values) == PiScaled(num / den, det["pi_power"])


def test_verify_entries(capsys):
    code, rep, _ = invoke_json(capsys, ["verify-entries", "--J", "1", "--K", "3"])
    assert code == 0
    assert rep["checks"][0]["status"] == "pass"
    assert len(rep["numeric_results"]["grid"]) == 4


def test_rank_one(capsys):
    code, rep, _ = invoke_json(capsys, ["rank-one", "--N", "4"])
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert len(rep["exact_results"]["psi"]) == 4


def test_jacobian_test(capsys):
    code, rep, _ = invoke_json(
        capsys, ["jacobian-test", "--N", "2", "--points", "3", "--seed", "0"]
    )
    assert code == 0
    assert rep["checks"][0]["status"] == "pass"
    assert len(rep["numeric_results"]["points"]) == 3


def test_mc_subcommand(capsys):
    code, rep, _ = invoke_json(
        capsys,
        ["mc", "--mode", "hn", "--N", "1", "--xi", "1.5", "--samples", "50000"],
    )
    assert code == 0
    assert abs(rep["numeric_results"]["z_score"]) <= 3.0
    assert rep["numeric_results"]["estimate"]["samples"] == 50000


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name}")


def test_mc_without_hits_reports_valid_json(capsys):
    """h_2(1.001) is about 7.9e-5 against a box of volume about 5.7e3, so
    10^4 samples expect 1.4e-4 hits."""
    code, out, _ = invoke(
        capsys,
        ["mc", "--mode", "hn", "--N", "2", "--xi", "1.001", "--samples", "10000", "--seed", "0"],
    )
    rep = json.loads(out, parse_constant=_no_constants)
    assert code == 1
    assert rep["numeric_results"]["estimate"]["mean"] == 0.0
    assert rep["numeric_results"]["z_score"] is None
    check = rep["checks"][0]
    assert check["status"] == "fail"
    assert "no sample hit the target set" in check["detail"]


def test_mc_at_xi_one_passes_without_hits(capsys):
    """h_N(1) = 0 exactly, so an estimate with no hit is right."""
    code, out, _ = invoke(
        capsys, ["mc", "--mode", "hn", "--N", "2", "--xi", "1", "--samples", "10000"]
    )
    rep = json.loads(out, parse_constant=_no_constants)
    assert code == 0
    assert rep["numeric_results"]["estimate"]["mean"] == 0.0
    assert rep["numeric_results"]["target"] == 0.0
    assert rep["numeric_results"]["z_score"] is None
    check = rep["checks"][0]
    assert check["status"] == "pass"
    assert "no sample hit the target set" in check["detail"]
    assert "exactly 0" in check["detail"]


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_mc_rejects_workers_below_one(capsys, workers):
    code, out, err = invoke(
        capsys, ["mc", "--mode", "volume", "--N", "1", "--workers", workers]
    )
    assert code == 2
    assert out == ""
    assert "workers" in err


@pytest.mark.parametrize("mode", [["volume"], ["hn", "--xi", "1.5"]])
def test_mc_reports_the_same_estimate_on_one_and_two_workers(capsys, mode):
    """100001 samples make a second chunk of 34465 rows, which ends in a
    partial block."""
    reports = []
    for workers in ("1", "2"):
        argv = ["mc", "--mode", *mode, "--N", "2", "--samples", "100001", "--workers", workers]
        code, rep, _ = invoke_json(capsys, argv)
        assert code == 0
        assert rep["inputs"].pop("workers") == int(workers)
        reports.append(rep)
    assert reports[0] == reports[1]


def test_mc_requires_xi_in_hn_mode(capsys):
    code, _, err = invoke(capsys, ["mc", "--mode", "hn", "--N", "1"])
    assert code == 2
    assert "xi" in err


def test_mc_rejects_xi_in_volume_mode(capsys):
    """The volume estimate is of {mu <= 1} whatever --xi says, so a given
    --xi is refused rather than echoed into the report's inputs."""
    code, out, err = invoke(capsys, ["mc", "--mode", "volume", "--N", "2", "--xi", "1.5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --xi ") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# table


def test_table_csv(capsys):
    code, out, _ = invoke(
        capsys,
        ["table", "--N", "1", "--start", "1.0", "--stop", "1.2", "--step", "0.1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,h_N"
    assert lines[1] == "1,0"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)
    assert len(lines) == 4


@pytest.mark.parametrize(
    "bounds, message",
    [
        (["--step", "0"], "--step must be positive"),
        (["--step", "-0.1"], "--step must be positive"),
        (["--start", "3", "--stop", "1"], "is below --start"),
        (["--step", "1e-9"], "more than 1000000 steps"),
        (["--stop", "inf"], "more than 1000000 steps"),
        (["--stop", "nan"], "more than 1000000 steps"),
        # an infinite step is positive, but would put NaN on the grid
        (["--step", "inf"], "--step must be finite"),
    ],
)
def test_table_rejects_empty_or_endless_grids(capsys, bounds, message):
    code, out, err = invoke(capsys, ["table", "--N", "1"] + bounds)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# process behavior


# sha256 of the stdout of reports whose bytes are pinned: the exact layer
# may change how it builds a value, never what the report prints
GOLDEN = {
    ("hn", "--N", "12", "--xi", "1.5"): "1eb45a913859409d5ec3a9a4f65f97f0da3d32fc8bd2196753837fff7d22f0f2",
    ("volume", "--N", "12"): "9fd1ed785637efbe003b3f29c4576e2fd49d229d6a3f57fb18a5bf6eb94227f8",
    ("verify-det", "--N", "6"): "ca14c01c7bf537116e715f5d66cb4eeca3a0f63e0430fc9eee1598171730dc6f",
    ("verify-det", "--N", "12"): "a3bef7ef7cc1a6e509f4dedd3023d9694535c93c3a6d21952d8d4dad676f7eec",
    ("verify-det", "--N", "20"): "475bdab15740895d1001c1e6d4be87e60c9ea5b56ac39b4df547adfb37f24601",
    ("rank-one", "--N", "8"): "329baaee724d076cd646fab6d680c77ea7539dc0e866c71bf71b9e52a7ec6a32",
    ("rank-one", "--N", "20"): "c3ba716112cac267d7a88eb76e3b9084f79c4525636df7b32dee3c2d3cd94ebf",
    ("rank-one", "--N", "64"): "d6036268aca884dc671778f96be41d04cd58cb5c89899b9d5d47fe2692c96777",
    ("verify-entries", "--J", "3", "--K", "5"): "84001ff5dcde81e979637a75b83ae1d52a60512074125300946f283012558499",
    ("table", "--N", "8"): "2f6a142dce81ec1ec9054d755ace81d6b8953b637eadd09afce40cdd64c4e0ac",
    ("jacobian-test", "--N", "3", "--points", "5", "--seed", "7"): "0f617633893970267ca1327a894f449272ccdeb453882afdebc1dfb830c18a3b",
    ("mc", "--mode", "volume", "--N", "2", "--samples", "70000", "--seed", "3", "--workers", "2"): "32efd2c1c1df99a84962d1ff45072e5c8ee49cc709a5b2e5d8789f062ac704eb",
    ("mc", "--mode", "hn", "--N", "2", "--xi", "1.5", "--samples", "70000", "--seed", "3"): "3f0faa62f47a028e88785bbe93abac65829ed2d48432be500f84e1030fd44de4",
    ("mc", "--mode", "volume", "--N", "1", "--samples", "70000", "--seed", "3", "--workers", "2"): "a5f44e901a7f1c02dcf7d1d62980efaea772afdc87ce6e96dac255db86a05767",
    ("mc", "--mode", "hn", "--N", "1", "--xi", "1.5", "--samples", "70000", "--seed", "3"): "23852ab7c2cb534cf28446e6099f4b1b0138ba6e45094bc13663868dc76adefb",
    ("measure", "--coeffs", "[1,-2,3.5,0.25,2]"): "f1cdf25267ea7a8a2e741b6e23bf1bb22d46be9dfc3eea6c0e732607add4ac82",
    ("measure", "--coeffs", "[[1,0.5],[0,-1],[2,0],[0.5,0.5],[-1,0],[3,1],[0.25,0],[1,-1],[0,2],[-0.5,0],[1.5,0],[0,0.75],[2,-1]]"): "a54fb0991783e47af0bd9e03eb8187391768c6f0fbc59513b02411d5760f6611",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_exact_reports_match_golden_digests(capsys, argv):
    code, out, _ = invoke(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


# the JSON of a degree-1 polynomial whose root is the first of 4096
# midpoint quadrature nodes, exp(2 pi i / 8192)
NODE_ON_ZERO = "[[-0.9999997058628822, -0.0007669903187427045], [1, 0]]"

# the JSON of 1 + x + ... + x^d, one degree above measure's cap
OVER_DEGREE_CAP = json.dumps([1] * (cli.DEGREE_CAP + 2))

# (exit status, sha256 of stderr) of one call per cause of exit 2 or 3: the
# error lines, and argparse's usage text, are pinned like the reports
ERROR_DIGESTS = {
    ("measure", "--coeffs", "not json"): (2, "2cab9e8f60323543ec735ac7935a5c2fb75d8d50cb04ee78e841224b53a67c83"),
    ("measure", "--coeffs", "[0, 0]"): (2, "40e3c057f770c1b426e2918fa6fc4d5a0671be9e7aebf855f8c25ff6d59e5ff0"),
    ("hn", "--N", "501"): (2, "7b41d46f7d05aed23964fb73af137e5d72ee351695bb581921d046eed5bd00c6"),
    ("volume", "--N", "501"): (2, "0a1fb7164be8b9017718cb426fd87ed655d8749e876008229b5fc0fa9ff2aa2c"),
    ("verify-det", "--N", "251"): (2, "f5ed316e02477df8b04e5c148c9256619cc0c03f3eb78d2bd7cd6dbcba4c7338"),
    ("rank-one", "--N", "201"): (2, "a65c308381e2a64c48438fd8b0072eeb22e69df0449fba603d062b728ebab72a"),
    ("mc", "--mode", "volume", "--N", "9"): (2, "93f51993722242ab364fdb72be06da9184512282edb742497a324b6b5f18e552"),
    ("mc", "--mode", "volume", "--N", "3"): (2, "d9398b6e30a6bbc263be73ea1d61bef24adbc1e29c3d161a806ab170b686bae9"),
    ("mc", "--mode", "hn", "--N", "3", "--xi", "1.5"): (2, "d9398b6e30a6bbc263be73ea1d61bef24adbc1e29c3d161a806ab170b686bae9"),
    ("table", "--N", "201"): (2, "7ec0e0b21bf102551296e64b39e11937ab633b3be6e631a05f9222c935965bea"),
    ("jacobian-test", "--N", "8"): (2, "9abddfee5af1f49a0a780ea07b945362c87f3890db61cba68f484badf6256403"),
    ("verify-entries", "--J", "216", "--K", "3"): (2, "030cf6a3c39904919837406dc13a8a607bea9f3e68207d017454359e3a867bfb"),
    ("verify-entries", "--J", "3", "--K", "216"): (2, "4b495f1c52502223ec149fb258374db8fda520852d4ae5d7e3ac07a13ee1603d"),
    ("verify-entries", "--J", "216", "--K", "216"): (2, "030cf6a3c39904919837406dc13a8a607bea9f3e68207d017454359e3a867bfb"),
    ("table", "--N", "1", "--step", "0"): (2, "0617a9f8e22cb93d1d5add660d93a0327722f7f4a0227dee2a80a25e66e37b5b"),
    ("table", "--N", "1", "--step", "inf"): (2, "71534b81d673565e01c932bcb62169eddc96043eeaa48dd283cf421ac7a6545f"),
    ("table", "--N", "1", "--start", "3", "--stop", "1"): (2, "c89de0da473423d4a00064543f5c302948b655f13d42ac135f0888458d8b2440"),
    ("table", "--N", "1", "--step", "1e-9"): (2, "47f9497b0048dbc786b15a1147096f250985bc02ced9232875fc0b819d77e343"),
    ("table", "--N", "1", "--stop", "nan"): (2, "47f9497b0048dbc786b15a1147096f250985bc02ced9232875fc0b819d77e343"),
    ("jacobian-test", "--seed", "-1"): (2, "8b12ff35e1b99dd3524fd21d5a39086f819dac931b0230683d558db7516fd16d"),
    ("mc", "--mode", "volume", "--N", "1", "--seed", "18446744073709551616"): (2, "9535a17c3dcc110d05ed76de7800b7d762a5334a61b1e8bc18f51d106df84e14"),
    ("measure", "--coeffs", "[1, 2]", "--tol", "-1"): (2, "98261cbc5b7c8bfccf4aef92a3bf51c58142a4049028821d4d5d15dd863bcc0d"),
    ("jacobian-test", "--N", "2", "--step", "0"): (2, "27f2273f1d52edf63cd6e7d41bce6ec9403a90741d962e6688deb673dfd82f9b"),
    ("jacobian-test", "--N", "2", "--step", "1e-320"): (2, "5ef7a98ec48dbe5f678bcc866f091edee3e9863e7ca7777a8db0b4286348d0fa"),
    ("jacobian-test", "--points", "0"): (2, "ae51eb34ace06da703b8750ff646ae4961aed637e6b14c60b4ccd963b7e99222"),
    ("jacobian-test", "--N", "-1"): (2, "16b5d634311ef1257c9e0a2eb8b419f8d29d849f01a3b0b9e43035405f97bb84"),
    ("jacobian-test", "--N", "0"): (2, "23b67e40120f3afcc9c835532c48a153f3668be25c35ff7c9ea2c1ad320b3305"),
    ("mc", "--mode", "hn", "--N", "1"): (2, "febdeffa2c44eacb850c57fc3e7d2b751c6662f8670958464df07e8626ca62b9"),
    ("mc", "--mode", "volume", "--N", "2", "--xi", "1.5"): (2, "af0e715437d475552fb9f9c98b7ed0da8aa0ea395e27682c809ecf53f41270d6"),
    ("frobnicate",): (2, "8b29fc449b921f6e62a83c71a811401eafa68cdf075a03085b40648ebca5e6a7"),
    ("hn", "--N", "200", "--xi", "30"): (3, "c30177026a95502bfe60b33db72354cf9f4fc8ac3745930b984029a1afd00b9f"),
    ("table", "--N", "200", "--start", "25", "--stop", "25.01"): (3, "5ee58f0cc94f5d8306ea4dd2e1e0ea8cd9412fc045cfdebcfade0b77cd8453a9"),
    ("measure", "--coeffs", "[1e10, 1, 1e-300]"): (3, "2b331ba9a0ad88fad5c187826d25a88d5b08492bc98fafb74a80b21a34da8f97"),
    ("measure", "--coeffs", NODE_ON_ZERO): (3, "581af9159c82cc624198efbb4a237188d856f197e0b54a4bc9193f801cf46b3e"),
    ("measure", "--coeffs", "[true, 2.5, true]"): (2, "3535a47ff9ff7c9937b6a4a317f13479651b7efc6255d059c031ef737887d684"),
    ("measure", "--coeffs", "[[1, true], 2]"): (2, "d24f72cc3be6f7fcc85cca68028656eb30488c023ca5b6ac0dcdf6233b013cfd"),
    ("measure", "--coeffs", OVER_DEGREE_CAP): (2, "b618a9a4dac73bd17333cefe6ab9d2f55e0de14b4baf197707c84a1ce4857dcf"),
    ("measure", "--coeffs", "[1, 2.5, 1]", "--nodes", "16"): (2, "6e663ec71efcdfcde15f29198d576169b0c8c4db95bf7f9376368d9c5a4b09ea"),
}


@pytest.mark.parametrize("argv", sorted(ERROR_DIGESTS))
def test_error_paths_match_golden_digests(capsys, monkeypatch, argv):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(capsys, list(argv))
    assert out == ""
    assert (code, hashlib.sha256(err.encode()).hexdigest()) == ERROR_DIGESTS[argv]


# arguments a subcommand requires besides --N
REQUIRED_ARGS = {"mc": ["--mode", "volume"]}


def test_mc_cap_is_the_box_sampler_limit():
    """cli writes the cap out so that its import loads no NumPy."""
    assert N_CAPS["mc"] == montecarlo.BOX_MAX_ORDER


@pytest.mark.parametrize("command", sorted(N_CAPS))
def test_order_above_the_cap_exits_two(capsys, command):
    cap = N_CAPS[command]
    argv = [command, "--N", str(cap + 1)] + REQUIRED_ARGS.get(command, [])
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --N {cap + 1} is above the cap of {cap} for {command}\n"


@pytest.mark.parametrize("flag", ["--J", "--K"])
def test_entry_index_above_the_cap_exits_two(capsys, flag):
    cap = cli.ENTRY_INDEX_CAP
    indices = {"--J": "3", "--K": "3", flag: str(cap + 1)}
    argv = ["verify-entries"] + [x for pair in indices.items() for x in pair]
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} {cap + 1} is above the cap of {cap} for verify-entries\n"


def test_entry_index_at_the_cap_passes(capsys):
    cap = str(cli.ENTRY_INDEX_CAP)
    code, out, _ = invoke(capsys, ["verify-entries", "--J", cap, "--K", cap])
    rep = json.loads(out, parse_constant=_no_constants)
    assert code == 0
    for row in rep["numeric_results"]["grid"]:
        assert math.isfinite(row["closed"]) and math.isfinite(row["quadrature"])


@pytest.mark.parametrize("command", ["hn", "volume", "verify-det", "rank-one"])
def test_order_at_the_cap_passes(capsys, command):
    """volume's float value overflowed above N = 617 before the cap."""
    code, rep, _ = invoke_json(capsys, [command, "--N", str(N_CAPS[command])])
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_degree_at_the_cap_passes(capsys):
    """3 + x^d at the cap: every root has modulus 3^(1/d), and both routes
    give the measure 3."""
    d = cli.DEGREE_CAP
    coeffs = json.dumps([3] + [0] * (d - 1) + [1])
    code, rep, _ = invoke_json(capsys, ["measure", "--coeffs", coeffs])
    assert code == 0
    assert len(rep["inputs"]["coeffs"]) == d + 1
    assert rep["numeric_results"]["mahler_quadrature"] == pytest.approx(3.0, rel=1e-12)


def test_degree_above_the_cap_exits_two_before_any_solve(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a polynomial above the degree cap")

    monkeypatch.setattr(measure, "find_roots", no_solve)
    monkeypatch.setattr(measure, "mahler_quadrature", no_solve)
    code, out, err = invoke(capsys, ["measure", "--coeffs", OVER_DEGREE_CAP])
    assert code == 2
    assert out == ""
    cap = cli.DEGREE_CAP
    assert err == f"error: degree {cap + 1} is above the cap of {cap} for measure\n"


@pytest.mark.parametrize("n, xi", [("2", "1e200"), ("2", "1e308"), ("1", "1e160")])
def test_overflowing_box_volume_exits_three(capsys, n, xi):
    """Unchecked, the box volume overflowed with a NumPy warning, every
    sample then failed, and the error blamed the root solve."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(
            capsys, ["mc", "--mode", "hn", "--N", n, "--xi", xi, "--samples", "10000"]
        )
    assert code == 3
    assert out == ""
    assert err == (
        f"error: Monte Carlo box volume at N = {n}, xi = {float(xi):.15g} overflows a double\n"
    )


def test_node_on_zero_exits_three(capsys):
    x0 = np.exp(2j * np.pi * (0.5 / 4096))
    coeffs = json.dumps([[-x0.real, -x0.imag], [1, 0]])
    code, out, err = invoke(capsys, ["measure", "--coeffs", coeffs])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "quadrature node" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "coeffs, ratio",
    [
        ("[1e10, 1, 1e-300]", "c_0/c_2"),
        ("[1, 0, 0, 0, 1e-320]", "c_0/c_4"),
        # the scaling by 2^-997 flushes the leading 1e-300 to 0
        ("[1e300, 1e-300]", "c_0/c_1"),
        ("[1e300, 1, 1e-300]", "c_0/c_2"),
    ],
)
def test_overflowing_coefficient_ratio_exits_three(capsys, coeffs, ratio):
    """c_0/c_d overflows, so the polynomial has no monic form in doubles:
    one typed error line, and no NumPy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, ["measure", "--coeffs", coeffs])
    assert code == 3
    assert out == ""
    assert err == f"error: coefficient ratio {ratio} overflows a double\n"


@pytest.mark.parametrize("scale", [1e308, 1e-320])
def test_measure_at_extreme_coefficient_scales(capsys, scale):
    """1 + x + x^2 times scale has measure scale: the circle values of the
    1e308 vector overflowed, and 1e-320 / 1e-320 overflowed in the monic
    ratios, though both measures are finite doubles."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, ["measure", "--coeffs", json.dumps([scale] * 3)])
    assert code == 0
    assert err == ""
    rep = json.loads(out, parse_constant=_no_constants)
    for route in ("mahler_from_roots", "mahler_quadrature"):
        assert rep["numeric_results"][route] == pytest.approx(scale, rel=1e-6)


@pytest.mark.parametrize(
    "argv",
    [
        ["hn", "--N", "2", "--xi", "inf"],
        ["hn", "--N", "2", "--xi", "nan"],
        ["mc", "--mode", "hn", "--N", "2", "--xi", "inf", "--samples", "10000"],
        ["measure", "--coeffs", "[1, NaN]"],
        ["measure", "--coeffs", "[1, [0, -Infinity]]"],
        ["measure", "--coeffs", "[1, 1e400]"],
        ["measure", "--coeffs", "[1, " + "9" * 400 + "]"],
        ["measure", "--coeffs", "[1, 2]", "--tol", "nan"],
        ["measure", "--coeffs", "[1, 2]", "--tol", "-1"],
        ["measure", "--coeffs", "[1, 2]", "--tol", "inf"],
        ["jacobian-test", "--N", "2", "--step", "nan"],
        ["jacobian-test", "--N", "2", "--step", "0"],
        ["jacobian-test", "--points", "-3"],
        ["jacobian-test", "--points", "0"],
        ["jacobian-test", "--seed", "-1"],
        ["mc", "--mode", "volume", "--N", "1", "--seed", str(2**64)],
        # positive and finite, but too small to move alpha: every rel_gap
        # would be NaN, behind NumPy warnings
        ["jacobian-test", "--N", "2", "--step", "1e-320"],
    ],
)
def test_non_finite_or_out_of_range_arguments_exit_two(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_no_convergence_exits_three(capsys, monkeypatch):
    def stalled(coeffs, tol):
        raise NoConvergence("residual 1.0e-03 above tolerance 1.0e-10")

    monkeypatch.setattr(measure, "find_roots", stalled)
    code, out, err = invoke(capsys, ["measure", "--coeffs", "[1, 2.5, 1]"])
    assert code == 3
    assert out == ""
    assert err == "error: residual 1.0e-03 above tolerance 1.0e-10\n"


@pytest.mark.parametrize(
    "argv, point",
    [
        (["hn", "--N", "200", "--xi", "100"], "N = 200, xi = 100"),
        # the true value is about 1e341
        (["hn", "--N", "200", "--xi", "30"], "N = 200, xi = 30"),
        # h_200 leaves the double range between xi = 24.7 and 24.8, so the
        # first grid point fails
        (["table", "--N", "200", "--start", "25", "--stop", "25.01"], "N = 200, xi = 25"),
    ],
)
def test_overflowing_h_value_exits_three(capsys, argv, point):
    code, out, err = invoke(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"error: h_N(xi) at {point} overflows a double\n"


def test_h_values_that_fit_a_double_are_printed(capsys, h_oracle):
    """xi^400 overflows a double from xi = 5.9, but h_200 stays finite up to
    xi = 24.7: these inputs exited 3 while their values fit in a double."""
    code, rep, _ = invoke_json(capsys, ["hn", "--N", "200", "--xi", "10"])
    assert code == 0
    assert rep["numeric_results"]["h_value"] == float(f"{h_oracle(200, 10.0):.15g}")
    assert 2.48e150 < h_oracle(200, 10.0) < 2.49e150
    code, out, _ = invoke(capsys, ["table", "--N", "200", "--start", "6", "--stop", "6.01"])
    assert code == 0
    assert out == f"xi,h_N\n6,{h_oracle(200, 6.0):.15g}\n6.01,{h_oracle(200, 6.01):.15g}\n"
    assert 3.14e60 < h_oracle(200, 6.0) < 3.15e60


def test_table_at_the_top_order_is_nonnegative_and_nondecreasing(capsys):
    """h_200 vanishes to order 200 at xi = 1 and increases: on the default
    grid the float sum this replaced printed 199 negative values of 201."""
    code, out, _ = invoke(capsys, ["table", "--N", "200"])
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert len(values) == 201
    assert all(v >= 0.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] == 0.0 and values[-1] > 0.0


def test_reports_are_byte_identical(capsys):
    argv = ["hn", "--N", "2", "--xi", "2.0"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second
    argv2 = ["measure", "--coeffs", "[[2,0],[0,1],[2,0]]"]
    _, a, _ = invoke(capsys, argv2)
    _, b, _ = invoke(capsys, argv2)
    assert a == b


def test_floats_are_printed_at_15_digits(capsys):
    """2 pi^2 / 3 = 6.5797362673929057...: the exact value rounded once, not
    2 / 3 * math.pi ** 2, which rounds to 6.5797362673929 at 15 digits."""
    _, rep, _ = invoke_json(capsys, ["volume", "--N", "1"])
    val = rep["numeric_results"]["volume"]
    assert val == 6.57973626739291


def _fresh_python(code, *args):
    """Run code with args in a new interpreter that imports this recmahler."""
    src = Path(recmahler.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_importing_the_package_leaves_mpmath_unloaded():
    """numpy is the only runtime dependency: mpmath serves the tests alone."""
    done = _fresh_python("import sys, recmahler, recmahler.cli; assert 'mpmath' not in sys.modules")
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_leaves_numpy_unloaded():
    """The exact subcommands compute with Fractions: NumPy and the numeric
    layers load only in the subcommands that call them."""
    done = _fresh_python("import sys, recmahler.cli; assert 'numpy' not in sys.modules")
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_loads_no_layer():
    """Each handler imports the layers it runs: building the parser loads
    errors alone, and no exact arithmetic."""
    done = _fresh_python(
        "import json, sys, recmahler.cli; recmahler.cli.build_parser(); "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('recmahler', 'fractions'))))"
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["recmahler", "recmahler.cli", "recmahler.errors"]


def _run_blocked(modules, argv):
    """Run the CLI on argv in a new interpreter where importing any of the
    modules fails."""
    block = "".join(f"sys.modules[{m!r}] = None; " for m in modules)
    script = f"import sys; {block}import recmahler.cli; sys.exit(recmahler.cli.run(sys.argv[1:]))"
    return _fresh_python(script, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["hn", "--N", "3", "--xi", "1.5"],
        ["volume", "--N", "2"],
        ["verify-det", "--N", "3"],
        ["verify-entries", "--J", "2", "--K", "3"],
        ["rank-one", "--N", "3"],
        ["table", "--N", "2", "--stop", "1.5", "--step", "0.1"],
    ],
)
def test_exact_subcommands_run_without_numpy(capsys, argv):
    """With NumPy blocked from import, each exact subcommand prints the bytes
    it prints in-process."""
    done = _run_blocked(["numpy"], argv)
    assert done.returncode == 0, done.stderr
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    assert done.stdout == out


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--coeffs", "[1, 2.5, 1]"],
        ["jacobian-test", "--N", "3", "--points", "2"],
    ],
)
def test_numeric_subcommands_run_without_the_exact_layer(capsys, argv):
    """With exact and spectral blocked from import, measure and jacobian-test
    print the bytes they print in-process."""
    done = _run_blocked(["recmahler.exact", "recmahler.spectral"], argv)
    assert done.returncode == 0, done.stderr
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    assert done.stdout == out


# every module a handler may import besides the CLI's own
HANDLER_IMPORTS = (
    "numpy",
    "fractions",
    "recmahler.exact",
    "recmahler.spectral",
    "recmahler.polynomials",
    "recmahler.measure",
    "recmahler.symfun",
    "recmahler.montecarlo",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("hn", "--N", "501"),
        ("verify-det", "--N", "251"),
        ("verify-entries", "--J", "216", "--K", "3"),
        ("jacobian-test", "--N", "8"),
        ("mc", "--mode", "volume", "--N", "3"),
        ("jacobian-test", "--seed", "-1"),
        ("frobnicate",),
    ],
)
def test_cap_and_usage_errors_exit_before_any_layer_loads(monkeypatch, argv):
    """With every layer blocked from import, a flag above its cap or a
    malformed command line still exits 2 with its pinned error lines."""
    monkeypatch.setenv("COLUMNS", "80")
    done = _run_blocked(HANDLER_IMPORTS, argv)
    assert done.stdout == ""
    digest = hashlib.sha256(done.stderr.encode()).hexdigest()
    assert (done.returncode, digest) == ERROR_DIGESTS[argv]


def test_unknown_command_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_argument_exits_two(capsys):
    assert run(["hn"]) == 2
    capsys.readouterr()


def test_parse_errors_leave_the_parser_reusable(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2.5, 1]", encoding="utf-8")
    both = ["measure", "--coeffs", "[1, 2.5, 1]", "--coeffs-file", str(path)]
    assert run(both) == 2
    assert run(["hn"]) == 2
    capsys.readouterr()
    code, rep, _ = invoke_json(capsys, ["measure", "--coeffs-file", str(path)])
    assert code == 0
    assert rep["inputs"]["nodes"] == 4096
    code, rep, _ = invoke_json(capsys, ["hn", "--N", "2"])
    assert code == 0
    assert rep["inputs"] == {"N": 2, "xi": None}
