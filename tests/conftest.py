"""Shared test configuration.

The acceptance module's tests are named test_cNN_*; their outcomes are
collected here and replayed as one PASS/FAIL line per criterion in the
terminal summary, so the acceptance verdict is readable at a glance even
in a long -v run.

It also provides h_oracle, the exact reference every h_N(xi) value is held
to bit for bit.
"""

import math
import re
from fractions import Fraction

import mpmath
import pytest

_ACCEPTANCE = {}
_PATTERN = re.compile(r"test_acceptance\.py::(test_c(\d+)_\w+)")


def pytest_runtest_logreport(report):
    m = _PATTERN.search(report.nodeid)
    if not m:
        return
    name, num = m.group(1), int(m.group(2))
    if report.when == "call":
        _ACCEPTANCE[num] = (report.outcome, name)
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE[num] = (report.outcome, name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        outcome, name = _ACCEPTANCE[num]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d}: {verdict}  ({name})")


def exact_h(n_order: int, xi: float) -> float:
    """h_N(xi) rounded once to a double: 0.0 below xi = 1, inf past the
    double range.

    It does not read h_closed.  With 2 rho(m) = (2 pi)^N C(2N, N+m) m^N
    (-1)^(N-m) / (2N)! and xi = p/q an exact dyadic, the sum of
    2 rho(m) (xi^(2m) + (-1)^N xi^(-2m)) over m = 1..N is (2 pi)^N times one
    fraction of integers.  That fraction times mpmath's pi^N at 60 digits
    is turned back into an exact binary fraction, which float() rounds once,
    subnormals included.
    """
    if xi < 1.0:
        return 0.0
    p, q = Fraction(xi).as_integer_ratio()
    n = n_order
    total = 0
    for m in range(1, n + 1):
        w = (-1) ** (n - m) * math.comb(2 * n, n + m) * m ** n
        up = p ** (2 * n + 2 * m) * q ** (2 * n - 2 * m)
        down = p ** (2 * n - 2 * m) * q ** (2 * n + 2 * m)
        total += w * (up + (-1) ** n * down)
    with mpmath.workdps(60):
        value = mpmath.mpf(2 ** n * total) / (math.factorial(2 * n) * (p * q) ** (2 * n))
        value *= mpmath.pi ** n
        if value == 0:
            return 0.0
        man, exp = value.man_exp
    try:
        return float(Fraction(man) * Fraction(2) ** exp)
    except OverflowError:
        return math.inf


@pytest.fixture
def h_oracle():
    return exact_h
