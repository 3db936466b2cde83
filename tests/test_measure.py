"""Mahler measure engine: batched root finding, the Jensen product form,
log-integral quadrature, and the two reciprocal measures."""

import warnings

import numpy as np
import pytest

from recmahler import measure, montecarlo
from recmahler.errors import (
    DegenerateLeadingCoefficient,
    NoConvergence,
    NodeOnZero,
    ZeroPolynomial,
)
from recmahler.measure import (
    aberth_batch,
    find_roots,
    jensen_quadrature,
    mahler_from_roots,
    mahler_quadrature,
    mu_rec,
    mu_rec_batch,
    nu_rec,
)
from recmahler.polynomials import lambda_embed, RecipLaurent
from recmahler.symfun import pair_basis


def random_poly(rng, degree):
    c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    while abs(c[-1]) < 0.1:
        c[-1] = rng.normal() + 1j * rng.normal()
    return c


def circle_distance(coeffs) -> float:
    return float(np.min(np.abs(np.abs(find_roots(coeffs).roots) - 1.0)))


# ---------------------------------------------------------------------------
# root finding


def test_find_roots_frozen_quadratic():
    rs = find_roots([2.0, -5.0, 2.0])
    assert np.allclose(rs.roots, [0.5, 2.0], atol=1e-12)
    assert rs.residual <= 1e-10


def test_find_roots_sorted_deterministically():
    rs = find_roots([-1.0, 0.0, 0.0, 0.0, 1.0])  # x^4 - 1
    expect = np.array([-1.0, -1.0j, 1.0j, 1.0])  # by (real, imag)
    assert np.allclose(rs.roots, expect, atol=1e-10)
    rs2 = find_roots([-1.0, 0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(rs.roots, rs2.roots)


def test_find_roots_input_errors():
    with pytest.raises(ZeroPolynomial):
        find_roots([0.0, 0.0])
    constant = find_roots([3.0])
    assert constant.roots.size == 0 and constant.residual == 0.0
    with pytest.raises(DegenerateLeadingCoefficient):
        find_roots([1.0, 2.0, 0.0])
    with pytest.raises(ValueError, match="^coefficient c_1 = "):
        find_roots([1.0, np.nan, 1.0])
    with pytest.raises(ValueError, match="^coefficient c_0 = "):
        find_roots([complex(1.0, np.inf), np.nan, 1.0])


def test_find_roots_residual_bound_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        c = random_poly(rng, int(rng.integers(1, 13)))
        assert find_roots(c).residual <= 1e-10


def test_aberth_batch_handles_mixed_rows():
    rng = np.random.default_rng(22)
    coeffs = np.stack([random_poly(rng, 6) for _ in range(32)])
    roots, residual, ok = aberth_batch(coeffs)
    assert roots.shape == (32, 6)
    assert bool(np.all(ok))
    assert float(residual.max()) <= 1e-10


def test_find_roots_strips_zero_roots():
    rs = find_roots([0, 0, 1])
    assert np.array_equal(rs.roots, np.zeros(2, dtype=complex))
    assert rs.residual == 0.0
    # x^3 (2 - 3x): three exact zeros and 2/3, in (real, imag) order
    rs = find_roots([0, 0, 0, 2, -3])
    assert np.array_equal(rs.roots[:3], np.zeros(3, dtype=complex))
    assert rs.roots[3] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert rs.residual <= 1e-10
    rs = find_roots([0, -1, 0, 1])  # x (x^2 - 1)
    assert np.allclose(rs.roots, [-1.0, 0.0, 1.0], atol=1e-14)


def test_mahler_from_roots_with_zero_roots():
    assert mahler_from_roots([0, 0, 1]) == 1.0
    assert mahler_from_roots([0, 0, 0, 2, -3]) == pytest.approx(3.0, rel=1e-14)


def from_known_roots(rng, degree):
    """lead * prod (x - root) with roots at radius 1.25..2 or its inverse,
    spread round the circle so they stay apart and off the circle."""
    radius = rng.uniform(1.25, 2.0, size=degree)
    radius = np.where(rng.random(degree) < 0.5, 1.0 / radius, radius)
    theta = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * (
        np.arange(degree) + rng.uniform(-0.3, 0.3, size=degree)
    ) / degree
    roots = radius * np.exp(1j * theta)
    lead = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
    return lead * np.poly(roots)[::-1], lead, roots


@pytest.mark.parametrize("degree", range(2, 17))
def test_find_roots_recovers_known_roots(degree):
    coeffs, lead, roots = from_known_roots(np.random.default_rng(60 + degree), degree)
    found = find_roots(coeffs).roots
    gaps = np.abs(found[:, None] - roots[None, :])
    # one found root next to each known root, and no two alike
    assert sorted(np.argmin(gaps, axis=0)) == list(range(degree))
    assert float(np.max(np.min(gaps, axis=0))) <= 1e-12
    expect = abs(lead) * np.prod(np.maximum(1.0, np.abs(roots)))
    assert mahler_from_roots(coeffs) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("degree", [2, 5, 9, 16])
def test_find_roots_match_the_circle_started_batch(degree):
    """The companion eigenvalues only place the start: Aberth, polish and
    gate are the batch kernel's, so the roots agree with a circle start."""
    coeffs, _, _ = from_known_roots(np.random.default_rng(80 + degree), degree)
    circle = aberth_batch(coeffs[None, :])[0][0]
    circle = circle[np.lexsort((circle.imag, circle.real))]
    found = find_roots(coeffs).roots
    assert np.all(np.abs(found - circle) <= 1e-12 * np.maximum(1.0, np.abs(circle)))


def test_find_roots_needs_few_aberth_sweeps(monkeypatch):
    """Each Aberth sweep evaluates p and p' once; the Newton polish takes 6
    evaluations and the residual 2, so 3 sweeps make 14."""
    coeffs, _, _ = from_known_roots(np.random.default_rng(90), 16)
    calls = []
    horner = measure._horner_batch

    def counted(*args):
        calls.append(1)
        return horner(*args)

    monkeypatch.setattr(measure, "_horner_batch", counted)
    find_roots(coeffs)
    assert len(calls) <= 2 * 3 + 6 + 2
    calls.clear()
    aberth_batch(coeffs[None, :])
    assert len(calls) > 2 * 3 + 6 + 2  # the circle start needs more


@pytest.mark.parametrize(
    "coeffs", [[1, 1, 1e-300], [1, 0, 0, 1e-300], [1, 2, 3, 1e-300], [1e10, 1, 1e-300]]
)
def test_find_roots_with_a_tiny_lead_solves_or_fails_typed(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rs = find_roots(coeffs)
        except NoConvergence:
            return
    assert rs.residual <= 1e-10


@pytest.mark.parametrize(
    "eigvals",
    [
        np.linalg.LinAlgError("Array must not contain infs or NaNs"),
        np.array([np.nan, 1.0, 2.0]),
        np.array([0.0, 0.0, 2.0]),  # equal estimates would stay equal
    ],
)
def test_find_roots_falls_back_to_the_circle_start(monkeypatch, eigvals):
    coeffs, _, _ = from_known_roots(np.random.default_rng(91), 3)
    circle = aberth_batch(coeffs[None, :])[0][0]

    def broken(matrix):
        if isinstance(eigvals, Exception):
            raise eigvals
        return eigvals

    monkeypatch.setattr(measure.np.linalg, "eigvals", broken)
    assert np.array_equal(
        find_roots(coeffs).roots, circle[np.lexsort((circle.imag, circle.real))]
    )


# ---------------------------------------------------------------------------
# the two Mahler evaluators


def test_mahler_from_roots_frozen():
    assert mahler_from_roots([1.0, 2.5, 1.0]) == pytest.approx(2.0, rel=1e-12)
    assert mahler_from_roots([2.0, -5.0, 2.0]) == pytest.approx(4.0, rel=1e-12)
    assert mahler_from_roots([7.0]) == pytest.approx(7.0)
    with pytest.raises(ZeroPolynomial):
        mahler_from_roots([0.0])
    with pytest.raises(ValueError, match="^coefficient c_2 = "):
        mahler_from_roots([1.0, 2.0, np.inf])


def test_mahler_quadrature_frozen():
    assert mahler_quadrature([5.0]) == pytest.approx(5.0, rel=1e-15)
    assert mahler_quadrature([0.0, 0.0, 3.0]) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        mahler_quadrature([1.0, 2.0], nodes=8)
    with pytest.raises(ValueError, match="^coefficient c_1 = "):
        mahler_quadrature([1.0, np.nan, 1.0])


def test_mahler_quadrature_node_on_zero():
    x0 = np.exp(2j * np.pi * (0.5 / 16))
    with pytest.raises(NodeOnZero):
        mahler_quadrature([-x0, 1.0], nodes=16)


@pytest.mark.parametrize("nodes", [16, 64, 4096])
def test_jensen_quadrature_is_the_midpoint_sum(nodes):
    """The midpoint nodes are the roots of z^n = -1, so the n-node sum is
    |c_d| prod |1 + root^n|^(1/n) at every n, converged or not: the pair
    0.95, 1/0.95 misses its measure by 4.7% at 16 nodes."""
    beta = 0.95 + 1.0 / 0.95
    rng = np.random.default_rng(29)
    for c in ([1.0, -beta, 1.0], random_poly(rng, 12), random_poly(rng, 64)):
        c = np.asarray(c, dtype=complex)
        q = jensen_quadrature(find_roots(c).roots, c[-1], nodes)
        assert q == pytest.approx(mahler_quadrature(c, nodes), rel=1e-12)
    assert jensen_quadrature([0.95, 1 / 0.95], 1.0, 16) == pytest.approx(
        mahler_quadrature([1.0, -beta, 1.0], 16), rel=1e-12
    )
    assert mahler_quadrature([1.0, -beta, 1.0], 16) > 1.04 * mahler_from_roots([1.0, -beta, 1.0])


def test_methods_agree_on_screened_random_polys():
    rng = np.random.default_rng(24)
    done = 0
    while done < 30:
        c = random_poly(rng, int(rng.integers(2, 13)))
        if circle_distance(c) < 0.02:
            continue
        done += 1
        a = mahler_from_roots(c)
        b = mahler_quadrature(c)
        assert abs(a - b) / max(a, b) <= 1e-6


def test_multiplicativity():
    rng = np.random.default_rng(25)
    for _ in range(25):
        f = random_poly(rng, int(rng.integers(1, 7)))
        g = random_poly(rng, int(rng.integers(1, 7)))
        lhs = mahler_from_roots(np.convolve(f, g))
        rhs = mahler_from_roots(f) * mahler_from_roots(g)
        assert lhs == pytest.approx(rhs, rel=1e-9)


# ---------------------------------------------------------------------------
# reciprocal measures


def test_mu_rec_frozen():
    assert mu_rec(np.array([2.5, 1.0])) == pytest.approx(2.0, rel=1e-12)
    assert mu_rec(np.array([0.0, 3.0])) == pytest.approx(3.0, rel=1e-12)
    assert mu_rec(np.array([0.0, 0.0])) == 0.0
    assert mu_rec(np.array([4.0])) == pytest.approx(4.0)
    # zero top coefficient only shifts the embedding by x, measure 1
    assert mu_rec(np.array([2.0, 0.0])) == pytest.approx(2.0, rel=1e-12)


def test_mu_rec_equals_embedded_measure():
    rng = np.random.default_rng(26)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        p = RecipLaurent(v)
        assert mu_rec(p) == pytest.approx(
            mahler_from_roots(lambda_embed(p)), rel=1e-12
        )


def test_mu_rec_homogeneous():
    rng = np.random.default_rng(27)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        k = rng.normal() + 1j * rng.normal()
        assert mu_rec(k * v) == pytest.approx(abs(k) * mu_rec(v), rel=1e-12)


@pytest.mark.parametrize("scale", [1e300, 1e306, 1e308, 1e-300, 1e-310, 1e-320])
def test_mu_rec_homogeneous_near_the_ends_of_the_double_range(scale):
    """Q's coefficients, the closed forms' intermediates or the degree-1
    division overflow at these scales, so the kernel retries the row scaled
    into range."""
    for n_order in range(1, 11):
        ones = np.ones(n_order + 1)
        assert mu_rec(scale * ones) == pytest.approx(scale * mu_rec(ones), rel=1e-15)


def test_retry_passes_find_roots_finite_coefficients():
    """Q's coefficients of this row overflow, and find_roots rejects
    coefficients that are not finite: the retry solves the scaled row."""
    meas, ok = mu_rec_batch(1e308 * np.ones((1, 4)))
    assert bool(ok[0])
    assert meas[0] == pytest.approx(1e308, rel=1e-15)


def test_mu_rec_bounded_by_coefficient_norm():
    rng = np.random.default_rng(28)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        norm = float(np.linalg.norm(lambda_embed(RecipLaurent(v))))
        assert mu_rec(v) <= norm * (1 + 1e-12)


def test_nu_rec_frozen():
    assert nu_rec(np.array([-2.5])) == pytest.approx(2.0, rel=1e-12)
    # (x^2 + 1)^2 has all roots on the circle; conditioning of the double
    # roots limits the achievable accuracy, hence the loose tolerance
    assert nu_rec(np.array([2.0, 0.0])) == pytest.approx(1.0, abs=1e-6)


def test_nu_rec_never_below_one():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        b = 3.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        assert nu_rec(b) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# the batched reciprocal kernel in y = x + 1/x


def full_degree_measures(v):
    return np.array([mahler_from_roots(lambda_embed(RecipLaurent(row))) for row in v])


@pytest.mark.parametrize("n_order", [1, 2, 3, 4])
@pytest.mark.parametrize("monic", [True, False])
def test_mu_rec_batch_matches_full_degree_route(n_order, monic):
    rng = np.random.default_rng(40 + n_order)
    v = 3.0 * (rng.normal(size=(64, n_order + 1)) + 1j * rng.normal(size=(64, n_order + 1)))
    if monic:
        v[:, -1] = 1.0
    meas, ok = mu_rec_batch(v)
    assert bool(np.all(ok))
    assert np.allclose(meas, full_degree_measures(v), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("n_order", [8, 9, 30, 40])
def test_mu_rec_batch_keeps_accuracy_at_high_order(n_order):
    """Q(y) in the monomial basis is ill-conditioned at high N, so the
    kernel keeps to the full-degree palindrome there."""
    rng = np.random.default_rng(50 + n_order)
    v = rng.normal(size=(8, n_order + 1)) + 1j * rng.normal(size=(8, n_order + 1))
    meas, ok = mu_rec_batch(v)
    assert bool(np.all(ok))
    assert np.allclose(meas, full_degree_measures(v), rtol=1e-12, atol=0.0)


def from_y_roots(lead, ys):
    """(v_0, ..., v_N) with x^N p_v = lead * prod (x^2 - y x + 1), and its
    measure |lead| * prod max(|x|, 1/|x|) from the quadratics' roots."""
    pal = np.array([lead], dtype=complex)
    meas = abs(lead)
    for y in ys:
        pal = np.convolve(pal, [1.0, -y, 1.0])
        meas *= max(1.0, float(np.max(np.abs(np.roots([1.0, -y, 1.0])))))
    return pal[len(ys) :], meas


@pytest.mark.parametrize(
    "lead, ys",
    [
        (1.0, [1.3]),  # roots on the unit circle
        (2.0, [-2.0, 0.7]),
        (1.5j, [2.0, -1.9, 0.0]),
        (1.0, [0.0]),  # x^2 + 1
        (1.0, [0.0, 0.0]),  # (x^2 + 1)^2: b = c = 0 in the quadratic
        # repeated y; the closed-form quadratic keeps full accuracy there,
        # while a double root of a degree-3 Q from Aberth (like the double
        # roots of the full-degree route) is good to about 1e-8
        (0.5, [3.0, 3.0]),
        (1.0, [1.0 + 2j, 1.0 + 2j]),
        (1e-7, [1.0 + 2j, -3e4]),  # small leading coefficient
        (1e-6, [4.0, -2e3, 0.5j]),
    ],
)
def test_mu_rec_batch_edge_cases(lead, ys):
    # the reference is the closed form: the full-degree route loses about
    # half the digits at repeated roots on the circle, (x^2 + 1)^2 among them
    v, expect = from_y_roots(lead, ys)
    meas, ok = mu_rec_batch(v[None, :])
    assert bool(ok[0])
    assert meas[0] == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("n_order", [1, 2, 3])
def test_mu_rec_batch_reports_unsolvable_rows(n_order):
    v = np.ones((4, n_order + 1), dtype=complex)
    v[0, 0] = np.nan
    v[1, -1] = 0.0  # no degree-N polynomial in y
    v[2, :] = 0.0
    meas, ok = mu_rec_batch(v)
    assert list(ok) == [False, False, False, True]
    assert list(meas[:3]) == [np.inf] * 3
    assert meas[3] == pytest.approx(mu_rec(v[3]), rel=1e-15)


ORDER_THREE_EDGE_ROWS = [
    from_y_roots(1.0, [0.5, 0.5, 0.5])[0],  # exact triple roots
    from_y_roots(1.0, [3.0, 3.0, 3.0])[0],
    from_y_roots(2.0, [1.0 + 1j] * 3)[0],
    from_y_roots(1.0, [3.0, 3.0, 0.5j])[0],  # repeated pairs
    from_y_roots(1.0, [2.5 + 1j, 2.5 + 1j, -4.0])[0],
    from_y_roots(0.5, [-2.0, -2.0, 1.0])[0],
    np.array([1.0, 2.0, 3.0, 0.0]),  # v_N = 0
    np.array([np.nan, 1.0, 2.0, 1.0]),
    np.array([1.0, 1.0j, np.nan, 1.0]),
    1e150 * from_y_roots(1.0, [2.5, -3.0, 1j])[0],
    1e-150 * from_y_roots(1.0, [2.5, -3.0, 1j])[0],
    np.array([1.0, 1.0, 1.0, 1e-150]),
    from_y_roots(1.5j, [2.0, -1.9, 0.3])[0],
    from_y_roots(1.0, [1.3, -1.3, 0.2])[0],  # all roots on the unit circle
]


def test_order_three_edge_rows():
    """Rows with v_N = 0 or a NaN entry have no measure, and the rows scaled
    by 1e+-150 keep theirs.  [1, 1, 1, 1e-150] has a root y near -1e150,
    where the residual's scale sum overflows, so no tier certifies it.
    Every row of simple roots keeps the closed form to 1e-12."""
    meas, ok = mu_rec_batch(np.array(ORDER_THREE_EDGE_ROWS))
    assert list(ok) == [True] * 6 + [False] * 3 + [True] * 2 + [False] + [True] * 2
    assert list(meas[~ok]) == [np.inf] * 4
    simple = [
        (9, 1e150, 1.0, [2.5, -3.0, 1j]),
        (10, 1e-150, 1.0, [2.5, -3.0, 1j]),
        (12, 1.0, 1.5j, [2.0, -1.9, 0.3]),
        (13, 1.0, 1.0, [1.3, -1.3, 0.2]),
    ]
    for row, scale, lead, ys in simple:
        expect = scale * from_y_roots(lead, ys)[1]
        assert abs(meas[row] - expect) <= 1e-12 * expect


@pytest.mark.parametrize(
    "lead, ys",
    [
        (1.0, [0.0, 0.0, 2.5]),  # (x^2 + 1)^2 (x^2 - 2.5 x + 1), measure 2
        (2.0, [0.0, 0.0, 0.0]),
        (1.0, [0.0, 0.0, 0.0, 3.0]),
        (0.5j, [0.0, 1.0 + 2j, 0.0, -3.0, 0.0]),
    ],
)
def test_mu_rec_batch_splits_off_exact_zero_roots_of_q(lead, ys):
    """A multiple root at 0 keeps the scale-free residual at 1 however
    close the estimate, so such rows go to find_roots, which splits off x^k."""
    v, expect = from_y_roots(lead, ys)
    meas, ok = mu_rec_batch(np.stack([v, v + 1.0]))
    assert bool(ok[0])
    assert meas[0] == pytest.approx(expect, rel=1e-12)
    assert meas[1] == pytest.approx(mu_rec(v + 1.0), rel=1e-15)


@pytest.mark.parametrize(
    "ys",
    [
        [0.0, 0.0, 2.5],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 1.5, -3.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 1j, 2.5, 0.0, -1.0],
    ],
)
def test_each_multiple_zero_root_row_calls_find_roots_once(monkeypatch, ys):
    """Every row of order N >= 3 reaches find_roots once, and find_roots
    splits off the zero roots: near a multiple root at 0 the scale-free
    residual stays at 1, so Aberth could not certify the row."""
    v, expect = from_y_roots(1.0, ys)
    calls = []
    solve = measure.find_roots

    def recorded(coeffs, tol=1e-10):
        calls.append(len(coeffs))
        return solve(coeffs, tol)

    monkeypatch.setattr(measure, "find_roots", recorded)
    meas, ok = mu_rec_batch(np.stack([v, v + 1.0, 2.0 * v]))
    assert calls == [len(ys) + 1] * 3
    assert bool(np.all(ok))
    assert meas[2] == pytest.approx(2.0 * expect, rel=1e-8)


@pytest.mark.parametrize(
    "ys",
    [
        [0.0, 0.5, 0.5],  # (x^2 + 1)(x^2 - 0.5 x + 1)^2
        [0.0, 0.0, 1.0 + 2j, 1.0 + 2j],
    ],
)
def test_zero_root_beside_a_repeated_root_keeps_1e_8(ys):
    """Aberth solves the repeated root after find_roots splits off the zero
    roots, and a repeated root costs it about half the digits."""
    v, expect = from_y_roots(1.0, ys)
    meas, ok = mu_rec_batch(v[None, :])
    assert bool(ok[0])
    assert meas[0] == pytest.approx(expect, rel=1e-8)


def test_nu_rec_of_a_power_of_x_squared_plus_one():
    assert nu_rec(np.array([0.0, 3.0, 0.0])) == pytest.approx(1.0, rel=1e-15)


def test_pair_moduli_match_the_aligned_square_root_bit_for_bit():
    rng = np.random.default_rng(23)
    y = rng.normal(size=(4000, 3)) * 3.0 + 1j * rng.normal(size=(4000, 3))
    y[:1000] = rng.uniform(-2.0, 2.0, size=(1000, 3))  # pairs on the circle
    y[1000:2000] += 1j * 1e-9 * rng.normal(size=(1000, 3)) - y[1000:2000].imag * 1j
    y[2000:2003] = [[2.0, -2.0, 0.0], [2.0 + 1e-12, -2.0 - 1e-12, 1e-300j], [1e200, 1j, -1e-200]]
    with np.errstate(over="ignore", invalid="ignore"):
        aligned = np.maximum(1.0, 0.5 * np.abs(y + measure._aligned_sqrt(y * y - 4.0, y)))
        pairs = measure._pair_moduli(y)
    assert pairs.tobytes() == aligned.tobytes()


# ---------------------------------------------------------------------------
# rows a circle start misses converge from companion eigenvalues


def test_blocked_mu_rec_batch_matches_the_whole_batch_bit_for_bit():
    """Blocks of 97 rows, batches of one and mu_rec all give the whole
    batch's bits, at every order."""
    rng = np.random.default_rng(5)
    for n_order in range(1, 11):
        rows = 600 if n_order <= 8 else 150
        v = rng.normal(size=(rows, n_order + 1)) + 1j * rng.normal(size=(rows, n_order + 1))
        meas, ok = mu_rec_batch(v, 1e-9)
        parts = [mu_rec_batch(v[i : i + 97], 1e-9) for i in range(0, rows, 97)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == meas.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == ok.tobytes()
        assert bool(np.all(ok))
        for i in range(64):
            assert mu_rec_batch(v[i : i + 1], 1e-9)[0].tobytes() == meas[i : i + 1].tobytes()
            assert mu_rec(v[i], 1e-9) == meas[i]


def test_y_coeffs_is_the_pair_basis_product():
    """q = v @ pair_basis(N) to rounding, with q_N = v_N exactly, for a
    column of leads and for one lead shared by every row."""
    rng = np.random.default_rng(2)
    for n_order in range(1, 11):
        v = rng.normal(size=(50, n_order + 1)) + 1j * rng.normal(size=(50, n_order + 1))
        basis = pair_basis(n_order)
        q = measure.y_coeffs(v)
        assert q[:, -1].tobytes() == v[:, -1].tobytes()
        assert np.all(np.abs(q - v @ basis) <= 1e-14 * (np.abs(v) @ np.abs(basis)))
        v[:, -1] = 0.5 - 2j
        shared = measure.y_coeffs(v[:, :-1], 0.5 - 2j)
        assert np.abs(shared).tobytes() == np.abs(measure.y_coeffs(v)).tobytes()


def test_palindrome_row_the_circle_start_misses_is_retried():
    """Row 8218 of chunk 0 of mc_volume(10, 10_000) at seed 0: the circle
    start does not converge on its palindrome, the companion start does."""
    radii = np.append(montecarlo.bounding_radii(10, 1.0), 1.0)
    blocks = montecarlo._sample_disks(montecarlo._chunk_generator(0, 0), 10_000, radii)
    v = np.concatenate([montecarlo._disk_points(r, w) for r, w in blocks])[8218:8219]
    assert not aberth_batch(lambda_embed(v), 1e-9)[2][0]
    meas, ok = mu_rec_batch(v, 1e-9)
    assert bool(ok[0])
    assert meas[0] == pytest.approx(mahler_from_roots(lambda_embed(v)[0]), rel=1e-13)
    assert meas[0] == pytest.approx(mahler_quadrature(lambda_embed(v)[0], 1 << 14), rel=1e-9)


@pytest.mark.parametrize(
    "n_order, big",
    [(3, 1e150), (4, 1e50), (5, 1e50), (6, 1e50), (8, 1e50), (8, 1e20), (10, 1e50)],
)
def test_huge_constant_coefficient_is_retried(n_order, big):
    """v = (big, 1, ..., 1) has measure big to 1e-14 relative; a circle
    start does not converge on it."""
    v = np.ones(n_order + 1, dtype=complex)
    v[0] = big
    assert mu_rec(v) == pytest.approx(big, rel=1e-13)


def test_failed_retry_keeps_the_row_unconverged(monkeypatch):
    """Every row of order 6 goes to find_roots, so both rows stall."""

    def stalled(coeffs, tol=1e-10):
        raise NoConvergence("stalled")

    v = np.ones((2, 7), dtype=complex)
    v[0, 0] = 1e50
    monkeypatch.setattr(measure, "find_roots", stalled)
    meas, ok = mu_rec_batch(v)
    assert list(ok) == [False, False] and list(meas) == [np.inf, np.inf]
