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
    mahler_from_roots,
    mahler_quadrature,
    mu_rec,
    mu_rec_batch,
    nu_rec,
)
from recmahler.polynomials import lambda_embed, RecipLaurent


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
    with pytest.raises(ZeroPolynomial):
        find_roots([3.0])
    with pytest.raises(DegenerateLeadingCoefficient):
        find_roots([1.0, 2.0, 0.0])


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


def test_aberth_batch_rows_match_batches_of_one():
    """Each row stops iterating when its own step stagnates, so a row's
    roots do not depend on the rows solved beside it."""
    rng = np.random.default_rng(23)
    for degree in (3, 5, 9):
        coeffs = np.stack([random_poly(rng, degree) for _ in range(16)])
        # a root cluster converges linearly and iterates far longer
        coeffs[7] = np.poly([1.0] * 3 + [2.0] * (degree - 3))[::-1]
        roots, residual, ok = aberth_batch(coeffs)
        for i in range(16):
            one_roots, one_residual, one_ok = aberth_batch(coeffs[i : i + 1])
            assert np.array_equal(one_roots[0], roots[i])
            assert one_residual[0] == residual[i] and one_ok[0] == ok[i]


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


def test_mahler_quadrature_frozen():
    assert mahler_quadrature([5.0]) == pytest.approx(5.0, rel=1e-15)
    assert mahler_quadrature([0.0, 0.0, 3.0]) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        mahler_quadrature([1.0, 2.0], nodes=8)


def test_mahler_quadrature_node_on_zero():
    x0 = np.exp(2j * np.pi * (0.5 / 16))
    with pytest.raises(NodeOnZero):
        mahler_quadrature([-x0, 1.0], nodes=16)


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


# ---------------------------------------------------------------------------
# the N = 3 kernel starts Aberth from Cardano's roots


def circle_started(monkeypatch):
    """mu_rec_batch with every cubic batch started on the Cauchy circle."""
    monkeypatch.setattr(measure, "_cardano_start", lambda q: None)


CARDANO_EDGE_ROWS = [
    from_y_roots(1.0, [0.5, 0.5, 0.5])[0],  # exact triple roots: C = 0
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


def test_cardano_start_keeps_the_circle_start_results_on_edge_rows(monkeypatch):
    v = np.array(CARDANO_EDGE_ROWS)
    meas, ok = mu_rec_batch(v)
    circle_started(monkeypatch)
    ref, ref_ok = mu_rec_batch(v)
    assert list(ok) == list(ref_ok)
    assert list(ok[6:9]) == [False] * 3 and list(ok[9:11]) == [True] * 2
    # a repeated root is good to about sqrt(eps) from either start
    rtol = np.where(np.arange(len(v)) < 6, 1e-7, 1e-12)
    assert np.all(np.abs(meas[ok] - ref[ok]) <= rtol[ok] * ref[ok])
    assert np.array_equal(meas[~ok], ref[~ok])


def sampled_cubics(count):
    """count N = 3 rows as the h_3(1.5) Monte Carlo draws them."""
    gen = montecarlo._chunk_generator(3, 0)
    v = montecarlo._sample_disks(gen, count, montecarlo.bounding_radii(3, 1.5))
    return np.concatenate([v, np.ones((count, 1))], axis=1)


def test_cardano_start_agrees_with_the_circle_start_on_sampled_rows(monkeypatch):
    v = sampled_cubics(1 << 12)
    meas, ok = mu_rec_batch(v, 1e-9)
    circle_started(monkeypatch)
    ref, ref_ok = mu_rec_batch(v, 1e-9)
    assert bool(np.all(ok)) and bool(np.all(ref_ok))
    assert np.all(np.abs(meas - ref) <= 1e-12 * ref)


def test_cardano_start_needs_one_aberth_sweep(monkeypatch):
    """Each Aberth sweep evaluates p and p' once; the Newton polish takes 6
    evaluations and the residual 2, so one sweep makes 10."""
    v = sampled_cubics(1 << 12)
    calls = []
    horner = measure._horner_batch

    def counted(*args):
        calls.append(1)
        return horner(*args)

    monkeypatch.setattr(measure, "_horner_batch", counted)
    mu_rec_batch(v, 1e-9)
    assert len(calls) <= 2 * 1 + 6 + 2
    calls.clear()
    circle_started(monkeypatch)
    mu_rec_batch(v, 1e-9)
    assert len(calls) > 2 * 3 + 6 + 2  # the circle start needs more


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
    close the estimate, so y^k is split off as find_roots splits off x^k."""
    v, expect = from_y_roots(lead, ys)
    meas, ok = mu_rec_batch(np.stack([v, v + 1.0]))
    assert bool(ok[0])
    assert meas[0] == pytest.approx(expect, rel=1e-12)
    assert meas[1] == pytest.approx(mu_rec(v + 1.0), rel=1e-15)


def test_nu_rec_of_a_power_of_x_squared_plus_one():
    assert nu_rec(np.array([0.0, 3.0, 0.0])) == pytest.approx(1.0, rel=1e-15)
