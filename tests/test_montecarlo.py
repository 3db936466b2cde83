"""Monte Carlo estimators: bounding regions, counter-based reproducibility,
error accounting, and agreement with the closed forms."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from recmahler import measure, montecarlo
from recmahler.errors import EvaluationOverflow, NoConvergence
from recmahler.measure import mu_rec_batch
from recmahler.montecarlo import (
    CHUNK,
    MCEstimate,
    _chunk_generator,
    _disk_points,
    _sample_disks,
    bounding_radii,
    mc_hN,
    mc_volume,
)
from recmahler.spectral import h_eval, volume_exact
from recmahler.symfun import pair_basis


# ---------------------------------------------------------------------------
# sampling


def _points(gen, count, radii):
    """Every point _sample_disks draws, as the box estimate would form them
    with no row screened out."""
    return np.concatenate([_disk_points(r, w) for r, w in _sample_disks(gen, count, radii)])


def test_sample_disks_bytes_match_the_formula():
    radii = bounding_radii(3, 1.5)
    v = _points(_chunk_generator(11, 2), 1000, radii)
    gen = _chunk_generator(11, 2)
    u = gen.random((1000, radii.size))
    w = gen.random((1000, radii.size))
    expect = radii * np.sqrt(u) * np.exp(2j * np.pi * w)
    assert v.dtype == expect.dtype and v.shape == expect.shape
    assert v.tobytes() == expect.tobytes()


def test_points_of_kept_rows_keep_their_bytes():
    """The estimate forms the points of the rows its moduli stage keeps
    only: each gets the bytes it has among all the rows."""
    radii = np.append(bounding_radii(2, 1.0), 1.0)
    for r, w in _sample_disks(_chunk_generator(5, 0), 2 * montecarlo._BLOCK + 7, radii):
        rows = np.arange(len(r)) % 3 == 1
        whole = _disk_points(r, w)[rows]
        assert _disk_points(r[rows], w[rows]).tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# regions


def test_bounding_radii_frozen():
    assert np.allclose(bounding_radii(1, 1.5), [3.0])
    assert np.allclose(bounding_radii(2, 1.0), [6.0, 4.0])
    assert np.allclose(bounding_radii(3, 1.0), [20.0, 15.0, 6.0])


def test_bounding_radii_preconditions():
    with pytest.raises(ValueError):
        bounding_radii(0, 1.5)
    with pytest.raises(ValueError):
        bounding_radii(2, 0.99)


def test_region_volumes():
    est = mc_hN(1, 1.5, 10_000, seed=7)
    assert est.region_volume == pytest.approx(math.pi * 9.0, rel=1e-15)
    estv = mc_volume(1, 10_000, seed=7)
    assert estv.region_volume == pytest.approx(4 * math.pi ** 2, rel=1e-15)


@pytest.mark.parametrize("n_order, xi", [(2, 1e200), (1, 1e308), (1, 1e160)])
def test_overflowing_box_volume_raises_before_sampling(monkeypatch, n_order, xi):
    def sampled(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(montecarlo, "_sample_disks", sampled)
    with pytest.raises(EvaluationOverflow) as info:
        mc_hN(n_order, xi, 10_000)
    assert str(info.value) == (
        f"Monte Carlo box volume at N = {n_order}, xi = {xi:.15g} overflows a double"
    )


def test_order_above_the_box_limit_raises_before_sampling(monkeypatch):
    """From N = 3 the target set fills too small a share of the box for any
    hit, so the estimators refuse the order before they draw."""
    drawn = []

    def recorded(gen, count, radii):
        drawn.append(count)
        return _sample_disks(gen, count, radii)

    monkeypatch.setattr(montecarlo, "_sample_disks", recorded)
    message = "^the Monte Carlo box sampler takes N <= 2, got N = 3$"
    assert montecarlo.BOX_MAX_ORDER == 2
    with pytest.raises(ValueError, match=message):
        mc_hN(3, 1.5, 10_000)
    with pytest.raises(ValueError, match=message):
        mc_volume(3, 10_000)
    assert drawn == []


# ---------------------------------------------------------------------------
# reproducibility and accounting


def test_same_seed_same_estimate_any_worker_count():
    a = mc_hN(1, 1.5, 100_000, seed=3, workers=1)
    b = mc_hN(1, 1.5, 100_000, seed=3, workers=4)
    assert a == b
    c = mc_volume(2, 70_000, seed=3, workers=1)
    d = mc_volume(2, 70_000, seed=3, workers=3)
    assert c == d


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records its size, runs serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(i) for i in items]


def test_worker_pool_is_bounded(monkeypatch):
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    serial = mc_volume(1, 5 * CHUNK, seed=4, workers=1)
    for workers in (2, 3, 100_000):
        assert mc_volume(1, 5 * CHUNK, seed=4, workers=workers) == serial
    # a single chunk runs serially, whatever the worker count
    assert mc_volume(1, CHUNK, seed=4, workers=100_000) == mc_volume(1, CHUNK, seed=4)
    cores = os.cpu_count() or 1
    expect = [min(w, 5, cores) for w in (2, 3, 100_000)]
    assert _RecordingPool.sizes == [size for size in expect if size > 1]


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        mc_hN(1, 1.5, 10_000, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        mc_volume(1, 10_000, workers=workers)


@pytest.mark.parametrize(
    "run, mean, std_error",
    [
        (lambda: mc_hN(1, 1.5, 1 << 16, seed=1), 5.701375156474335, 0.04431431984118563),
        (lambda: mc_hN(2, 1.5, 1 << 16, seed=1), 13.613475943616844, 2.444474107720705),
        (lambda: mc_volume(1, 1 << 16, seed=1), 6.660055313625729, 0.057750720284186194),
        (lambda: mc_volume(2, 1 << 17, seed=1), 10.219353886329287, 1.1796916860308262),
    ],
)
def test_estimates_match_golden_values(run, mean, std_error):
    """Pinned (mean, std_error) pairs, taken when every measure came from a
    full-degree root solve of the palindrome: the y = x + 1/x kernel moves
    no sample across the hit boundary."""
    est = run()
    assert (est.mean, est.std_error, est.rejections) == (mean, std_error, 0)


def test_different_seeds_differ():
    a = mc_hN(1, 1.5, 50_000, seed=0)
    b = mc_hN(1, 1.5, 50_000, seed=1)
    assert a.mean != b.mean


def test_sample_count_floor():
    with pytest.raises(ValueError):
        mc_hN(1, 1.5, 9_999)
    with pytest.raises(ValueError):
        mc_volume(1, 5_000)


def test_std_error_formula():
    est = mc_hN(1, 1.5, 50_000, seed=11)
    p = est.mean / est.region_volume
    expect = est.region_volume * math.sqrt(p * (1.0 - p) / est.samples)
    assert est.std_error == pytest.approx(expect, rel=1e-12)
    assert est.samples == 50_000
    assert est.seed == 11
    assert est.rejections == 0


def test_estimate_is_plain_data():
    est = MCEstimate(1.0, 0.1, 10_000, 0, 2.0, 0)
    assert est.mean == 1.0 and est.rejections == 0


# ---------------------------------------------------------------------------
# agreement with closed forms (small, seed-pinned; the large runs live in
# the acceptance module)


def test_mc_hn_within_three_sigma():
    est = mc_hN(1, 1.5, 100_000, seed=0)
    target = h_eval(1, 1.5)
    assert abs(est.mean - target) <= 3.0 * est.std_error


def test_mc_volume_within_three_sigma():
    est = mc_volume(1, 100_000, seed=0)
    target = volume_exact(1).to_float()
    assert abs(est.mean - target) <= 3.0 * est.std_error


def test_containment_of_sublevel_set():
    """Sampling a 2x inflated region finds no member of {nu <= xi} outside
    the nominal bounding disks: the region really contains the set."""
    xi = 1.2
    for n_order, samples in ((1, 1_000_000), (2, 200_000)):
        nominal = bounding_radii(n_order, xi)
        inflated = 2.0 * nominal
        n_chunks = (samples + CHUNK - 1) // CHUNK
        for ci in range(n_chunks):
            count = min(CHUNK, samples - ci * CHUNK)
            gen = _chunk_generator(9000 + n_order, ci)
            b = _points(gen, count, inflated)
            v = np.concatenate([b, np.ones((count, 1), dtype=complex)], axis=1)
            meas, _ = mu_rec_batch(v, 1e-9)
            hits = meas <= xi
            inside = np.abs(b[hits]) <= nominal[None, :] + 1e-6
            assert bool(np.all(inside))


@pytest.mark.slow
def test_three_sigma_coverage_over_replications():
    """Across 100 seeded replications the 3 sigma interval covers the closed
    value at least 99 times for each target; deterministic by seeding."""
    targets = [
        (lambda seed: mc_hN(1, 1.5, 100_000, seed=seed), h_eval(1, 1.5), 1000),
        (lambda seed: mc_volume(1, 100_000, seed=seed), volume_exact(1).to_float(), 2000),
        (lambda seed: mc_volume(2, 100_000, seed=seed), volume_exact(2).to_float(), 3000),
    ]
    for fn, target, base in targets:
        good = 0
        for rep in range(100):
            est = fn(base + rep)
            if abs(est.mean - target) <= 3.0 * est.std_error:
                good += 1
        assert good >= 99


# ---------------------------------------------------------------------------
# chunks are measured in row blocks


@pytest.mark.parametrize("n_order", [1, 2])
@pytest.mark.parametrize("samples, workers", [(10_000, 1), (70_000, 2)])
def test_blocked_estimates_equal_the_whole_chunk_ones(monkeypatch, n_order, samples, workers):
    """Both sample counts end in a partial block; 70000 samples fill two
    chunks, which two workers run on two threads when there are two CPUs."""
    assert samples % montecarlo._BLOCK
    blocked = [
        mc_hN(n_order, 1.5, samples, seed=n_order, workers=workers),
        mc_volume(n_order, samples, seed=n_order, workers=workers),
    ]
    monkeypatch.setattr(montecarlo, "_BLOCK", CHUNK)
    whole = [
        mc_hN(n_order, 1.5, samples, seed=n_order),
        mc_volume(n_order, samples, seed=n_order),
    ]
    assert blocked == whole


def test_blocked_draw_keeps_the_bytes_of_the_whole_draw():
    """Each block's u comes from the chunk's generator and its w from a copy
    advanced past u drawn whole, so the counts include ones where count *
    len(radii) is no multiple of the four doubles of a Philox counter step,
    a whole chunk, and a last chunk of 100001 samples (34465 rows); all but
    the whole chunk end in a partial block."""
    vol2 = np.append(bounding_radii(2, 1.0), 1.0)
    vol1 = np.append(bounding_radii(1, 1.0), 1.0)
    cases = [
        (3 * montecarlo._BLOCK + 5, vol2),
        (100_001 - CHUNK, vol2),
        (10_003, bounding_radii(1, 1.5)),
        (10_001, vol1),
        (CHUNK, bounding_radii(2, 1.5)),
    ]
    for count, radii in cases:
        v = _points(_chunk_generator(4, 1), count, radii)
        gen = _chunk_generator(4, 1)
        u = gen.random((count, radii.size))
        w = gen.random((count, radii.size))
        assert v.tobytes() == (radii * np.sqrt(u) * np.exp(2j * np.pi * w)).tobytes()


def _traced_peak(fn) -> int:
    """The peak of the memory fn allocates, in bytes, as tracemalloc sees
    it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("n_order", [1, 2])
def test_a_chunk_holds_a_few_blocks_of_memory(n_order):
    """A chunk draws, screens and gathers its rows a block at a time, so one
    chunk of 2^16 samples holds a few arrays of _BLOCK rows of N + 1 complex
    entries, not arrays of all 2^16 rows: about five at N = 1 and 2, where
    drawing a chunk whole held 19 (N = 1) and 12 (N = 2)."""
    mc_volume(n_order, CHUNK)  # fills the screen's caches
    block = montecarlo._BLOCK * (n_order + 1) * np.dtype(complex).itemsize
    assert _traced_peak(lambda: mc_volume(n_order, CHUNK)) <= 8 * block


def test_chunks_draw_through_sample_disks(monkeypatch):
    """What test_overflowing_box_volume_raises_before_sampling patches is
    what the chunks draw through, so that test sees any draw."""
    counts = []
    sample = montecarlo._sample_disks

    def recorded(gen, count, radii):
        counts.append(count)
        return sample(gen, count, radii)

    monkeypatch.setattr(montecarlo, "_sample_disks", recorded)
    mc_hN(2, 1.5, 70_000)
    mc_volume(1, 10_000)
    assert counts == [CHUNK, 70_000 - CHUNK, 10_000]


# ---------------------------------------------------------------------------
# the screen on Q's coefficients


def _keep_all(block, lead, threshold):
    return np.ones(len(block), dtype=bool)


def _screen_off(monkeypatch):
    """Both stages of the screen keep every row."""
    monkeypatch.setattr(montecarlo, "_moduli_may_hit", _keep_all)
    monkeypatch.setattr(montecarlo, "_may_hit", _keep_all)


def _unscreened(est):
    """est as it reads when every sample reaches the root kernel."""
    return dataclasses.replace(est, solved=est.samples)


@pytest.mark.parametrize("mode", ["hn", "volume"])
@pytest.mark.parametrize("n_order", [2])
def test_screen_keeps_every_row_at_or_below_the_threshold(mode, n_order):
    """Every row of a 2x inflated box is measured; at the nominal threshold
    and at thresholds that 1% to 50% of the rows meet, each row the kernel
    puts at or below the threshold passes the screen."""
    count = 2 * montecarlo._BLOCK
    xi = 1.2 if mode == "hn" else 1.0
    radii = 2.0 * bounding_radii(n_order, xi)
    lead = 1.0
    if mode == "volume":
        radii, lead = np.append(radii, 2.0), None
    v = _points(_chunk_generator(9100 + n_order, 0), count, radii)
    full = v if lead is None else np.concatenate([v, np.ones((count, 1))], axis=1)
    meas, ok = mu_rec_batch(full, 1e-9)
    assert bool(np.all(ok))
    for threshold in [xi] + list(np.quantile(meas, [0.01, 0.1, 0.5])):
        kept = montecarlo._may_hit(v, lead, threshold)
        assert bool(np.all(kept[meas <= threshold]))
    # the screen is not vacuous: at the nominal threshold it drops rows
    assert not np.all(montecarlo._may_hit(v, lead, xi))


def _vertex_row(n_order, lead, threshold, sign, stretch=1.0):
    """(v_0, ..., v_N) of lead * prod (x^2 + beta_n x + 1) for the roots at
    the bound's vertex: every alpha = sign except one pair at
    sign * stretch * threshold / |lead|, of measure stretch * threshold."""
    alpha = sign * stretch * threshold / abs(lead)
    pal = np.array([lead], dtype=complex)
    for beta in [2.0 * sign] * (n_order - 1) + [alpha + 1.0 / alpha]:
        pal = np.convolve(pal, [1.0, beta, 1.0])
    return pal[n_order:]


@pytest.mark.parametrize("n_order", [1, 2, 3, 5, 8])
def test_screen_keeps_the_vertex_rows(n_order):
    """At the vertex rows every |q_k| meets its bound, so these rows sit on
    the screen's edge: both stages keep them, while _may_hit drops the same
    rows with the large root pair moved 10% out, and at N = 1, where it is
    the whole screen, so does the moduli stage."""
    a_b = montecarlo._screen_terms(n_order)
    for lead, threshold in [(1.0, 1.0), (1.0, 1.5), (0.5, 1.0), (1e-3, 1.0), (-2.0j, 40.0)]:
        ell = abs(lead)
        for sign in (1.0, -1.0):
            v = _vertex_row(n_order, lead, threshold, sign)
            q = np.abs(v @ pair_basis(n_order))
            far = threshold + ell**2 / threshold
            bound = [(ell * a + far * b) / (1.0 + montecarlo._SCREEN_REL) for a, b in a_b]
            assert np.allclose(q[:-1], bound, rtol=1e-12, atol=0.0)
            rows = v[None, :]
            assert montecarlo._may_hit(rows, None, threshold).tolist() == [True]
            assert montecarlo._may_hit(rows[:, :-1], lead, threshold).tolist() == [True]
            moduli = np.abs(rows)
            assert montecarlo._moduli_may_hit(moduli, None, threshold).tolist() == [True]
            assert montecarlo._moduli_may_hit(moduli[:, :-1], lead, threshold).tolist() == [True]
            if threshold / ell >= 1.5:
                out = _vertex_row(n_order, lead, threshold, sign, stretch=1.1)[None, :]
                assert montecarlo._may_hit(out, None, threshold).tolist() == [False]
                if n_order == 1:
                    drop = montecarlo._moduli_may_hit(np.abs(out), None, threshold)
                    assert drop.tolist() == [False]


@pytest.mark.parametrize("mode", ["hn", "volume"])
@pytest.mark.parametrize("n_order", [1, 2])
def test_moduli_stage_keeps_every_row_the_screen_keeps(mode, n_order):
    """On a 2x inflated box, at the thresholds of
    test_screen_keeps_every_row_at_or_below_the_threshold, the moduli stage
    keeps every row that _may_hit keeps, and drops some rows at the nominal
    one; it keeps rows with v_N = 0 or a NaN modulus."""
    count = 2 * montecarlo._BLOCK
    xi = 1.2 if mode == "hn" else 1.0
    radii = 2.0 * bounding_radii(n_order, xi)
    lead = 1.0
    if mode == "volume":
        radii, lead = np.append(radii, 2.0), None
    blocks = list(_sample_disks(_chunk_generator(9300 + n_order, 0), count, radii))
    moduli = np.concatenate([r for r, _ in blocks])
    v = np.concatenate([_disk_points(r, w) for r, w in blocks])
    full = v if lead is None else np.concatenate([v, np.ones((count, 1))], axis=1)
    meas, _ = mu_rec_batch(full, 1e-9)
    for threshold in [xi] + list(np.quantile(meas[np.isfinite(meas)], [0.01, 0.1, 0.5])):
        kept = montecarlo._may_hit(v, lead, threshold)
        assert bool(np.all(montecarlo._moduli_may_hit(moduli, lead, threshold)[kept]))
    assert not np.all(montecarlo._moduli_may_hit(moduli, lead, xi))
    # a row far out of the screen, kept once it has v_N = 0 or a NaN entry
    far_out = radii.copy()
    if lead is None:
        far_out[-1] = 1.0
    assert montecarlo._moduli_may_hit(far_out[None, :], lead, xi).tolist() == [False]
    bad = np.tile(far_out, (2, 1))
    bad[0, -1], bad[1, 0] = (0.0 if lead is None else math.nan), math.nan
    assert montecarlo._moduli_may_hit(bad, lead, xi).tolist() == [True, True]


@pytest.mark.parametrize("n_order", [2])
def test_hn_screen_bounds_the_coefficients_the_kernel_solves(monkeypatch, n_order):
    """The hn screen forms q with the scalar lead 1, the kernel from rows
    that end in a column of ones, and every |q_k| agrees bit for bit: the
    screen's bound needs no margin for q's rounding."""
    v = _points(_chunk_generator(3, 0), 500, bounding_radii(n_order, 1.5))
    solved = []
    closed_form_roots = measure._closed_form_roots

    def recording(coeffs):
        solved.append(coeffs)
        return closed_form_roots(coeffs)

    monkeypatch.setattr(measure, "_closed_form_roots", recording)
    mu_rec_batch(np.concatenate([v, np.ones((len(v), 1))], axis=1), 1e-9)
    screened = np.abs(measure.y_coeffs(v, 1.0))
    assert screened[:, :-1].tobytes() == np.abs(solved[0])[:, :-1].tobytes()


@pytest.mark.parametrize("mode", ["hn", "volume"])
@pytest.mark.parametrize("n_order", [1, 2])
def test_screen_keeps_every_tally(monkeypatch, mode, n_order):
    """Hits and rejections against the run where every sample reaches the
    kernel, for seeds 0-9 on a partial last block, and on two chunks that
    two workers run on two threads when there are two CPUs."""

    def runs():
        for seed in range(10):
            if mode == "hn":
                yield mc_hN(n_order, 1.5, 10_000, seed=seed)
            else:
                yield mc_volume(n_order, 10_000, seed=seed)
        if mode == "hn":
            yield mc_hN(n_order, 1.5, 70_000, seed=10, workers=2)
        else:
            yield mc_volume(n_order, 70_000, seed=10, workers=2)

    screened = list(runs())
    _screen_off(monkeypatch)
    assert [_unscreened(est) for est in screened] == list(runs())


def test_rows_without_a_leading_coefficient_reach_the_kernel(monkeypatch):
    """A volume row with v_N = 0 and one with a NaN entry are not screened
    out: each scores as a rejection, and two rejections in 10^4 samples are
    over the cap."""
    sample = montecarlo._sample_disks

    def with_bad_rows(gen, count, radii):
        blocks = sample(gen, count, radii)
        r, w = next(blocks)
        r[5, -1] = 0.0
        r[7, 0] = math.nan
        yield r, w
        yield from blocks

    monkeypatch.setattr(montecarlo, "_sample_disks", with_bad_rows)
    with pytest.raises(NoConvergence, match="^2 of 10000 samples failed the root solve$"):
        mc_volume(2, 10_000, seed=1)


def test_solved_counts_the_rows_that_reach_the_kernel():
    """At N = 1 the moduli stage is the whole screen: a row reaches the
    kernel when |v_0| <= xi + |v_1|^2 / xi, which is 169/324 of the hn box
    at xi = 1.5 and 7/12 of the volume box."""
    for est, share in ((mc_hN(1, 1.5, 10_000, seed=2), 169 / 324),
                       (mc_volume(1, 10_000, seed=2), 7 / 12)):
        assert abs(est.solved / est.samples - share) < 0.02
    est = mc_hN(2, 1.5, 1 << 16, seed=1)
    assert 0 < est.solved <= 0.12 * est.samples
