"""Threshold selector checks: hand-traced curves, a naive reference
evaluator, grid construction, replay equivalence against the simulator,
and the decentralized-consensus property."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dropsim as ds
from dropsim import threshold
from dropsim.threshold import _mean_completed, write_curve_csv


def _naive_curve(latencies, comm_times, grid):
    """Reference evaluation: plain loops, no vectorization tricks."""
    iters, n, m = latencies.shape
    s_eff = []
    for tau in grid:
        per_iter = []
        for i in range(iters):
            t_i = max(latencies[i, w, :].sum() for w in range(n))
            completed = 0
            for w in range(n):
                cum = 0.0
                for j in range(m):
                    cum += latencies[i, w, j]
                    if cum < tau:
                        completed += 1
            m_tilde = completed / n
            tc = comm_times[i]
            per_iter.append(((t_i + tc) / (min(tau, t_i) + tc)) * (m_tilde / m))
        s_eff.append(float(np.mean(per_iter)))
    return np.asarray(s_eff)


def _random_trace(gen, iters, n, m, heavy=False):
    if heavy:
        lat = 0.05 + gen.lognormal(mean=-1.0, sigma=0.8, size=(iters, n, m))
    else:
        lat = 0.05 + gen.random((iters, n, m))
    comm = gen.random(iters) * 0.2
    return ds.TraceTensor(lat, comm)


class TestHandTraced:
    def test_single_iteration_two_point_grid(self):
        lat = np.full((1, 1, 2), 0.45)
        comm = np.array([0.1])
        res = ds.select_threshold(ds.TraceTensor(lat, comm), [0.5, 1.0])
        assert res.s_eff[0] == pytest.approx(5.0 / 6.0)
        assert res.s_eff[1] == pytest.approx(1.0)
        assert res.tau_star == 1.0

    def test_zero_variance_trace(self):
        lat = np.full((5, 4, 3), 0.2)
        res = ds.select_threshold(ds.TraceTensor(lat), [0.3, 0.45, 0.7])
        # Dropping on identical workers only discards compute.
        assert res.tau_star == 0.7
        assert res.s_eff_at_tau_star() == pytest.approx(1.0)

    def test_tie_breaks_to_largest_tau(self):
        lat = np.full((2, 2, 2), 0.2)
        res = ds.select_threshold(ds.TraceTensor(lat), [0.45, 0.6, 0.9])
        # All three thresholds admit both batches: identical speedup 1.
        assert np.allclose(res.s_eff, 1.0)
        assert res.tau_star == 0.9


class TestAgainstNaiveEvaluator:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_curve_matches(self, seed):
        gen = ds.RngStream(100 + seed).generator()
        trace = _random_trace(gen, iters=6, n=5, m=4, heavy=bool(seed % 2))
        grid = np.linspace(0.1, float(trace.latencies.sum(axis=2).max()) * 1.1, 40)
        res = ds.select_threshold(trace, grid)
        ref = _naive_curve(trace.latencies, trace.comm_times, grid)
        assert np.allclose(res.s_eff, ref, rtol=1e-12, atol=1e-12)
        assert res.tau_star == grid[int(np.argmax(ref))] or ref[int(np.argmax(ref))] == pytest.approx(max(ref))

    def test_argmax_agrees_exactly(self):
        gen = ds.RngStream(55).generator()
        trace = _random_trace(gen, iters=8, n=6, m=5)
        grid = np.linspace(0.2, 6.0, 200)
        res = ds.select_threshold(trace, grid)
        ref = _naive_curve(trace.latencies, trace.comm_times, grid)
        best = np.flatnonzero(ref == ref.max())[-1]  # ties to largest
        assert res.tau_star == grid[best]

    def test_slow_worker_fixture(self):
        # One of 8 workers runs 2x slower every iteration: the best budget
        # cuts the straggler and beats the no-drop baseline.
        gen = ds.RngStream(7).generator()
        iters, n, m = 40, 8, 12
        lat = 0.08 + 0.02 * gen.random((iters, n, m))
        lat[:, 0, :] *= 2.0
        trace = ds.TraceTensor(lat)
        res = ds.select_threshold(trace)
        slow_tn = lat[:, 0, :].sum(axis=1).mean()
        assert res.tau_star < slow_tn
        assert res.s_eff_at_tau_star() > 1.0


class TestDefaultGrid:
    def test_includes_anchor_above_max_step(self):
        gen = ds.RngStream(8).generator()
        trace = _random_trace(gen, 10, 4, 6)
        grid = ds.default_grid(trace)
        max_step = float(trace.latencies.sum(axis=2).max())
        assert grid.max() > max_step
        assert grid.size <= 257
        assert np.all(np.diff(grid) > 0)
        assert np.all(grid > 0)

    def test_anchor_gives_exact_unity(self):
        gen = ds.RngStream(9).generator()
        trace = _random_trace(gen, 12, 6, 5, heavy=True)
        res = ds.select_threshold(trace)
        assert res.s_eff[-1] == pytest.approx(1.0, abs=1e-12)

    def test_constant_trace_collapses(self):
        lat = np.full((4, 3, 5), 0.2)
        grid = ds.default_grid(ds.TraceTensor(lat))
        # Pooled cumulative times take only the M distinct values.
        assert grid.size <= 5 + 1
        for v in (0.2, 0.4, 0.6, 0.8, 1.0):
            assert np.any(np.abs(grid - v) < 1e-12)

    def test_default_grid_near_dense_grid_optimum(self):
        # Heavy-tail trace: the 256-quantile grid lands within 1% of a
        # 10^4-point uniform scan.
        model = ds.WorkerLatencyModel(1.0, ds.simulated_delay_noise(), noise_mode="additive_scaled_by_mean")
        fleet = ds.FleetSpec.homogeneous(16, model)
        sim = ds.run_detailed(ds.SimConfig(fleet, 12, t_comm=0.5, tau=None, iterations=400, seed=3))
        trace = ds.TraceTensor(sim.trace, sim.comm_times)
        res_default = ds.select_threshold(trace)
        steps = sim.trace.sum(axis=2)
        dense = np.linspace(float(steps.min()) * 0.5, float(steps.max()) * 1.05, 10_000)
        res_dense = ds.select_threshold(trace, dense)
        assert res_default.tau_star == pytest.approx(res_dense.tau_star, rel=0.01)
        assert res_default.s_eff_at_tau_star() == pytest.approx(res_dense.s_eff_at_tau_star(), rel=0.005)


class TestInvariants:
    def test_unity_above_max_step(self):
        gen = ds.RngStream(10).generator()
        trace = _random_trace(gen, 10, 4, 6)
        max_step = float(trace.latencies.sum(axis=2).max())
        taus = [np.nextafter(max_step, np.inf), max_step * 1.5, max_step * 10]
        res = ds.select_threshold(trace, taus)
        assert np.all(res.s_eff == pytest.approx(1.0, abs=1e-12))

    def test_drop_rate_nonincreasing(self):
        gen = ds.RngStream(11).generator()
        trace = _random_trace(gen, 15, 5, 8, heavy=True)
        res = ds.select_threshold(trace)
        assert np.all(np.diff(res.drop_rate) <= 1e-15)

    def test_speedup_at_optimum_at_least_one(self):
        gen = ds.RngStream(12).generator()
        for _ in range(50):
            trace = _random_trace(
                gen,
                int(gen.integers(1, 6)),
                int(gen.integers(1, 6)),
                int(gen.integers(1, 8)),
                heavy=bool(gen.integers(0, 2)),
            )
            res = ds.select_threshold(trace)
            assert res.s_eff_at_tau_star() >= 1.0 - 1e-12

    def test_replay_equivalence_with_simulator(self):
        fleet = ds.FleetSpec.homogeneous(6, ds.WorkerLatencyModel(0.5, ds.NormalNoise(0.0, 0.05)))
        sim = ds.run_detailed(ds.SimConfig(fleet, 8, t_comm=0.2, tau=None, iterations=50, seed=6))
        trace = ds.TraceTensor(sim.trace, sim.comm_times)
        for tau in (3.5, 3.9, 4.1, 4.6):
            curve = ds.select_threshold(trace, [tau])
            replay = ds.run_from_trace(sim.trace, sim.comm_times, tau)
            assert curve.s_eff[0] == replay.stats.s_eff
            assert curve.drop_rate[0] == replay.stats.drop_rate

    def test_selection_on_million_samples_under_five_seconds(self):
        gen = ds.RngStream(13).generator()
        lat = 0.05 + gen.random((350, 239, 12))  # ~1.0e6 samples
        trace = ds.TraceTensor(lat, gen.random(350) * 0.1)
        start = time.perf_counter()
        res = ds.select_threshold(trace)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert res.s_eff_at_tau_star() >= 1.0 - 1e-12


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_optimum_never_below_baseline(iters, n, m, seed):
    gen = ds.RngStream(seed, 200).generator()
    trace = _random_trace(gen, iters, n, m, heavy=bool(seed % 2))
    res = ds.select_threshold(trace)
    assert res.s_eff_at_tau_star() >= 1.0 - 1e-12
    assert res.tau_star in res.grid


@st.composite
def _cum_and_grid(draw):
    iters, n, m = (draw(st.integers(min_value=1, max_value=k)) for k in (4, 5, 6))
    # Dyadic latencies make cumulative times exact and often tied.
    value = st.one_of(st.sampled_from([0.25, 0.5, 1.0]),
                      st.floats(min_value=0.01, max_value=2.0))
    lat = draw(st.lists(value, min_size=iters * n * m, max_size=iters * n * m))
    cum = np.cumsum(np.reshape(lat, (iters, n, m)), axis=2)
    observed = draw(st.lists(st.sampled_from(cum.ravel().tolist()), max_size=6))
    others = draw(st.lists(st.floats(min_value=0.01, max_value=20.0), max_size=6))
    edges = [0.5 * cum.min(), np.nextafter(cum.max(), np.inf), 2.0 * cum.max()]
    return cum, np.unique(np.concatenate([observed, others, edges]))


@given(_cum_and_grid())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_histogram_kernel_matches_brute_force(case):
    cum, grid = case
    brute = (cum[..., None] < grid).sum(axis=2).mean(axis=1)
    assert np.array_equal(_mean_completed(cum, grid), brute)


@st.composite
def _pooled_traces(draw):
    """Traces of 1 to a few thousand pooled samples: continuous, tied or constant."""
    iters, n, m = (draw(st.integers(min_value=1, max_value=k)) for k in (30, 12, 12))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    kind = draw(st.sampled_from(["continuous", "ties", "constant"]))
    if kind == "continuous":
        lat = 0.01 + gen.lognormal(-1.0, 1.0, (iters, n, m))
    elif kind == "ties":
        lat = gen.choice([0.25, 0.5, 1.0, 0.1], (iters, n, m))
    else:
        lat = np.full((iters, n, m), draw(st.sampled_from([0.2, 1.0, 3.7])))
    return ds.TraceTensor(lat)


@given(_pooled_traces())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_default_grid_is_numpys_inverted_cdf_quantile(trace):
    cum = np.cumsum(trace.latencies, axis=2)
    qs = np.quantile(cum.ravel(), np.linspace(0.01, 1.0, 256), method="inverted_cdf")
    anchor = np.nextafter(cum[:, :, -1].max(), np.inf)
    expected = np.unique(np.concatenate([qs, [anchor]]))
    assert ds.default_grid(trace).tobytes() == expected.tobytes()


@st.composite
def _trace_and_grid(draw):
    """A trace of up to 60 iterations, enough for numpy's pairwise sum to
    differ from an in-order one, and 1 to 8 thresholds, some of them equal
    to an observed cumulative time."""
    iters, n, m = (draw(st.integers(min_value=1, max_value=k)) for k in (60, 6, 8))
    gen = ds.RngStream(draw(st.integers(min_value=0, max_value=2**32)), 201).generator()
    trace = _random_trace(gen, iters, n, m, heavy=draw(st.booleans()))
    cum = np.cumsum(trace.latencies, axis=2)
    tau = st.one_of(st.sampled_from(cum.ravel().tolist()),
                    st.floats(min_value=0.01, max_value=2.0 * float(cum.max())))
    return trace, draw(st.lists(tau, min_size=1, max_size=8))


@given(_trace_and_grid())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_every_grid_point_is_the_simulator_replay(case):
    trace, grid = case
    res = ds.select_threshold(trace, grid)
    for k, tau in enumerate(res.grid.tolist()):
        stats = ds.run_from_trace(trace.latencies, trace.comm_times, tau).stats
        alone = ds.select_threshold(trace, [tau])
        assert res.s_eff[k] == alone.s_eff[0] == stats.s_eff
        assert res.drop_rate[k] == alone.drop_rate[0] == stats.drop_rate


def _unblocked_curve(trace, grid):
    """The curve from whole (I, G) arrays, with brute-force counts, each
    column averaged in iteration order (for G >= 2 the bits of mean(axis=0))."""
    cum = np.cumsum(trace.latencies, axis=2)
    iters, _, m = cum.shape
    completed = (cum[..., None] < grid).sum(axis=2).mean(axis=1)
    step_compute = cum[:, :, -1].max(axis=1)
    comm = trace.comm_times
    ratio = (step_compute + comm)[:, None] / (
        np.minimum(grid[None, :], step_compute[:, None]) + comm[:, None])

    def mean(x):
        return np.cumsum(x, axis=0)[-1] / iters

    return (mean(ratio * (completed / m)), 1.0 - mean(completed) / m, mean(ratio))


class TestSortedKernel:
    def test_trace_untouched_and_repeat_calls_identical(self):
        gen = ds.RngStream(17).generator()
        trace = _random_trace(gen, 12, 5, 7, heavy=True)
        before = trace.latencies.tobytes()
        for grid in (None, np.linspace(0.1, 6.0, 50)):
            a = ds.select_threshold(trace, grid)
            b = ds.select_threshold(trace, grid)
            assert trace.latencies.tobytes() == before
            assert a.tau_star == b.tau_star
            for field in ("grid", "s_eff", "drop_rate", "step_speedup"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    @pytest.mark.parametrize("workers, micro, grid", [
        (4, 4, None), (4, 4, np.linspace(0.2, 3.0, 1024)), (8, 16, np.array([9.0]))],
        ids=["default", "dense", "one-point"])
    def test_tall_trace_matches_unblocked_formula(self, workers, micro, grid):
        gen = ds.RngStream(18).generator()
        trace = _random_trace(gen, 3000, workers, micro, heavy=True)
        grid = ds.default_grid(trace) if grid is None else grid
        # Tall enough for several blocks of iterations, whatever the grid size.
        assert 3000 > threshold._BLOCK_CELLS // max(grid.size + 1, workers * micro)
        res = ds.select_threshold(trace, grid)
        for got, want in zip((res.s_eff, res.drop_rate, res.step_speedup),
                             _unblocked_curve(trace, grid)):
            assert got.tobytes() == want.tobytes()

    def test_tall_trace_peak_memory_bounded(self):
        # 12.8 MB of latencies; whole (I, G) arrays would take about 800 MB.
        gen = ds.RngStream(19).generator()
        trace = ds.TraceTensor(0.05 + gen.random((100_000, 4, 4)))
        tracemalloc.start()
        try:
            ds.select_threshold(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestConsensus:
    def test_identical_copies_agree(self):
        # Every worker runs the selector on its own bitwise copy of the shared
        # trace, and all of them reach the same tau* and the same curve.
        gen = ds.RngStream(14).generator()
        trace = _random_trace(gen, 10, 8, 6)
        ref = ds.select_threshold(trace)
        for _ in range(8):
            copy = ds.TraceTensor(trace.latencies.copy(), trace.comm_times.copy())
            got = ds.select_threshold(copy)
            assert got.tau_star == ref.tau_star
            assert np.array_equal(got.curve, ref.curve)

    def test_worker_permutation_preserves_optimum(self):
        gen = ds.RngStream(16).generator()
        trace = _random_trace(gen, 10, 8, 6)
        perm = gen.permutation(8)
        permuted = ds.TraceTensor(trace.latencies[:, perm, :], trace.comm_times)
        a = ds.select_threshold(trace)
        b = ds.select_threshold(permuted)
        # Quantile grid and per-iteration means are symmetric in workers.
        assert a.tau_star == b.tau_star
        assert np.array_equal(a.s_eff, b.s_eff)


class TestValidationAndOutput:
    def test_trace_tensor_validation(self):
        with pytest.raises(ValueError):
            ds.TraceTensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            ds.TraceTensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.TraceTensor(np.ones((2, 2, 2)), np.ones(3))

    def test_empty_grid_rejected(self):
        trace = ds.TraceTensor(np.full((1, 1, 1), 0.5))
        with pytest.raises(ValueError):
            ds.select_threshold(trace, [])
        with pytest.raises(ValueError):
            ds.select_threshold(trace, [-1.0, 0.0])

    def test_curve_csv(self, tmp_path):
        trace = ds.TraceTensor(np.full((2, 2, 2), 0.4))
        res = ds.select_threshold(trace, [0.5, 0.9])
        path = tmp_path / "curve.csv"
        write_curve_csv(path, res)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,s_eff,drop_rate,step_speedup"
        assert len(lines) == 3
        assert float(lines[2].split(",")[0]) == 0.9
