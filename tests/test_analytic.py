"""Closed-form estimator checks against Monte-Carlo: the expected-maximum
approximation, expected completed counts, speedup curves, and the analytic
threshold optimum."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dropsim as ds
from dropsim import EULER_GAMMA, phi_cdf, phi_inv
from dropsim.stats import RngStream


class TestExpectedMaxTime:
    def test_deterministic_fleet(self):
        assert ds.expected_max_time(1.0, 0.0, 12, 64, 0.5) == pytest.approx(12.5)

    def test_single_worker(self):
        assert ds.expected_max_time(1.0, 0.1, 12, 1, 0.5) == pytest.approx(12.5)

    def test_blended_probit_arithmetic(self):
        # Direct composition of the published approximation.
        n = 64
        expected = 12.0 + math.sqrt(12 * 0.01) * (
            (1 - EULER_GAMMA) * phi_inv(1 - 1 / n) + EULER_GAMMA * phi_inv(1 - 1 / (math.e * n))
        )
        assert ds.expected_max_time(1.0, 0.1, 12, n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_against_mc_max(self, n):
        gen = RngStream(33, n).generator()
        sums = 12.0 + math.sqrt(12) * 0.1 * gen.standard_normal((50_000, n))
        mc = float(sums.max(axis=1).mean())
        assert ds.expected_max_time(1.0, 0.1, 12, n) == pytest.approx(mc, rel=0.02)

    def test_monotone_in_sigma_m_n(self):
        base = dict(mu=1.0, sigma=0.1, m=12, n=64, t_comm=0.0)
        ref = ds.expected_max_time(**base)
        assert ds.expected_max_time(**{**base, "sigma": 0.2}) > ref
        assert ds.expected_max_time(**{**base, "m": 13}) > ref
        assert ds.expected_max_time(**{**base, "n": 128}) > ref

    def test_sqrt_log_growth(self):
        # Quadrupling N twice: the centered excess grows like sqrt(log N).
        def excess(n):
            return ds.expected_max_time(1.0, 0.1, 12, n) - 12.0

        r1 = excess(256) / excess(64)
        r2 = excess(1024) / excess(256)
        assert r1 == pytest.approx(math.sqrt(math.log(256) / math.log(64)), rel=0.10)
        assert r2 == pytest.approx(math.sqrt(math.log(1024) / math.log(256)), rel=0.10)

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            ds.expected_max_time(1.0, -0.1, 12, 8)
        with pytest.raises(ValueError, match="m must be >= 1"):
            ds.expected_max_time(1.0, 0.1, 0, 8)
        with pytest.raises(ValueError, match="n must be >= 1"):
            ds.expected_max_time(1.0, 0.1, 12, 0)


class TestExpectedCompleted:
    def test_deterministic_counts(self):
        # The count is exact, so no domain warning, even at tau <= M*mu/2.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ds.expected_completed(1.0, 0.0, 2, 1.5) == 1.0
            assert ds.expected_completed(1.0, 0.0, 12, 12.5) == 12.0
            # Strict comparison: a budget exactly at the boundary drops the batch.
            assert ds.expected_completed(1.0, 0.0, 2, 2.0) == 1.0
            assert ds.expected_completed(1.0, 0.0, 12, 0.5) == 0.0
            assert ds.expected_completed(1.0, 0.0, 12, 3.5) == 3.0

    def test_gaussian_sum_value(self):
        # Eleven nearly-sure terms plus a half at the boundary term.
        val = ds.expected_completed(1.0, 0.1, 12, 12.0)
        assert val == pytest.approx(11.49, abs=0.01)
        direct = sum(phi_cdf((12.0 - m) / (0.1 * math.sqrt(m))) for m in range(1, 13))
        assert val == pytest.approx(direct, rel=1e-14)

    def test_limits(self):
        assert ds.expected_completed(1.0, 0.1, 12, 1e9) == pytest.approx(12.0)
        assert ds.expected_completed(1.0, 0.1, 12, float("inf")) == 12.0
        with pytest.warns(UserWarning):
            assert ds.expected_completed(1.0, 0.1, 12, 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_and_bounded(self):
        taus = np.linspace(4, 16, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals = [ds.expected_completed(1.0, 0.1, 12, t) for t in taus]
        assert np.all(np.diff(vals) >= 0)
        assert all(0 <= v <= 12 for v in vals)

    def test_warns_below_half_budget(self):
        with pytest.warns(UserWarning):
            ds.expected_completed(1.0, 0.1, 12, 5.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds.expected_completed(1.0, 0.1, 12, 6.1)

    def test_against_mc(self):
        gen = RngStream(35).generator()
        t = 1.0 + 0.1 * gen.standard_normal((100_000, 12))
        counts = (np.cumsum(t, axis=1) < 11.5).sum(axis=1)
        assert ds.expected_completed(1.0, 0.1, 12, 11.5) == pytest.approx(
            float(counts.mean()), abs=0.05
        )


class TestExpectedSpeedup:
    def test_infinite_budget_is_one(self):
        assert ds.expected_speedup(1.0, 0.1, 12, 64, np.inf, 0.5) == 1.0
        assert ds.expected_speedup(1.0, 0.1, 12, 64, 1e12, 0.5) == pytest.approx(1.0)

    def test_increasing_in_n(self):
        vals = [
            ds.expected_speedup(1.0, 0.1, 12, n, 11.8, 0.5)
            for n in (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
        ]
        assert np.all(np.diff(vals) > 0)

    def test_measured_et_override(self):
        base = ds.expected_speedup(1.0, 0.1, 12, 64, 11.8, 0.5)
        bumped = ds.expected_speedup(1.0, 0.1, 12, 64, 11.8, 0.5, measured_ET=15.0)
        assert bumped > base

    def test_gaussian_simulation_agreement(self):
        # CLT regime: the curve tracks a 64-worker simulation within 3%.
        fleet = ds.FleetSpec.homogeneous(64, ds.WorkerLatencyModel(1.0, ds.NormalNoise(0.0, 0.1)))
        sim = ds.run_detailed(ds.SimConfig(fleet, 12, t_comm=0.5, tau=None, iterations=1500, seed=42))
        taus = np.linspace(11.0, 14.0, 13)
        curve = ds.select_threshold(ds.TraceTensor(sim.trace, sim.comm_times), taus)
        for tau, s_sim in zip(curve.grid, curve.s_eff):
            s_an = ds.expected_speedup(1.0, 0.1, 12, 64, tau, 0.5)
            assert s_an == pytest.approx(s_sim, rel=0.03)

    def test_heavy_tail_needs_measured_et(self):
        # Heavy-tailed noise: the Gaussian expected-max underestimates the
        # step time, the measured-E[T] variant stays within 5%.
        model = ds.WorkerLatencyModel(1.0, ds.simulated_delay_noise(), noise_mode="additive_scaled_by_mean")
        mu, var = model.moments()
        sigma = math.sqrt(var)
        fleet = ds.FleetSpec.homogeneous(64, model)
        sim = ds.run_detailed(ds.SimConfig(fleet, 12, t_comm=0.5, tau=None, iterations=1500, seed=7))
        et = float(sim.stats.mean_step_base) - 0.5
        taus = np.linspace(0.9 * 12 * mu, 1.25 * et, 13)
        curve = ds.select_threshold(ds.TraceTensor(sim.trace, sim.comm_times), taus)
        worst_measured = 0.0
        worst_plain = 0.0
        for tau, s_sim in zip(curve.grid, curve.s_eff):
            s_meas = ds.expected_speedup(mu, sigma, 12, 64, tau, 0.5, measured_ET=et)
            s_plain = ds.expected_speedup(mu, sigma, 12, 64, tau, 0.5)
            worst_measured = max(worst_measured, abs(s_meas - s_sim) / s_sim)
            worst_plain = max(worst_plain, abs(s_plain - s_sim) / s_sim)
        assert worst_measured <= 0.05
        assert worst_plain > worst_measured


class TestOptimalThreshold:
    def test_deterministic_limit(self):
        assert ds.optimal_threshold_analytic(1.0, 0.0, 12, 0.5) == pytest.approx(12.0)
        assert ds.optimal_threshold_analytic(1.0, 1e-9, 12, 0.5) == pytest.approx(12.0, abs=1e-3)

    def test_matches_brute_force_grid(self):
        mu, sigma, m, tc = 1.0, 0.1, 12, 1.0
        tau_star = ds.optimal_threshold_analytic(mu, sigma, m, tc)
        grid = np.linspace(6.0, 12.0 + 6 * math.sqrt(12) * sigma, 10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            obj = [
                sum(phi_cdf((t - mm * mu) / (sigma * math.sqrt(mm))) for mm in range(1, m + 1)) / (t + tc)
                for t in grid
            ]
        brute = grid[int(np.argmax(obj))]
        assert tau_star == pytest.approx(brute, abs=grid[1] - grid[0])

    def test_local_optimality(self):
        mu, sigma, m, tc = 1.0, 0.1, 12, 1.0
        tau_star = ds.optimal_threshold_analytic(mu, sigma, m, tc)

        def objective(t):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return ds.expected_completed(mu, sigma, m, t) / (t + tc)

        assert objective(tau_star) >= objective(0.9 * tau_star)
        assert objective(tau_star) >= objective(1.1 * tau_star)

    def test_independent_of_worker_count(self):
        # The objective drops every N-dependent factor; the signature takes
        # no N at all. The optimum then maximizes measured speedup per N.
        tau_star = ds.optimal_threshold_analytic(1.0, 0.1, 12, 0.5)
        for n in (8, 64, 512):
            s_at = ds.expected_speedup(1.0, 0.1, 12, n, tau_star, 0.5)
            s_off = ds.expected_speedup(1.0, 0.1, 12, n, tau_star * 1.05, 0.5)
            assert s_at >= s_off

    @pytest.mark.parametrize("mu, sigma, m, tc", [
        (1.0, 0.1, 12, 0.5), (1.0, 0.1, 12, 0.0), (0.05, 0.03, 1, 0.2),
        (0.3, 0.2, 7, 2.0), (2.0, 0.5, 300, 1.0), (1.0, 1e-9, 12, 0.5)])
    def test_grid_is_the_per_point_loop(self, mu, sigma, m, tc):
        # Reference: the same search with each point scored one at a time;
        # the tiny-sigma case turns the objective into near-steps.
        ms = np.arange(1, m + 1, dtype=float)
        scale = np.sqrt(ms) * sigma

        def objective(tau):
            return float(np.sum(phi_cdf((tau - ms * mu) / scale)) / (tau + tc))

        lo, hi = m * mu / 2.0, m * mu + 6.0 * math.sqrt(m) * sigma
        grid = np.clip(np.logspace(math.log10(lo), math.log10(hi), 512), lo, hi)
        at = int(np.argmax([objective(t) for t in grid]))
        want, step = grid[at], max(np.diff(grid[max(at - 1, 0):at + 2]))
        for _ in range(7):
            step /= 16.0
            taus = np.clip(want + step * np.arange(-16, 17), lo, hi)
            want = taus[int(np.argmax([objective(t) for t in taus]))]
        want = float(want)
        got = ds.optimal_threshold_analytic(mu, sigma, m, tc)
        assert got.hex() == want.hex()
        assert objective(got).hex() == objective(want).hex()

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.tuples(st.floats(0.01, 5.0), st.floats(1e-3, 1.0), st.integers(1, 199),
                     st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
           .map(lambda c: (c[0], c[0] * c[1], c[2], c[3])))
    # The best value here lies below M*mu/2: a search that is not clipped
    # returns a tau outside its range.
    @example((1.289, 1.165, 5, 0.0))
    def test_returns_a_float_in_range_at_least_as_good_as_the_grid(self, case):
        mu, sigma, m, tc = case
        tau = ds.optimal_threshold_analytic(mu, sigma, m, tc)
        assert type(tau) is float
        lo, hi = m * mu / 2.0, m * mu + 6.0 * math.sqrt(m) * sigma
        assert lo <= tau <= hi
        ms = np.arange(1, m + 1, dtype=float)
        grid = np.clip(np.logspace(math.log10(lo), math.log10(hi), 512), lo, hi)
        near = np.clip([tau * (1 - 1e-6), tau * (1 + 1e-6)], lo, hi)
        taus = np.concatenate(([tau], grid, near))
        scores = phi_cdf((taus[:, None] - ms * mu) / (np.sqrt(ms) * sigma)).sum(axis=1) \
            / (taus + tc)
        # Never below the best grid point, which the old guard promised, and
        # no nearby point beats tau by more than rounding.
        assert scores[0] >= scores[1:-2].max()
        assert scores[-2:].max() <= scores[0] + 2 * math.ulp(scores[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ds.optimal_threshold_analytic(0.0, 0.1, 12, 0.5)
        with pytest.raises(ValueError):
            ds.optimal_threshold_analytic(1.0, -0.1, 12, 0.5)


# Each closed form checks its arguments in _check's order; the speedup checks
# measured_ET before the m that expected_completed checks.
@pytest.mark.parametrize("name, args, message", [
    ("expected_max_time", (1.0, 0.1, 0, 0), "m must be >= 1"),
    ("expected_completed", (1.0, 0.1, 0, 1.0), "m must be >= 1"),
    ("expected_completed", (1.0, 0.1, 3, 0.0), "tau must be > 0"),
    ("expected_completed", (1.0, -0.1, 0, 0.0), "sigma must be >= 0"),
    ("expected_speedup", (1.0, 0.1, 3, 0, 1.0), "n must be >= 1"),
    ("expected_speedup", (1.0, 0.1, 0, 3, 1.0, 0.0, -1.0),
     "measured_ET must be finite and > 0, got -1.0"),
    ("expected_speedup", (1.0, 0.1, 0, 0, 1.0, -1.0), "t_comm must be >= 0"),
    ("optimal_threshold_analytic", (1.0, 0.1, 0), "m must be >= 1"),
    ("optimal_threshold_analytic", (0.0, 0.1, 0), "mu must be > 0"),
])
def test_first_failing_check_names_its_argument(name, args, message):
    with pytest.raises(ValueError) as caught:
        getattr(ds, name)(*args)
    assert str(caught.value) == message
