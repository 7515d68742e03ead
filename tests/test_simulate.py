"""Simulator checks: hand-traced iterations, aggregate invariants, agreement
with the closed-form estimators, scaling sweeps, and the Local-SGD variant."""

import dataclasses
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dropsim as ds
from dropsim import cli
from dropsim.simulate import RECORDS_HEADER, write_records_csv


def _const_fleet(n, base=0.45):
    return ds.FleetSpec.homogeneous(n, ds.WorkerLatencyModel(base, ds.NoNoise()))


def _normal_fleet(n, mu=1.0, sigma=0.1):
    return ds.FleetSpec.homogeneous(n, ds.WorkerLatencyModel(mu, ds.NormalNoise(0.0, sigma)))


def _peak_bytes(call):
    """tracemalloc's peak over call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _heavy_fleet(n, base=1.0):
    return ds.FleetSpec.homogeneous(
        n,
        ds.WorkerLatencyModel(base, ds.simulated_delay_noise(), noise_mode="additive_scaled_by_mean"),
    )


class TestSingleIteration:
    def test_deterministic_baseline(self):
        cfg = ds.SimConfig(_const_fleet(1), 2, t_comm=0.1, tau=None)
        rec = ds.simulate_iteration(cfg, 0)
        assert rec.compute_times.shape == (1, 1)
        assert rec.compute_times[0, 0] == pytest.approx(0.9)
        assert rec.step_base[0] == pytest.approx(1.0)
        assert rec.completed[0, 0] == 2
        assert rec.s_eff[0] == 1.0

    def test_hand_traced_drop(self):
        # One worker, two 0.45 s micro-batches, budget 0.5: the first batch
        # finishes (0.45 < 0.5), the second is cut at the budget.
        cfg = ds.SimConfig(_const_fleet(1), 2, t_comm=0.1, tau=0.5)
        rec = ds.simulate_iteration(cfg, 0)
        assert rec.completed[0, 0] == 1
        assert rec.stop_times[0, 0] == pytest.approx(0.5)
        assert rec.step_drop[0] == pytest.approx(0.6)
        assert rec.s_eff[0] == pytest.approx(5.0 / 6.0)

    def test_threshold_above_compute_is_baseline(self):
        cfg_base = ds.SimConfig(_normal_fleet(8), 4, t_comm=0.2, tau=None, seed=3)
        cfg_tau = dataclasses.replace(cfg_base, tau=1e9)
        a = ds.simulate_iteration(cfg_base, 5)
        b = ds.simulate_iteration(cfg_tau, 5)
        assert np.array_equal(a.compute_times, b.compute_times)
        assert np.array_equal(a.completed, b.completed)
        assert b.step_drop[0] == b.step_base[0]
        assert b.s_eff[0] == 1.0

    def test_strict_comparison_at_exact_boundary(self):
        # Budget equal to the cumulative time does not count the batch.
        cfg = ds.SimConfig(_const_fleet(1), 2, tau=0.45)
        rec = ds.simulate_iteration(cfg, 0)
        assert rec.completed[0, 0] == 0
        just_above = ds.SimConfig(_const_fleet(1), 2, tau=np.nextafter(0.45, np.inf))
        rec2 = ds.simulate_iteration(just_above, 0)
        assert rec2.completed[0, 0] == 1

    def test_boundary_stop_mode(self):
        # Between-accumulations break: busy time ends at the last counted
        # batch boundary instead of exactly at the budget.
        cfg = ds.SimConfig(
            _const_fleet(1), 3, tau=1.0, stop_at_accumulation_boundary=True
        )
        rec = ds.simulate_iteration(cfg, 0)
        assert rec.completed[0, 0] == 2
        assert rec.stop_times[0, 0] == pytest.approx(0.9)
        default = ds.SimConfig(_const_fleet(1), 3, tau=1.0)
        rec2 = ds.simulate_iteration(default, 0)
        assert rec2.stop_times[0, 0] == pytest.approx(1.0)

    def test_boundary_stop_zero_completed(self):
        cfg = ds.SimConfig(
            _const_fleet(1), 2, tau=0.1, stop_at_accumulation_boundary=True
        )
        rec = ds.simulate_iteration(cfg, 0)
        assert rec.completed[0, 0] == 0
        assert rec.stop_times[0, 0] == 0.0

    def test_per_worker_invariants(self):
        cfg = ds.SimConfig(_normal_fleet(16), 6, t_comm=0.3, tau=5.0, seed=11)
        for i in range(20):
            rec = ds.simulate_iteration(cfg, i)
            assert np.all(rec.stop_times <= rec.compute_times + 1e-15)
            assert np.all((0 <= rec.completed) & (rec.completed <= 6))
            # A worker that finished everything under budget keeps all M.
            under = rec.compute_times < 5.0
            assert np.all(rec.completed[under] == 6)
            assert rec.step_base[0] == pytest.approx(np.max(rec.compute_times) + 0.3)


class TestRun:
    def test_baseline_speedup_is_exactly_one(self):
        stats = ds.run(ds.SimConfig(_normal_fleet(8), 4, t_comm=0.1, iterations=50, seed=1))
        assert stats.s_eff == 1.0
        assert stats.drop_rate == 0.0
        assert stats.mean_completed == 4.0
        assert stats.throughput == stats.throughput_base

    def test_step_time_is_max_plus_comm(self):
        sim = ds.run_detailed(ds.SimConfig(_normal_fleet(8), 4, t_comm=0.25, iterations=30, seed=2))
        rec = sim.records
        assert np.array_equal(rec.step_base, np.max(rec.compute_times, axis=1) + 0.25)

    def test_drop_step_never_slower(self):
        cfg = ds.SimConfig(_normal_fleet(32), 12, t_comm=0.5, tau=11.8, iterations=200, seed=4)
        sim = ds.run_detailed(cfg)
        assert np.all(sim.records.step_drop <= sim.records.step_base + 1e-15)
        assert sim.stats.mean_step_drop <= sim.stats.mean_step_base

    def test_drop_rate_limits(self):
        fleet = _normal_fleet(8)
        lo = ds.run(ds.SimConfig(fleet, 12, tau=1e-6, iterations=50, seed=5))
        hi = ds.run(ds.SimConfig(fleet, 12, tau=1e6, iterations=50, seed=5))
        assert lo.drop_rate == pytest.approx(1.0)
        assert hi.drop_rate == 0.0

    def test_expected_completed_agreement(self):
        # 10^5 worker-iterations against the Gaussian cumulative-count sum.
        cfg = ds.SimConfig(_normal_fleet(100), 12, tau=11.5, iterations=1000, seed=21)
        stats = ds.run(cfg)
        predicted = ds.expected_completed(1.0, 0.1, 12, 11.5)
        assert abs(stats.mean_completed - predicted) <= 0.05

    def test_speedup_at_analytic_optimum(self):
        tau_star = ds.optimal_threshold_analytic(1.0, 0.1, 12, 0.5)
        stats = ds.run(ds.SimConfig(_normal_fleet(64), 12, t_comm=0.5, tau=tau_star, iterations=2000, seed=9))
        predicted = ds.expected_speedup(1.0, 0.1, 12, 64, tau_star, 0.5)
        assert stats.s_eff == pytest.approx(predicted, rel=0.03)
        assert stats.s_eff > 1.0

    def test_heavy_tail_straggler_inflation(self):
        # With 200 heavy-tailed workers the synchronous step is far above a
        # single worker's mean compute.
        model = _heavy_fleet(200).workers[0]
        stats = ds.run(ds.SimConfig(_heavy_fleet(200), 12, iterations=300, seed=12))
        assert stats.mean_step_base / (12 * model.moments()[0]) > 1.3

    def test_determinism(self):
        cfg = ds.SimConfig(_normal_fleet(8), 4, t_comm=0.1, tau=3.9, iterations=40, seed=7)
        assert ds.run(cfg) == ds.run(cfg)

    def test_seed_changes_draws(self):
        cfg = ds.SimConfig(_normal_fleet(8), 4, tau=3.9, iterations=40, seed=7)
        other = dataclasses.replace(cfg, seed=8)
        assert ds.run(cfg) != ds.run(other)

    def test_heterogeneous_fleet(self):
        slow = ds.WorkerLatencyModel(0.9, ds.NoNoise())
        fast = ds.WorkerLatencyModel(0.45, ds.NoNoise())
        fleet = ds.FleetSpec((slow,) + (fast,) * 7)
        stats = ds.run(ds.SimConfig(fleet, 2, t_comm=0.1, iterations=10, seed=0))
        assert stats.mean_step_base == pytest.approx(1.9)

    def test_run_detailed_trace_shape(self):
        sim = ds.run_detailed(ds.SimConfig(_normal_fleet(5), 3, iterations=7, seed=1))
        assert sim.trace.shape == (7, 5, 3)
        assert sim.comm_times.shape == (7,)
        # Not len(sim.records): that counts the IterationBlock's fields.
        assert all(len(field) == 7 for field in sim.records)


class TestRunFromTrace:
    def test_replay_matches_live_run(self):
        cfg = ds.SimConfig(_normal_fleet(8), 6, t_comm=0.2, tau=5.9, iterations=60, seed=3)
        live = ds.run_detailed(cfg)
        replay = ds.run_from_trace(live.trace, live.comm_times, 5.9)
        assert replay.stats.s_eff == pytest.approx(live.stats.s_eff, abs=1e-12)
        assert replay.stats.mean_completed == live.stats.mean_completed
        assert replay.stats.mean_step_drop == pytest.approx(live.stats.mean_step_drop, abs=1e-12)

    def test_replay_baseline(self):
        trace = np.full((4, 2, 3), 0.45)
        out = ds.run_from_trace(trace, np.full(4, 0.1), None)
        assert out.stats.s_eff == 1.0
        assert out.stats.mean_step_base == pytest.approx(1.45)


@pytest.mark.parametrize("tau", ["abc", "1.0", True, False, -1.0, 0.0, math.nan])
def test_sim_config_rejects_tau_outside_the_rule(tau):
    with pytest.raises(ValueError, match="tau must be None or a number > 0"):
        ds.SimConfig(_const_fleet(4), 4, tau=tau)


class TestScaleSweep:
    def test_zero_variance_perfect_scaling(self):
        template = ds.SimConfig(_const_fleet(2), 4, t_comm=0.1, iterations=20, seed=1)
        pts = ds.scale_sweep(template, [2, 4, 8], tau_policy="auto", warmup_iterations=10)
        for pt in pts:
            assert pt.s_eff == pytest.approx(1.0)
            # Throughput per worker is constant, so N tracks the linear ref.
            assert pt.throughput_base == pytest.approx(pt.linear_ref)

    def test_speedup_grows_with_scale(self):
        template = ds.SimConfig(_heavy_fleet(8), 12, t_comm=0.5, iterations=120, seed=77)
        pts = ds.scale_sweep(template, [8, 32, 128], tau_policy="auto", warmup_iterations=60)
        s = [pt.s_eff for pt in pts]
        assert s[0] < s[1] < s[2]
        assert all(x > 1.0 for x in s)

    def test_thread_count_does_not_change_results(self):
        template = ds.SimConfig(_heavy_fleet(4), 6, t_comm=0.2, iterations=40, seed=5)
        seq = ds.scale_sweep(template, [4, 8, 16], warmup_iterations=20, max_workers=1)
        par = ds.scale_sweep(template, [4, 8, 16], warmup_iterations=20, max_workers=8)
        assert seq == par

    def test_starts_no_thread(self, monkeypatch):
        # max_workers is accepted but the points run on the calling thread.
        template = ds.SimConfig(_heavy_fleet(4), 6, t_comm=0.2, iterations=40, seed=5)
        seq = ds.scale_sweep(template, [4, 8, 16], warmup_iterations=20, max_workers=1)

        def refuse(thread):
            raise AssertionError(f"scale_sweep started {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert ds.scale_sweep(template, [4, 8, 16], warmup_iterations=20,
                              max_workers=4) == seq

    def test_rejects_unsorted_n_list(self):
        template = ds.SimConfig(_const_fleet(2), 4, iterations=5)
        with pytest.raises(ValueError):
            ds.scale_sweep(template, [8, 4])
        with pytest.raises(ValueError):
            ds.scale_sweep(template, [])

    def test_rejects_a_mixed_fleet_template(self):
        fast = ds.WorkerLatencyModel(1.0, ds.NoNoise())
        slow = ds.WorkerLatencyModel(2.0, ds.NoNoise())
        template = ds.SimConfig(ds.FleetSpec((fast, slow)), 4, iterations=5)
        with pytest.raises(ValueError) as caught:
            ds.scale_sweep(template, [2, 4])
        assert str(caught.value) == "scale_sweep requires a homogeneous fleet template"

    @pytest.mark.parametrize("max_workers", [0, -2])
    def test_rejects_fewer_than_one_thread(self, max_workers):
        template = ds.SimConfig(_const_fleet(2), 4, iterations=5)
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            ds.scale_sweep(template, [2, 4], max_workers=max_workers)

    def test_fixed_tau_policy(self):
        template = ds.SimConfig(_normal_fleet(4), 12, t_comm=0.5, iterations=40, seed=2)
        pts = ds.scale_sweep(template, [4, 8], tau_policy=11.9, warmup_iterations=5)
        assert all(pt.tau == 11.9 for pt in pts)


class TestAutoTau:
    def test_warmup_draws_apart_from_the_measured_run(self):
        cfg = ds.SimConfig(_normal_fleet(6), 4, t_comm=0.2, iterations=25, seed=13)
        tau = ds.simulate.auto_tau(cfg, 30)
        warm = ds.run_detailed(dataclasses.replace(cfg, iterations=30),
                               rng=ds.RngStream(13, ds.simulate.AUTO_TAU_STREAM))
        assert tau == ds.select_threshold(ds.TraceTensor(warm.trace, warm.comm_times)).tau_star
        measured = ds.run_detailed(dataclasses.replace(cfg, tau=tau))
        assert not np.isin(measured.trace, warm.trace).any()

    def test_explicit_stream(self):
        cfg = ds.SimConfig(_normal_fleet(6), 4, t_comm=0.2, seed=13)
        rng = ds.RngStream(13, 0).derive(6, 0)
        warm = ds.run_detailed(dataclasses.replace(cfg, iterations=20), rng=rng)
        want = ds.select_threshold(ds.TraceTensor(warm.trace, warm.comm_times)).tau_star
        assert ds.simulate.auto_tau(cfg, 20, rng) == want

    def test_search_holds_about_two_warmups(self):
        # The draw, turned into cumulative times in place, plus the default
        # grid's pooled sort; a copy for TraceTensor and one for np.cumsum
        # would bring it to more than four.
        n, warmup, m = 512, 100, 12
        model = ds.WorkerLatencyModel(0.1, ds.LogNormalNoise(math.log(0.02), 0.5))
        cfg = ds.SimConfig(ds.FleetSpec.homogeneous(n, model), m, t_comm=0.05, seed=1)
        assert _peak_bytes(lambda: ds.simulate.auto_tau(cfg, warmup)) <= 2.5 * warmup * n * m * 8

    def test_overflowing_warmup_is_rejected(self):
        # exp(800) overflows to inf, which the selector must not rank.
        model = ds.WorkerLatencyModel(1.0, ds.LogNormalNoise(800.0, 1.0))
        cfg = ds.SimConfig(ds.FleetSpec.homogeneous(4, model), 3)
        with pytest.raises(ValueError, match="latencies must be finite and > 0"):
            ds.simulate.auto_tau(cfg, 5)


class TestLocalSgd:
    def test_no_stragglers_no_gain(self):
        fleet = _const_fleet(32, base=0.1)
        res = ds.local_sgd_run(fleet, 4, 0.0, 1.0, mode="uniform", iterations=500, seed=1)
        assert res.local_sgd_speedup == pytest.approx(1.0, abs=1e-9)
        assert res.dropcompute_speedup == pytest.approx(1.0, abs=1e-9)

    def test_uniform_speedup_increases_with_period(self):
        fleet = ds.FleetSpec.homogeneous(32, ds.WorkerLatencyModel(0.1, ds.NormalNoise(0.0, 0.01)))
        speedups = [
            ds.local_sgd_run(fleet, h, 0.04, 1.0, mode="uniform", iterations=2000, seed=4).local_sgd_speedup
            for h in (2, 4, 8)
        ]
        assert all(s > 1.0 for s in speedups)
        assert speedups[0] < speedups[1] < speedups[2]

    def test_single_server_drop_never_worse(self):
        fleet = ds.FleetSpec.homogeneous(32, ds.WorkerLatencyModel(0.1, ds.NormalNoise(0.0, 0.01)))
        for h in (2, 4, 8):
            res = ds.local_sgd_run(fleet, h, 0.04, 1.0, mode="single_server", iterations=2000, seed=h)
            assert res.dropcompute_speedup >= res.local_sgd_speedup

    def test_single_server_rate_the_server_cannot_carry_raises(self):
        # Half of 256 workers cannot straggle on a server of 8: a group
        # probability capped at 1 straggled 8/256 of the fleet, not 0.5.
        fleet = _const_fleet(256, base=0.1)
        with pytest.raises(ValueError, match="straggler_prob 0.5, 256 workers and server_size 8"):
            ds.local_sgd_run(fleet, 2, 0.5, 1.0, mode="single_server", iterations=20)
        # At straggler_prob * N == server_size every server worker straggles
        # at every step, and the fleet's rate is kept.
        res = ds.local_sgd_run(fleet, 2, 8 / 256, 1.0, mode="single_server", iterations=20)
        assert res.sync_step_time == pytest.approx(1.1)
        # uniform mode takes any rate in [0, 1]
        ds.local_sgd_run(fleet, 2, 0.5, 1.0, mode="uniform", iterations=20)

    def test_validation(self):
        fleet = _const_fleet(4)
        with pytest.raises(ValueError):
            ds.local_sgd_run(fleet, 0, 0.04, 1.0)
        with pytest.raises(ValueError):
            ds.local_sgd_run(fleet, 2, 1.5, 1.0)
        with pytest.raises(ValueError):
            ds.local_sgd_run(fleet, 2, 0.04, 1.0, mode="bogus")
        with pytest.raises(ValueError, match="server_size"):
            ds.local_sgd_run(fleet, 2, 0.04, 1.0, mode="single_server", server_size=0)
        for tau in (-1.0, 0.0, math.nan, "1.0", True):
            with pytest.raises(ValueError, match="tau must be None or a number > 0"):
                ds.local_sgd_run(fleet, 2, 0.04, 1.0, tau=tau)

    def test_positive_threshold_accepted(self):
        fleet = _const_fleet(8, base=0.1)
        for tau in (2, 0.5, np.float64(0.5)):
            res = ds.local_sgd_run(fleet, 4, 0.04, 1.0, iterations=200, tau=tau, seed=2)
            assert res.tau == tau and res.dropcompute_speedup >= res.local_sgd_speedup

    def test_peak_memory_within_three_step_arrays(self):
        # The sampled times are floored and delayed in their own buffer, and
        # the uniform draws live only until the straggler mask is built.
        steps, n = 2000, 256
        fleet = _normal_fleet(n, mu=0.1, sigma=0.01)
        peak = _peak_bytes(lambda: ds.local_sgd_run(fleet, 4, 0.04, 1.0, iterations=steps,
                                                    seed=1))
        assert peak <= 3 * steps * n * 8

    @pytest.mark.parametrize("mixed", [False, True])
    def test_step_s_draws_from_derive_0_s(self, mixed):
        # No straggler and tau above every time: the synchronous step is the
        # largest worker time. Step s draws each worker's time in turn from
        # one fresh generator of RngStream(seed, 0).derive(0, s).
        fast = ds.WorkerLatencyModel(0.1, ds.GammaNoise(2.0, 40.0))
        slow = ds.WorkerLatencyModel(0.3, ds.EmpiricalNoise((-0.05, 0.0, 0.1)))
        fleet = ds.FleetSpec((fast, fast, slow, fast, slow) if mixed else (fast,) * 5)
        steps, seed = 60, 12
        res = ds.local_sgd_run(fleet, 3, 0.0, 1.0, iterations=steps, tau=100.0, seed=seed)
        maxes = np.empty(steps)
        for s in range(steps):
            stream = ds.RngStream(seed, 0).derive(0, s)
            gen = np.random.Generator(np.random.Philox(
                key=stream.seed | (stream.stream_id << 64)))
            maxes[s] = max(max(model.base_mean + model.noise.sample(gen, 1)[0],
                               1e-6 * model.base_mean) for model in fleet.workers)
        assert res.sync_step_time == float(maxes.sum()) / steps
        assert res.dropcompute_step_time == res.local_sgd_step_time

    def test_determinism(self):
        fleet = _const_fleet(8, base=0.1)
        a = ds.local_sgd_run(fleet, 4, 0.04, 1.0, iterations=300, seed=9)
        b = ds.local_sgd_run(fleet, 4, 0.04, 1.0, iterations=300, seed=9)
        assert a == b


class TestRecordsOutput:
    def test_records_csv_round_trip_text(self, tmp_path):
        sim = ds.run_detailed(ds.SimConfig(_normal_fleet(3), 2, tau=1.9, iterations=2, seed=0))
        path = tmp_path / "records.csv"
        write_records_csv(path, sim.records)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(RECORDS_HEADER)
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == sim.records.compute_times[0, 0]

    def test_stats_json_has_no_timestamps(self, tmp_path, capsys):
        doc = {"fleet": {"workers": 2, "base_mean": 1.0,
                         "noise": {"kind": "normal", "loc": 0.0, "std": 0.1}},
               "m_per_step": 2, "iterations": 2, "seed": 0}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(tmp_path / "c.json"),
                         "--out", str(tmp_path)]) == 0
        blob = (tmp_path / "summary.json").read_text()
        assert "time_stamp" not in blob and "date" not in blob
        assert f'"config_hash": "{cli._config_hash(doc)}"' in blob


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.05, max_value=4.0),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_speedup_definition_consistency(n, m, tau, seed):
    # Pathwise identity: the aggregate speedup equals the mean of
    # per-iteration ((T+Tc)/(stop+Tc)) * (completed/M) on the same draws,
    # including steps that complete nothing.
    cfg = ds.SimConfig(_normal_fleet(n, mu=0.5, sigma=0.05), m, t_comm=0.1, tau=tau, iterations=8, seed=seed)
    sim = ds.run_detailed(cfg)
    per_iter = []
    rec = sim.records
    for k in range(len(rec.s_eff)):
        frac = np.mean(rec.completed[k]) / m
        per_iter.append((rec.step_base[k] / rec.step_drop[k]) * frac)
    assert sim.stats.s_eff == pytest.approx(float(np.mean(per_iter)), rel=1e-12)


# Metamorphic contract: in additive_scaled_by_mean mode every time is the
# base mean times a draw that does not depend on it, so scaling base_mean,
# t_comm and tau by a power of two scales the trace exactly and leaves every
# ratio (s_eff, drop_rate) bit for bit. This catches an absolute epsilon or
# floor in the engine.

_SCALED_NOISE = {
    "normal": lambda: ds.NormalNoise(0.0, 0.2),
    "exponential": lambda: ds.ExponentialNoise(3.0),
    "lognormal": lambda: ds.LogNormalNoise(-1.5, 0.8),
    "simulated_delay": ds.simulated_delay_noise,
}


@given(st.sampled_from(sorted(_SCALED_NOISE)), st.booleans(), st.booleans(),
       st.sampled_from([2.0, 0.5]), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=5), st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.3, max_value=1.5),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_scaling_the_time_unit_scales_the_trace_alone(kind, mixed, boundary, scale, n, m,
                                                      base, t_comm, tau_frac, seed):
    def config(c):
        noise = _SCALED_NOISE[kind]()
        models = [ds.WorkerLatencyModel(c * base * (1.0 + (mixed and w % 2)), noise,
                                        "additive_scaled_by_mean") for w in range(n)]
        return ds.SimConfig(ds.FleetSpec(tuple(models)), m, c * t_comm,
                            c * tau_frac * base * m, 12, seed, boundary)

    ref, got = ds.run_detailed(config(1.0)), ds.run_detailed(config(scale))
    assert got.trace.tobytes() == (ref.trace * scale).tobytes()
    assert got.stats.s_eff == ref.stats.s_eff
    assert got.stats.drop_rate == ref.stats.drop_rate
