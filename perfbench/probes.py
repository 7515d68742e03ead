"""Per-layer probes: one dropsim function at a time, at the workloads' shapes.

Each probe times one public dropsim function or method directly. Short
calls are repeated in batches and the median batch is reported, so that a
per-call figure in microseconds is not at the mercy of one scheduler hiccup.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import workloads as wl

_BATCHES = 5


def _per_call(fn, calls: int, batches: int = _BATCHES) -> float:
    """Median over batches of seconds per call."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def _once(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _median_of(fn, reps: int = 3) -> float:
    return statistics.median(_once(fn)[0] for _ in range(reps))


def stats_probes(seed: int) -> dict:
    from dropsim import RngStream

    root = RngStream(seed, 0)
    counter = iter(range(10**9))
    streams = [root.derive(i) for i in range(4000)]
    it = iter(streams * (_BATCHES + 1))
    return {
        "stats.derive_us": 1e6 * _per_call(lambda: root.derive(next(counter)), 4000),
        "stats.generator_us": 1e6 * _per_call(lambda: next(it).generator(), 800),
    }


def latency_probes(seed: int, fleet_inputs: dict, trace_inputs: dict, work: Path) -> dict:
    import dropsim as ds

    gen = ds.RngStream(seed, 1).generator()
    models = {
        # name: (model, (N, M) block shape of the workload op that draws it)
        "normal": (ds.WorkerLatencyModel(1.0, ds.NormalNoise(0.0, 0.1)), (8, 12), 2000),
        "lognormal": (ds.WorkerLatencyModel(1.0, ds.LogNormalNoise(
            wl.LOGNORMAL["log_mean"], wl.LOGNORMAL["log_std"])), (256, 12), 400),
        "empirical": (ds.WorkerLatencyModel(1.0, ds.EmpiricalNoise(
            tuple(fleet_inputs["empirical"].tolist()))), (64, 12), 40),
        "bounded_lognormal": (ds.WorkerLatencyModel(
            1.0, ds.simulated_delay_noise(), "additive_scaled_by_mean"), (256, 12), 400),
    }
    out = {f"latency.sample_{name}_us":
           1e6 * _per_call(lambda: model.sample(gen, shape), calls)
           for name, (model, shape, calls) in models.items()}
    path = work / "probe_trace.csv"
    out["latency.write_trace_csv_s"] = _once(
        lambda: ds.write_trace_csv(str(path), trace_inputs["lat"]))[0]
    path.unlink()
    return out


def simulate_probes(seed: int, fleet_inputs: dict, work: Path) -> tuple[dict, list]:
    import dropsim as ds
    from dropsim import simulate

    problems = []
    model = ds.WorkerLatencyModel(1.0, ds.LogNormalNoise(
        wl.LOGNORMAL["log_mean"], wl.LOGNORMAL["log_std"]))
    cfg = ds.SimConfig(ds.FleetSpec.homogeneous(256, model), 12, 0.5, 14.0, 1000,
                       fleet_inputs["cfg_seed"])
    detailed_s, sim = _once(lambda: ds.run_detailed(cfg))
    records = work / "probe_records.csv"
    write_s = _once(lambda: simulate.write_records_csv(str(records), sim.records))[0]
    records.unlink()
    replay_s, replay = _once(lambda: ds.run_from_trace(sim.trace, sim.comm_times, cfg.tau))
    if replay.stats.s_eff != sim.stats.s_eff:
        problems.append("run_from_trace disagrees with run_detailed on its own trace")

    small = ds.SimConfig(ds.FleetSpec.homogeneous(8, model), 4, 0.5, 4.6, 1, seed)
    root = ds.RngStream(seed, 0)
    counter = iter(range(10**9))
    iteration_us = 1e6 * _per_call(
        lambda: ds.simulate_iteration(small, next(counter), root), 400)

    template = ds.SimConfig(ds.FleetSpec.homogeneous(8, model), 12, 0.5, None,
                            wl.SWEEP_ITERATIONS, fleet_inputs["cfg_seed"])
    by_threads = {1: [], 2: []}
    points = {}
    for _ in range(3):
        for threads in (1, 2):
            dt, pts = _once(lambda: ds.scale_sweep(template, wl.SWEEP_N, "auto",
                                                   wl.WARMUP_ITERATIONS,
                                                   max_workers=threads))
            by_threads[threads].append(dt)
            points.setdefault(threads, pts)
            if pts != points[threads]:
                problems.append(f"scale_sweep not repeatable at {threads} threads")
    if points[1] != points[2]:
        problems.append("scale_sweep points differ between 1 and 2 threads")

    from dropsim import analytic

    mu, var = model.moments()
    exp_us = 1e6 * _per_call(lambda: analytic.expected_speedup(
        mu, var ** 0.5, 12, 512, 13.5, 0.5, measured_ET=13.2), 400)
    return {
        "simulate.run_detailed_s": detailed_s,
        "simulate.write_records_csv_s": write_s,
        "simulate.run_from_trace_s": replay_s,
        "simulate.iteration_us": iteration_us,
        "simulate.scale_sweep_t1_s": statistics.median(by_threads[1]),
        "simulate.scale_sweep_t2_s": statistics.median(by_threads[2]),
        "analytic.expected_speedup_us": exp_us,
    }, problems


def threshold_probes(trace_inputs: dict, work: Path) -> tuple[dict, list]:
    from dropsim import threshold

    problems = []
    lat, comm, dense = trace_inputs["lat"], trace_inputs["comm"], trace_inputs["grid"]
    trace = threshold.TraceTensor(lat, comm)
    grid = threshold.default_grid(trace)
    default_grid_s = _median_of(lambda: threshold.default_grid(trace))
    select_s, res = _once(lambda: threshold.select_threshold(trace, grid))
    dense_s, dense_res = _once(lambda: threshold.select_threshold(trace, dense))
    if not (res.s_eff_at_tau_star() >= 1.0 and dense_res.s_eff_at_tau_star() >= 1.0):
        problems.append("select_threshold optimum below the no-drop baseline")
    tracemalloc.start()
    try:
        threshold.select_threshold(trace, dense)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    curve = work / "probe_curve.csv"
    write_s = _once(lambda: threshold.write_curve_csv(str(curve), res))[0]
    curve.unlink()
    return {
        "threshold.default_grid_s": default_grid_s,
        "threshold.grid_points": float(grid.size),
        "threshold.select_s": select_s,
        "threshold.select_dense_s": dense_s,
        "threshold.ns_per_sample_candidate": 1e9 * dense_s / (lat.size * dense.size),
        "threshold.select_peak_mb": peak / 2**20,
        "threshold.write_curve_csv_s": write_s,
    }, problems


def sgd_probes(seed: int, sgd_inputs: dict) -> dict:
    import dropsim as ds

    gen = ds.RngStream(seed, 2).generator()
    rows = 100
    quad = ds.SgdProblem.quadratic(seed=sgd_inputs["data_seed"])
    logi = ds.SgdProblem.logistic_synthetic(sin_amplitude=0.05,
                                            seed=sgd_inputs["data_seed"])
    full = np.full(rows, 100)
    theta_q = np.tile(quad.theta1, (rows, 1))
    theta_l = np.tile(logi.theta1, (rows, 1))
    bern = ds.BatchSchedule(100, kind="per_worker_bernoulli", n_workers=10, p_drop=0.1)
    timing = wl.timing_schedule(sgd_inputs["base_seed"])
    rng = ds.RngStream(seed, 3)
    step = iter(range(10**9))
    return {
        "sgd.grad_sum_quadratic_us": 1e6 * _per_call(
            lambda: quad.grad_sum(theta_q, full, gen), 400),
        "sgd.grad_sum_logistic_us": 1e6 * _per_call(
            lambda: logi.grad_sum(theta_l, full, gen), 100),
        "sgd.draw_bernoulli_us": 1e6 * _per_call(
            lambda: bern.draw(next(step), rows, gen, rng), 2000),
        "sgd.draw_timing_us": 1e6 * _per_call(
            lambda: timing.draw(next(step), wl.TIMING_SCHEDULE["seeds"], gen, rng), 6),
    }


_IMPORT_SNIPPET = """
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.special, scipy.integrate, scipy.optimize
t2 = time.perf_counter()
import dropsim.cli
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2)
"""


def import_probes(env: dict, root: Path, reps: int = 3) -> dict:
    """Import cost of each layer of `dropsim.cli` from fresh interpreters."""
    parts = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET], env=env,
                              cwd=root, capture_output=True, text=True, timeout=60,
                              check=True)
        parts.append([float(v) for v in done.stdout.split()])
    med = [statistics.median(col) for col in zip(*parts)]
    return {"cli.import_numpy_s": med[0], "cli.import_scipy_s": med[1],
            "cli.import_dropsim_self_s": med[2]}
