"""Acceptance gate: twelve end-to-end checks covering the closed forms, the
timing simulator, the threshold selector, the SGD bound verifiers, and the
command-line surface. Each test prints one PASS/FAIL line (visible with
pytest -s) and enforces its stated runtime budget."""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

import dropsim as ds
from dropsim import cli
from dropsim.sgd import run_many


def _report(num, ok, desc, t0, budget):
    dt = time.time() - t0
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc} ({dt:.1f}s / budget {budget:.0f}s)"
    print(line)
    assert ok, line
    assert dt < budget, line


def _bern(p, b_max=100, n_workers=10):
    if p == 0.0:
        return ds.BatchSchedule(b_max)
    return ds.BatchSchedule(b_max, kind="per_worker_bernoulli",
                            n_workers=n_workers, p_drop=p)


def test_criterion_01_expected_completed_vs_mc():
    # Closed-form expected completed micro-batches against Monte Carlo with
    # 1e5 worker-iterations: absolute error at most 0.05 micro-batches.
    t0 = time.time()
    gen = ds.RngStream(2025, 1).generator()
    cum = np.cumsum(gen.normal(1.0, 0.1, (100_000, 12)), axis=1)
    worst = 0.0
    for tau in (11.0, 11.5, 12.0, 13.0):
        mc = float(np.mean(np.sum(cum < tau, axis=1)))
        an = ds.expected_completed(1.0, 0.1, 12, tau)
        worst = max(worst, abs(an - mc))
    _report(1, worst <= 0.05,
            f"closed-form completed count vs MC, worst |diff| {worst:.2e}", t0, 10)


def test_criterion_02_expected_max_vs_mc():
    # Blended-probit expected step time against the MC mean of the max of N
    # i.i.d. Gaussian step sums: relative error at most 3%.
    t0 = time.time()
    gen = ds.RngStream(2025, 2).generator()
    worst = 0.0
    for n in (8, 64, 512, 2048):
        sums = gen.normal(12.0, 0.1 * math.sqrt(12), (50_000, n))
        mc = float(sums.max(axis=1).mean())
        an = ds.expected_max_time(1.0, 0.1, 12, n)
        worst = max(worst, abs(an - mc) / mc)
    _report(2, worst <= 0.03,
            f"expected-max approximation vs MC, worst rel {worst:.2e}", t0, 30)


def test_criterion_03_sqrt_log_growth():
    # The excess step time over M*mu + T_c grows like sqrt(log N).
    t0 = time.time()
    ns = [2 ** k for k in range(3, 13)]
    x = np.sqrt(np.log(ns))
    y = np.array([ds.expected_max_time(1.0, 0.1, 12, n, 0.5)
                  - 12.0 - 0.5 for n in ns])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2))
    _report(3, r2 >= 0.98 and slope > 0,
            f"sqrt(log N) regression R^2 {r2:.5f}", t0, 60)


def test_criterion_04_analytic_vs_simulated_speedup():
    # Gaussian fleet: closed-form speedup within 3% of the trace-evaluated
    # curve; heavy-tailed fleet: the variant fed the measured mean step time
    # stays within 5%.
    t0 = time.time()
    fleet = ds.FleetSpec.homogeneous(
        64, ds.WorkerLatencyModel(1.0, ds.NormalNoise(0.0, 0.1)))
    sim = ds.run_detailed(ds.SimConfig(fleet, 12, t_comm=0.5, tau=None,
                                       iterations=1500, seed=42))
    curve = ds.select_threshold(ds.TraceTensor(sim.trace, sim.comm_times),
                                np.linspace(11.0, 14.0, 13))
    worst_gauss = max(
        abs(ds.expected_speedup(1.0, 0.1, 12, 64, tau, 0.5) - s_sim) / s_sim
        for tau, s_sim in zip(curve.grid, curve.s_eff))

    model = ds.WorkerLatencyModel(1.0, ds.simulated_delay_noise(),
                                  noise_mode="additive_scaled_by_mean")
    mu, var = model.moments()
    sigma = math.sqrt(var)
    fleet = ds.FleetSpec.homogeneous(64, model)
    sim = ds.run_detailed(ds.SimConfig(fleet, 12, t_comm=0.5, tau=None,
                                       iterations=1500, seed=7))
    et = float(sim.stats.mean_step_base) - 0.5
    curve = ds.select_threshold(ds.TraceTensor(sim.trace, sim.comm_times),
                                np.linspace(0.9 * 12 * mu, 1.25 * et, 13))
    worst_heavy = max(
        abs(ds.expected_speedup(mu, sigma, 12, 64, tau, 0.5, measured_ET=et)
            - s_sim) / s_sim
        for tau, s_sim in zip(curve.grid, curve.s_eff))
    _report(4, worst_gauss <= 0.03 and worst_heavy <= 0.05,
            f"speedup curves, gaussian {worst_gauss:.4f} heavy {worst_heavy:.4f}",
            t0, 60)


def _naive_curve(latencies, comm_times, grid):
    # Plain-loop reference: per-iteration speedup, then the mean.
    iters, n, m = latencies.shape
    out = []
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
            tc = comm_times[i]
            per_iter.append(((t_i + tc) / (min(tau, t_i) + tc))
                            * (completed / n / m))
        out.append(float(np.mean(per_iter)))
    return np.asarray(out)


def test_criterion_05_selector_correctness():
    t0 = time.time()
    gen = ds.RngStream(505, 0).generator()
    fixtures = [
        (np.full((4, 3, 3), 0.4), np.full(4, 0.1)),
        (np.abs(gen.normal(0.45, 0.05, (8, 6, 4))) + 1e-3, np.full(8, 0.3)),
        (np.where(gen.random((6, 4, 3)) < 0.5, 0.3, 0.6), gen.random(6) * 0.2),
        (0.05 + gen.random((5, 5, 5)), np.zeros(5)),
        (0.05 + gen.lognormal(-1.0, 0.8, (6, 4, 4)), np.full(6, 0.2)),
    ]
    if True:  # straggler fixture: slow down one worker
        fixtures[1][0][:, 0, :] *= 2.0
    ok = True
    for lat, comm in fixtures:
        grid = np.linspace(float(lat.min()) * 0.5,
                           float(lat.sum(axis=2).max()) * 1.1, 800)
        res = ds.select_threshold(ds.TraceTensor(lat, comm), grid)
        ref = _naive_curve(lat, comm, grid)
        best = int(np.flatnonzero(ref == ref.max())[-1])
        ok = ok and np.allclose(res.s_eff, ref, rtol=1e-12, atol=1e-12)
        ok = ok and res.tau_star == grid[best]

    gen = ds.RngStream(505, 1).generator()
    floor_ok = True
    for _ in range(1000):
        iters = int(gen.integers(1, 5))
        n = int(gen.integers(1, 6))
        m = int(gen.integers(1, 5))
        lat = 0.05 + gen.random((iters, n, m))
        comm = gen.random(iters) * 0.2
        res = ds.select_threshold(ds.TraceTensor(lat, comm))
        floor_ok = floor_ok and res.s_eff_at_tau_star() >= 1.0 - 1e-12
    _report(5, ok and floor_ok,
            "selector equals dense brute force; optimum never below baseline",
            t0, 60)


def test_criterion_06_speedup_monotone_in_scale():
    # Heavy-tailed per-micro-batch delays: auto-threshold speedup rises with
    # fleet size while baseline per-worker efficiency falls at least 15%
    # from 8 to 200 workers.
    t0 = time.time()
    fleet = ds.FleetSpec.homogeneous(
        8, ds.WorkerLatencyModel(1.0, ds.simulated_delay_noise(),
                                 noise_mode="additive_scaled_by_mean"))
    template = ds.SimConfig(fleet, 12, t_comm=0.5, iterations=250, seed=77)
    n_list = [8, 16, 32, 64, 128, 200, 256, 512, 1024, 2048]
    pts = ds.scale_sweep(template, n_list, tau_policy="auto",
                         warmup_iterations=100, max_workers=4)
    s = [p.s_eff for p in pts]
    rho = float(sps.spearmanr(n_list, s).statistic)
    eff = {p.n_workers: p.throughput_base / p.linear_ref for p in pts}
    eff_drop = (eff[8] - eff[200]) / eff[8]
    ok = rho > 0.95 and all(a < b for a, b in zip(s, s[1:])) and eff_drop >= 0.15
    _report(6, ok, f"scaling sweep, spearman {rho:.3f}, efficiency drop "
            f"{eff_drop:.3f}", t0, 120)


def test_criterion_07_convex_bound_cells():
    t0 = time.time()
    prob = ds.SgdProblem.quadratic(dimension=10, smoothness=1.0, sigma=1.0)
    reps = [ds.verify_convex_bound(prob, _bern(p), 100_000, seeds=100, seed=5)
            for p in (0.0, 0.1, 0.2)]
    worst = max(r.empirical / r.bound for r in reps)
    _report(7, all(r.passed for r in reps),
            f"averaged-iterate bound, worst emp/bound {worst:.3f}", t0, 120)


def test_criterion_08_nonconvex_bound_cells_and_slope():
    t0 = time.time()
    prob = ds.SgdProblem.logistic_synthetic(sin_amplitude=0.05)
    reps = [ds.verify_nonconvex_bound(prob, _bern(p), 100_000, seeds=100, seed=5)
            for p in (0.0, 0.1, 0.2)]
    ks = [1000, 10_000, 100_000, 1_000_000]
    emp = [ds.verify_nonconvex_bound(prob, _bern(0.1), k, seeds=30, seed=11).empirical
           for k in ks]
    slope = float(np.polyfit(np.log(ks), np.log(emp), 1)[0])
    ok = all(r.passed for r in reps) and -1.1 <= slope <= -0.4
    _report(8, ok, f"sampled-iterate bound, slope {slope:.3f}", t0, 180)


def test_criterion_09_equal_k_indistinguishable():
    t0 = time.time()
    prob = ds.SgdProblem.quadratic()
    res = run_many(prob, _bern(0.0), 100_000, rng=ds.RngStream(2026, 9), n_runs=100)
    base = prob.loss(res["theta_final"]) - prob.loss_star
    res = run_many(prob, _bern(0.1), 100_000, rng=ds.RngStream(2026, 10), n_runs=100)
    drop = prob.loss(res["theta_final"]) - prob.loss_star
    pval = float(sps.ttest_ind(base, drop, equal_var=False).pvalue)
    _report(9, pval > 0.01, f"equal-K final loss, welch p {pval:.3f}", t0, 120)


def test_criterion_10_compensation():
    t0 = time.time()
    plan = ds.TrainingPlan(1000, 100)
    out = ds.apply_compensation("extra_steps", plan, 0.9)
    exact = abs(out.extra_ratio - 1.0 / 9.0) <= 1e-12

    inflated = ds.apply_compensation("increased_batch", plan, 0.9).plan.b_max
    sched = ds.BatchSchedule(inflated, kind="per_worker_bernoulli",
                             n_workers=inflated, p_drop=0.1)
    gen = ds.RngStream(9).generator()
    realized = np.concatenate([sched.draw(s, 2500, gen, ds.RngStream(9))
                               for s in range(4)])
    restored = abs(float(realized.mean()) - 100.0) / 100.0 <= 0.01
    _report(10, exact and restored,
            f"compensation, ratio exact and batch mean {realized.mean():.2f}",
            t0, 30)


def test_criterion_11_local_sgd_never_worse():
    t0 = time.time()
    fleet = ds.FleetSpec.homogeneous(
        32, ds.WorkerLatencyModel(0.1, ds.NormalNoise(0.0, 0.01)))
    ok = True
    for h in (2, 4, 8):
        res = ds.local_sgd_run(fleet, h, 0.04, 1.0, mode="single_server",
                               iterations=2000, seed=h)
        ok = ok and res.dropcompute_speedup >= res.local_sgd_speedup
    _report(11, ok, "threshold on top of local SGD never slower", t0, 60)


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.time()

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "fleet": {"workers": 4, "base_mean": 1.0,
                  "noise": {"kind": "normal", "loc": 0.0, "std": 0.1}},
        "m_per_step": 3, "t_comm": 0.2, "tau": 1.5, "iterations": 30,
    }))
    trace_path = tmp_path / "trace.csv"
    gen = ds.RngStream(606).generator()
    ds.write_trace_csv(str(trace_path), 0.1 + gen.random((10, 4, 3)))
    comm_path = tmp_path / "comm.csv"
    ds.write_comm_csv(str(comm_path), np.full(10, 0.2))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "fleet": {"workers": 2, "base_mean": 1.0,
                  "noise": {"kind": "normal", "loc": 0.225, "std": 0.2236}},
        "m_per_step": 6, "t_comm": 0.5, "iterations": 40,
        "warmup_iterations": 20, "n_list": [2, 4, 8], "tau": "auto",
    }))
    bench_cfg = tmp_path / "bench.json"
    bench_cfg.write_text(json.dumps({
        "problem": {"kind": "quadratic"},
        "schedule": {"kind": "per_worker_bernoulli", "b_max": 100,
                     "n_workers": 10, "p_drop": 0.1},
        "k_total": 5000, "seeds": 5, "theorem": "convex",
    }))

    invocations = {
        "simulate": (["simulate", "--config", str(sim_cfg), "--seed", "42"],
                     ["records.csv", "summary.json"]),
        "select": (["select-threshold", "--trace", str(trace_path),
                    "--comm", str(comm_path)], ["curve.csv"]),
        "sweep": (["scale-sweep", "--config", str(sweep_cfg), "--seed", "42"],
                  ["sweep.csv"]),
        "bench": (["sgd-bench", "--config", str(bench_cfg), "--seed", "42"],
                  ["report.json"]),
    }
    ok = True
    for name, (argv, files) in invocations.items():
        outputs = {}
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            rc = cli.main(argv + ["--out", str(out)])
            ok = ok and rc == 0
            outputs[tag] = [(out / f).read_bytes() for f in files]
        ok = ok and outputs["a"] == outputs["b"]
    _report(12, ok, "all commands byte-identical across runs", t0, 60)
