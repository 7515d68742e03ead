"""Golden digests of outputs for fixed seeds.

The simulator digests were recorded before the simulator moved from
per-iteration loops to the block engine, and the SGD digests before the
logistic gradient kernel was rewritten; both reproduced every one. They pin
the mapping from seeds to random draws: a change that alters any of them
changes which numbers a seed produces, and has to say so.
"""

import hashlib
import json

import numpy as np

import dropsim as ds
from dropsim import cli
from dropsim.sgd import run_many


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _mixed_fleet():
    fast = ds.WorkerLatencyModel(0.5, ds.NormalNoise(0.0, 0.05))
    slow = ds.WorkerLatencyModel(1.0, ds.simulated_delay_noise(), "additive_scaled_by_mean")
    emp = ds.WorkerLatencyModel(0.6, ds.EmpiricalNoise((-0.1, 0.0, 0.05, 0.2)))
    return ds.FleetSpec((fast, slow, fast, emp, fast))


def test_cli_simulate_fixed_tau(tmp_path, capsys):
    doc = {"fleet": {"workers": 6, "base_mean": 1.0,
                     "noise": {"kind": "lognormal", "log_mean": -2.0, "log_std": 0.5}},
           "m_per_step": 4, "t_comm": 0.3, "tau": 4.4, "iterations": 70, "seed": 11}
    (tmp_path / "s.json").write_text(json.dumps(doc))
    out = tmp_path / "s"
    assert cli.main(["simulate", "--config", str(tmp_path / "s.json"), "--out", str(out)]) == 0
    assert _sha((out / "records.csv").read_bytes(), (out / "summary.json").read_bytes()) == \
        "888b1a318648900bca52e3b07af90b931aca0a151494c892a28c4d77a1055ecd"


def _cli_simulate_digest(tmp_path, doc) -> str:
    (tmp_path / "s.json").write_text(json.dumps(doc))
    out = tmp_path / "s"
    assert cli.main(["simulate", "--config", str(tmp_path / "s.json"), "--out", str(out)]) == 0
    return _sha((out / "records.csv").read_bytes(), (out / "summary.json").read_bytes())


# Recorded before simulate streamed records.csv from the block engine, on
# the paths the fixed-tau digest misses: an auto tau, no tau, and stops at
# the accumulation boundary, where workers that count no micro-batch stop
# at 0.0.
def test_cli_simulate_auto_tau(tmp_path, capsys):
    doc = {"fleet": {"workers": 8, "base_mean": 1.0,
                     "noise": {"kind": "lognormal", "log_mean": -1.5, "log_std": 1.2}},
           "m_per_step": 3, "t_comm": 0.2, "tau": "auto", "iterations": 60,
           "warmup_iterations": 30, "seed": 13}
    assert _cli_simulate_digest(tmp_path, doc) == \
        "7766762e9102d4718c0d56407852ca1559e04f750441677dd46f5dde44e8c03a"


def test_cli_simulate_no_tau(tmp_path, capsys):
    doc = {"fleet": {"workers": 7, "base_mean": 0.5,
                     "noise": {"kind": "normal", "loc": 0.0, "std": 0.1}},
           "m_per_step": 5, "tau": None, "iterations": 40, "seed": 17}
    assert _cli_simulate_digest(tmp_path, doc) == \
        "072222e084c8a4f54a4c37948bc12fb699a036a4a7ab908fdbb578ea5be0e8f4"


def test_cli_simulate_accumulation_boundary(tmp_path, capsys):
    doc = {"fleet": {"workers": 6, "base_mean": 1.0,
                     "noise": {"kind": "exponential", "rate": 2.0}},
           "m_per_step": 4, "t_comm": 0.1, "tau": 1.6, "iterations": 50, "seed": 19,
           "stop_at_accumulation_boundary": True}
    assert _cli_simulate_digest(tmp_path, doc) == \
        "f50cec27c6197f33f5117c046896217915215ed26bc1a50d5affba7df47a71f2"


def test_cli_scale_sweep(tmp_path, capsys):
    doc = {"fleet": {"workers": 2, "base_mean": 1.0,
                     "noise": {"kind": "normal", "loc": 0.2, "std": 0.2}},
           "m_per_step": 5, "t_comm": 0.4, "tau": "auto", "iterations": 40,
           "warmup_iterations": 25, "seed": 23, "n_list": [3, 9, 27]}
    (tmp_path / "w.json").write_text(json.dumps(doc))
    out = tmp_path / "w"
    assert cli.main(["scale-sweep", "--config", str(tmp_path / "w.json"),
                     "--out", str(out)]) == 0
    assert _sha((out / "sweep.csv").read_bytes()) == \
        "8bbfbe06e1a1fbe242796eb0f0ec65d54a2f37a763c02a4888262df2972d580f"


# Re-recorded when a mixed fleet's iteration came to draw its whole (N, M)
# matrix from one stream in worker order, as a homogeneous fleet does, in
# place of one stream per worker.
def test_mixed_fleet_run_detailed():
    want = {False: "e415ed09d75c76cb0cd4c76a9db6774275ddc5cb552bb17df4b23d21d94841a7",
            True: "e40d98a89e12b13c708ccebd6249d79ac2ef293ff051ec51a77f84f4e1212566"}
    for boundary, digest in want.items():
        sim = ds.run_detailed(ds.SimConfig(_mixed_fleet(), 3, 0.1, 2.2, 45, 31, boundary))
        r = sim.records
        rows = [np.concatenate([r.compute_times[k], r.stop_times[k],
                                r.completed[k].astype(float),
                                [r.step_base[k], r.step_drop[k], r.s_eff[k]]]).tobytes()
                for k in range(len(r.s_eff))]
        assert _sha(sim.trace.tobytes(), repr(sim.stats), *rows) == digest


# Both digests were re-recorded when a timing-driven step s came to be
# iteration s of the schedule stream for the runs' fleets stacked in run
# order, in place of iteration 0 of one stream rng.derive(s, r) per run.
def test_timing_driven_schedule_draws():
    model = ds.WorkerLatencyModel(1.0, ds.LogNormalNoise(-2.0, 0.5))
    sim = ds.SimConfig(ds.FleetSpec.homogeneous(4, model), 3, 0.5, 3.6, 1, 5)
    schedule = ds.BatchSchedule(96, kind="timing_driven", sim=sim)
    rng = ds.RngStream(41, 4)
    assert _sha(*[schedule.draw(step, 12, None, rng).tobytes() for step in range(25)]) == \
        "7a0174f8f191ed531998868870dfd30093f23e69f01e3b7829a75461e9ed01f8"
    # Re-recorded before that when a mixed fleet's step came to draw from the
    # run's one stream in worker order, no longer from one stream per worker;
    # the homogeneous digest above did not move then. This fleet's last worker
    # equals its first, so stacked runs join at each boundary.
    mixed = ds.BatchSchedule(30, kind="timing_driven",
                             sim=ds.SimConfig(_mixed_fleet(), 3, 0.1, 2.2, 1, 5))
    assert _sha(*[mixed.draw(step, 7, None, rng).tobytes() for step in range(10)]) == \
        "42d4adda1e824c550a02323e6800d6933dc03e654e08ffb6b7e1796b28262a42"


def _sgd_bench_report(tmp_path, name, problem, schedule, k_total, seeds, theorem):
    doc = {"problem": problem, "schedule": schedule, "k_total": k_total,
           "seeds": seeds, "theorem": theorem, "seed": 13}
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    out = tmp_path / name
    assert cli.main(["sgd-bench", "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(out)]) == 0
    return (out / "report.json").read_bytes()


def test_sgd_bench_convex_quadratic(tmp_path, capsys):
    report = _sgd_bench_report(
        tmp_path, "convex", {"kind": "quadratic", "dimension": 6, "seed": 3},
        {"kind": "per_worker_bernoulli", "b_max": 40, "n_workers": 4, "p_drop": 0.2},
        6000, 12, "convex")
    assert _sha(report) == \
        "db16ac81bac6a410ac03719b5ed64b0b27f1d2ce95c3c3cf3d4f17d830884063"


def test_sgd_bench_nonconvex_logistic(tmp_path, capsys):
    # Two workers that each drop half the time: a quarter of the steps
    # deliver no samples to a run, so grad_sum sees b = 0 rows. Re-recorded
    # when the logistic optimum moved from L-BFGS-B to a Newton solve: its
    # theta_star is exact to roundoff, loss_star is 1 ulp lower, and so the
    # report's bound and margin moved in their last digits. Re-recorded again
    # when the smoothness became the Hessian's top eigenvalue in place of 200
    # power-iteration steps: it rose by 8e-12 relative, and with it the step
    # size, bound and margin in their last digits.
    report = _sgd_bench_report(
        tmp_path, "nonconvex",
        {"kind": "logistic_synthetic", "dimension": 5, "n_samples": 96,
         "sin_amplitude": 0.05, "seed": 4},
        {"kind": "per_worker_bernoulli", "b_max": 16, "n_workers": 2, "p_drop": 0.5},
        3000, 10, "nonconvex")
    assert _sha(report) == \
        "22ce00d965f554e67d5628c1d02e7bd2c0804386eec2d7a93b861b3ffcccbd17"


# Re-recorded when a timing-driven step s came to be iteration s of the
# schedule stream for the runs' fleets stacked in run order.
def test_timing_driven_convex_bound():
    model = ds.WorkerLatencyModel(1.0, ds.LogNormalNoise(-2.0, 0.5))
    sim = ds.SimConfig(ds.FleetSpec.homogeneous(4, model), 3, 0.5, 3.6, 1, 5)
    schedule = ds.BatchSchedule(48, kind="timing_driven", sim=sim)
    problem = ds.SgdProblem.quadratic(dimension=4, seed=2)
    rep = ds.verify_convex_bound(problem, schedule, 3000, seeds=9, seed=17)
    assert _sha(repr(rep)) == \
        "43acf4599dbe31eb6707add540f2a666ed8c3b7fb238b6b50d2e77e037e959ab"


def test_logistic_run_many_actual_batch():
    problem = ds.SgdProblem.logistic_synthetic(dimension=4, n_samples=64,
                                               sin_amplitude=0.1, seed=9)
    schedule = ds.BatchSchedule(12, kind="per_worker_bernoulli", n_workers=3, p_drop=0.4)
    res = run_many(problem, schedule, 900, eta_mode=0.3, normalization="actual_batch",
                   rng=ds.RngStream(21, 0), n_runs=6)
    assert _sha(*[np.asarray(res[k]).tobytes() for k in sorted(res)]) == \
        "7a9b00be6547c192f9379634bbe6a1a3ef59860ad6f4262c21c3a68be98e77eb"


# Recorded before the command line wrote its JSON reports through one
# function, with the outputs no digest above covers: local-sgd's summary and
# select-threshold's curve on the default grid and on a grid file. The
# local-sgd digest was re-recorded when local step s came to draw its worker
# times through the block engine, from RngStream(seed, 0).derive(0, s), in
# place of one generator for all steps.
def test_cli_simulate_local_sgd(tmp_path, capsys):
    doc = {"fleet": {"workers": 6, "base_mean": 0.2,
                     "noise": {"kind": "lognormal", "log_mean": -3.0, "log_std": 0.4}},
           "mode": "local-sgd", "iterations": 120, "seed": 29,
           "local_sgd": {"sync_period": 3, "straggler_prob": 0.1, "straggler_delay": 0.5,
                         "server_size": 3}}
    (tmp_path / "l.json").write_text(json.dumps(doc))
    out = tmp_path / "l"
    assert cli.main(["simulate", "--config", str(tmp_path / "l.json"), "--out", str(out)]) == 0
    assert _sha((out / "summary.json").read_bytes()) == \
        "dc366c593441bb96de489f9cabe580d48eed719a0236a2c1b199a1097e3514f5"


def _select_threshold_curve(tmp_path, *grid_args) -> bytes:
    gen = ds.RngStream(37).generator()
    tensor = gen.lognormal(-2.0, 0.6, (25, 5, 3))
    tensor[:, 2, :] *= 2.5  # one persistently slow worker
    ds.write_trace_csv(str(tmp_path / "trace.csv"), tensor)
    ds.write_comm_csv(str(tmp_path / "comm.csv"), gen.uniform(0.05, 0.2, 25))
    out = tmp_path / "o"
    assert cli.main(["select-threshold", "--trace", str(tmp_path / "trace.csv"),
                     "--comm", str(tmp_path / "comm.csv"), *grid_args,
                     "--out", str(out)]) == 0
    return (out / "curve.csv").read_bytes()


def test_cli_select_threshold_default_grid(tmp_path, capsys):
    assert _sha(_select_threshold_curve(tmp_path)) == \
        "0c91996a64e44b771165409443d48b2e798aadc5ce1ab7fd2354b4b6bf38e5fa"


def test_cli_select_threshold_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("# candidate thresholds\n0.3\n\n0.45\n6e-1\n 0.9 \n1.5\n")
    assert _sha(_select_threshold_curve(tmp_path, "--grid", str(grid))) == \
        "f3ca9545a8902dc4381814af059a6153aab88ff6e97408962e54396bcc2490db"
