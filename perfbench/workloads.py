"""Workload inputs, operations and output checks.

Every input is generated here from the workload seed and handed to dropsim
only as config JSON and CSV files (or, for the two API operations the CLI
cannot express, as in-memory objects). Each operation knows how to run
itself, how many latency samples or per-sample gradients one call processes,
how to check its outputs, and how to digest them for bit-identity checks.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TRACE_SHAPE = (350, 239, 12)  # 1,003,800 samples
DENSE_GRID_POINTS = 1024
SWEEP_N = [8, 32, 128, 512]
SWEEP_ITERATIONS = 500
WARMUP_ITERATIONS = 100
SGD_K = 100_000
LOGNORMAL = {"kind": "lognormal", "log_mean": -2.0, "log_std": 0.5}
TIMING_SCHEDULE = {"workers": 8, "m": 4, "b_max": 320, "tau": 4.6, "seeds": 50}

_REL_TOL = 1e-9


@dataclass
class CliOutput:
    rc: int
    stdout: str


@dataclass
class Op:
    name: str
    kind: str  # select_threshold | simulate | scale_sweep | sgd_bench | api
    samples: int  # latency samples or per-sample gradients per call
    run: Callable[[], object]
    check: Callable[[object], list]  # returns a list of problems
    digest: Callable[[object], str]
    verdict: Callable[[object], str] = lambda out: ""


@dataclass
class Workload:
    name: str
    ops: list
    inputs: dict  # arrays and objects the probes reuse


def _seeded(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _cli_op(cli, name, kind, samples, argv, out_dir: Path, files, check,
            verdict=lambda out: "") -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv + ["--out", str(out_dir)])
        return CliOutput(rc, buf.getvalue())

    def output_digest(out):
        return digest(out.rc, out.stdout, *[(out_dir / f).read_bytes() for f in files])

    return Op(name, kind, samples, run, check, output_digest, verdict)


def _data_rows(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


def _dataclass_digest(obj) -> str:
    return digest(*[f"{k}={v!r}" for k, v in dataclasses.asdict(obj).items()])


def _api_op(name, samples, call, check) -> Op:
    return Op(name, "api", samples, call, check, _dataclass_digest)


# ---------------------------------------------------------------------------
# trace-select
# ---------------------------------------------------------------------------

def _write_trace_file(path: Path, lat: np.ndarray) -> None:
    """The trace CSV format dropsim reads, written without dropsim's writer."""
    idx = np.indices(lat.shape).reshape(3, -1).T.tolist()
    with open(path, "w") as fh:
        fh.write("iteration,worker,micro_batch,latency_seconds\n")
        fh.writelines(f"{i},{n},{m},{v!r}\n"
                      for (i, n, m), v in zip(idx, lat.ravel().tolist()))


def _trace_inputs(seed: int):
    gen = _seeded(seed, 1)
    lat = 0.05 + gen.lognormal(math.log(0.05), 0.6, TRACE_SHAPE)
    straggler = int(gen.integers(TRACE_SHAPE[1]))
    lat[:, straggler, :] *= 2.0
    comm = 0.1 + 0.05 * gen.random(TRACE_SHAPE[0])
    cum = np.cumsum(lat, axis=2)
    max_step = float(cum[:, :, -1].max())
    grid = np.linspace(float(cum.min()), np.nextafter(max_step, np.inf),
                       DENSE_GRID_POINTS)
    return lat, comm, grid, max_step


def _check_curve(out_dir: Path, max_step: float, rows_expected=None):
    def check(out: CliOutput):
        if out.rc != 0:
            return [f"exit status {out.rc}"]
        rows = _data_rows(out_dir / "curve.csv")
        if rows[0] != ["tau", "s_eff", "drop_rate", "step_speedup"]:
            return [f"curve.csv header {rows[0]}"]
        body = np.array(rows[1:], dtype=float)
        problems = []
        if rows_expected is not None and len(body) != rows_expected:
            problems.append(f"{len(body)} curve rows, expected {rows_expected}")
        if not np.all(np.isfinite(body)) or np.any(np.diff(body[:, 0]) <= 0):
            problems.append("curve.csv not finite or tau not ascending")
        tau, s_eff = body[:, 0], body[:, 1]
        best = len(tau) - 1 - int(np.argmax(s_eff[::-1]))  # ties -> largest tau
        printed = re.search(r"tau_star (\S+)", out.stdout)
        if printed is None or float(printed.group(1)) != tau[best]:
            problems.append(f"printed tau_star differs from curve argmax {tau[best]!r}")
        if not (tau[-1] > max_step and abs(s_eff[-1] - 1.0) <= 1e-12
                and body[-1, 2] == 0.0):
            problems.append("no-drop anchor missing or s_eff there != 1")
        return problems
    return check


def build_trace_select(cli, seed: int, work: Path) -> Workload:
    lat, comm, grid, max_step = _trace_inputs(seed)
    trace_csv, comm_csv, grid_txt = work / "trace.csv", work / "comm.csv", work / "grid.txt"
    _write_trace_file(trace_csv, lat)
    comm_csv.write_text("iteration,T_c_seconds\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(comm.tolist())))
    grid_txt.write_text("".join(f"{v!r}\n" for v in grid.tolist()))
    base = ["select-threshold", "--trace", str(trace_csv), "--comm", str(comm_csv)]
    ops = []
    for name, extra, rows in (("select-default", [], None),
                              ("select-dense", ["--grid", str(grid_txt)],
                               DENSE_GRID_POINTS)):
        out = work / name
        ops.append(_cli_op(cli, name, "select_threshold", lat.size, base + extra,
                           out, ["curve.csv"], _check_curve(out, max_step, rows)))
    return Workload("trace-select", ops, {"lat": lat, "comm": comm, "grid": grid})


# ---------------------------------------------------------------------------
# fleet-sim
# ---------------------------------------------------------------------------

def _check_simulate(out_dir: Path, n: int, m: int, t_comm: float, iters: int):
    """Recompute summary.json's means from records.csv."""
    def check(out: CliOutput):
        if out.rc != 0:
            return [f"exit status {out.rc}"]
        summary = json.loads((out_dir / "summary.json").read_text())
        rec = np.loadtxt(out_dir / "records.csv", delimiter=",", skiprows=2)
        if rec.shape != (iters * n, 5):
            return [f"records.csv shape {rec.shape}, expected {(iters * n, 5)}"]
        rec = rec.reshape(iters, n, 5)
        if not (np.array_equal(rec[:, :, 0], np.repeat(np.arange(iters), n).reshape(iters, n))
                and np.array_equal(rec[:, :, 1], np.tile(np.arange(n), (iters, 1)))):
            return ["records.csv iteration/worker columns out of order"]
        step_base = rec[:, :, 2].max(axis=1) + t_comm
        step_drop = rec[:, :, 3].max(axis=1) + t_comm
        done = rec[:, :, 4].mean(axis=1)
        s_iter = np.where((step_drop > 0) & (done > 0),
                          step_base / step_drop * done / m, 0.0)
        mean_done = done.mean()
        want = {
            "mean_step_base": step_base.mean(),
            "mean_step_drop": step_drop.mean(),
            "mean_completed": mean_done,
            "drop_rate": 1.0 - mean_done / m,
            "s_eff": s_iter.mean(),
            "throughput": n * mean_done / step_drop.mean(),
            "throughput_base": n * m / step_base.mean(),
        }
        problems = [f"summary {k} {summary.get(k)!r} != records {v!r}"
                    for k, v in want.items()
                    if not (isinstance(summary.get(k), float) and _close(summary[k], float(v)))]
        if (summary.get("n_workers"), summary.get("iterations")) != (n, iters):
            problems.append("summary n_workers/iterations mismatch")
        return problems
    return check


def _check_local_sgd(out_dir: Path):
    def check(out: CliOutput):
        if out.rc != 0:
            return [f"exit status {out.rc}"]
        doc = json.loads((out_dir / "summary.json").read_text())
        keys = ["local_sgd_speedup", "dropcompute_speedup", "sync_step_time",
                "local_sgd_step_time", "dropcompute_step_time", "tau"]
        if not _finite([doc.get(k) for k in keys]):
            return ["local-sgd summary has missing or non-finite fields"]
        if doc["dropcompute_speedup"] < doc["local_sgd_speedup"]:
            return ["threshold made local SGD slower"]
        return []
    return check


def _check_sweep(out_dir: Path, n_list):
    def check(out: CliOutput):
        if out.rc != 0:
            return [f"exit status {out.rc}"]
        rows = _data_rows(out_dir / "sweep.csv")[1:]
        if [int(r[0]) for r in rows] != list(n_list):
            return [f"sweep rows {[r[0] for r in rows]} != n_list {n_list}"]
        if not all(math.isfinite(float(v)) for r in rows for v in r):
            return ["sweep.csv has non-finite values"]
        return []
    return check


def _check_run_stats(n: int, iters: int):
    def check(stats):
        vals = [v for v in dataclasses.asdict(stats).values() if v is not None]
        if not _finite(vals) or (stats.n_workers, stats.iterations) != (n, iters):
            return ["API run stats not finite or wrong shape"]
        return []
    return check


def build_fleet_sim(cli, seed: int, work: Path) -> Workload:
    import dropsim
    from dropsim import simulate

    gen = _seeded(seed, 2)
    cfg_seed = int(gen.integers(2**31))
    m, t_comm = 12, 0.5
    ln_fleet = lambda n: {"workers": n, "base_mean": 1.0, "noise": LOGNORMAL}
    empirical = gen.lognormal(-2.0, 0.5, 20_000)
    empirical -= empirical.mean()
    sims = [
        # name, fleet, tau, iterations, samples drawn (warmup included)
        ("simulate-256", ln_fleet(256), "auto", 1000, (1000 + WARMUP_ITERATIONS) * 256 * m),
        ("simulate-8", {"workers": 8, "base_mean": 1.0,
                        "noise": {"kind": "normal", "loc": 0.0, "std": 0.1}},
         12.6, 5000, 5000 * 8 * m),
        ("simulate-empirical", {"workers": 64, "base_mean": 1.0,
                                "noise": {"kind": "empirical",
                                          "samples": empirical.tolist()}},
         12.9, 500, 500 * 64 * m),
    ]
    ops = []
    for name, fleet, tau, iters, samples in sims:
        cfg = _write_json(work / f"{name}.json", {
            "fleet": fleet, "m_per_step": m, "t_comm": t_comm, "tau": tau,
            "warmup_iterations": WARMUP_ITERATIONS, "iterations": iters,
            "seed": cfg_seed})
        out = work / name
        ops.append(_cli_op(cli, name, "simulate", samples,
                           ["simulate", "--config", str(cfg)], out,
                           ["records.csv", "summary.json"],
                           _check_simulate(out, fleet["workers"], m, t_comm, iters)))

    sweep_cfg = _write_json(work / "sweep.json", {
        "fleet": ln_fleet(8), "m_per_step": m, "t_comm": t_comm, "tau": "auto",
        "warmup_iterations": WARMUP_ITERATIONS, "iterations": SWEEP_ITERATIONS,
        "n_list": SWEEP_N, "seed": cfg_seed})
    out = work / "scale-sweep"
    ops.append(_cli_op(cli, "scale-sweep", "scale_sweep",
                       (WARMUP_ITERATIONS + SWEEP_ITERATIONS) * sum(SWEEP_N) * m,
                       ["scale-sweep", "--config", str(sweep_cfg)], out,
                       ["sweep.csv"], _check_sweep(out, SWEEP_N)))

    local_iters = 2000
    local_cfg = _write_json(work / "local-sgd.json", {
        "fleet": {"workers": 256, "base_mean": 0.1,
                  "noise": {"kind": "normal", "loc": 0.0, "std": 0.01}},
        "m_per_step": 1, "iterations": local_iters, "seed": cfg_seed,
        "local_sgd": {"sync_period": 4, "straggler_prob": 0.04,
                      "straggler_delay": 1.0}})
    out = work / "local-sgd"
    ops.append(_cli_op(cli, "local-sgd", "simulate", local_iters * 256,
                       ["simulate", "--mode", "local-sgd", "--config", str(local_cfg)],
                       out, ["summary.json"], _check_local_sgd(out)))

    # The scripts/threshold_demo.py fleet: one persistent 2x straggler among
    # 64 workers. The CLI only builds homogeneous fleets, so this goes
    # through the API.
    fast = dropsim.WorkerLatencyModel(1.0, dropsim.NormalNoise(0.0, 0.08))
    slow = dropsim.WorkerLatencyModel(2.0, dropsim.NormalNoise(0.0, 0.08))
    slow_at = int(gen.integers(64))
    hetero_fleet = dropsim.FleetSpec(tuple(slow if w == slow_at else fast
                                           for w in range(64)))
    hetero = dropsim.SimConfig(hetero_fleet, m, 0.2, 13.0, 500, cfg_seed)
    ops.append(_api_op("api-hetero", 500 * 64 * m,
                       lambda: simulate.run(hetero), _check_run_stats(64, 500)))
    return Workload("fleet-sim", ops, {"cfg_seed": cfg_seed, "empirical": empirical})


# ---------------------------------------------------------------------------
# sgd-verify
# ---------------------------------------------------------------------------

_REPORT_NUMBERS = ["K", "seeds", "eta", "empirical", "empirical_stderr",
                   "bound", "margin"]


def _check_report(out_dir: Path, theorem: str):
    def check(out: CliOutput):
        if out.rc not in (0, 1):
            return [f"exit status {out.rc}"]
        results = json.loads((out_dir / "report.json").read_text())["results"]
        if [r["theorem"] for r in results] != [theorem]:
            return [f"report theorems {[r['theorem'] for r in results]}"]
        r = results[0]
        if not _finite([r.get(k) for k in _REPORT_NUMBERS]):
            return ["report.json has missing or non-finite fields"]
        if r["pass"] != (r["empirical"] <= r["bound"]) or out.rc != (0 if r["pass"] else 1):
            return ["report verdict inconsistent with its numbers or exit status"]
        return []
    return check


def _report_verdict(out_dir: Path):
    def verdict(out: CliOutput):
        r = json.loads((out_dir / "report.json").read_text())["results"][0]
        return (f"{r['theorem']} empirical={r['empirical']:.6g} bound={r['bound']:.6g} "
                f"{'PASS' if r['pass'] else 'FAIL'}")
    return verdict


def _check_margin(rep):
    if not _finite([rep.empirical, rep.empirical_stderr, rep.bound, rep.margin, rep.eta]):
        return ["API margin report not finite"]
    if rep.passed != (rep.empirical <= rep.bound):
        return ["API verdict inconsistent with its numbers"]
    return []


def timing_schedule(seed: int):
    """The timing-driven schedule of the API op: 8 workers x 4 micro-batches."""
    import dropsim

    s = TIMING_SCHEDULE
    fleet = dropsim.FleetSpec.homogeneous(
        s["workers"], dropsim.WorkerLatencyModel(
            1.0, dropsim.LogNormalNoise(LOGNORMAL["log_mean"], LOGNORMAL["log_std"])))
    sim = dropsim.SimConfig(fleet, s["m"], 0.5, s["tau"], 1, seed)
    return dropsim.BatchSchedule(s["b_max"], kind="timing_driven", sim=sim)


def build_sgd_verify(cli, seed: int, work: Path) -> Workload:
    import dropsim
    from dropsim import sgd

    gen = _seeded(seed, 3)
    base_seed, data_seed = (int(v) for v in gen.integers(2**31, size=2))
    bern = {"kind": "per_worker_bernoulli", "b_max": 100, "n_workers": 10,
            "p_drop": 0.1}
    benches = [
        ("sgd-bench-convex", {"kind": "quadratic", "seed": data_seed}, "convex"),
        ("sgd-bench-nonconvex", {"kind": "logistic_synthetic", "sin_amplitude": 0.05,
                                 "seed": data_seed}, "nonconvex"),
    ]
    ops = []
    for name, problem, theorem in benches:
        cfg = _write_json(work / f"{name}.json", {
            "problem": problem, "schedule": bern, "k_total": SGD_K, "seeds": 100,
            "theorem": theorem, "seed": base_seed})
        out = work / name
        ops.append(_cli_op(cli, name, "sgd_bench", SGD_K * 100,
                           ["sgd-bench", "--config", str(cfg)], out, ["report.json"],
                           _check_report(out, theorem), _report_verdict(out)))

    problem = dropsim.SgdProblem.quadratic(seed=data_seed)
    schedule = timing_schedule(base_seed)
    n_seeds = TIMING_SCHEDULE["seeds"]
    op = _api_op("api-timing-verify", SGD_K * n_seeds,
                 lambda: sgd.verify_convex_bound(problem, schedule, SGD_K,
                                                 seeds=n_seeds, seed=base_seed),
                 _check_margin)
    op.verdict = lambda rep: (f"convex empirical={rep.empirical:.6g} "
                              f"bound={rep.bound:.6g} {'PASS' if rep.passed else 'FAIL'}")
    ops.append(op)
    return Workload("sgd-verify", ops, {"base_seed": base_seed, "data_seed": data_seed})


_BY_NAME = {"trace-select": build_trace_select, "fleet-sim": build_fleet_sim,
            "sgd-verify": build_sgd_verify}


def build(name: str, cli, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return _BY_NAME[name](cli, seed, work)
