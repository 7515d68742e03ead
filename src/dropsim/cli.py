"""Command-line driver: simulate, select-threshold, scale-sweep, sgd-bench.

Configs are JSON documents validated by hand (unknown keys are rejected so
typos fail loudly); tabular results go to CSV with a comment line recording
the config hash and tool version, reports go to JSON with sorted keys. All
outputs are written atomically and contain no timestamps, so a fixed seed
reproduces files byte for byte. DROPSIM_THREADS caps the worker threads used
for sweep points; results are identical at any thread count because every
sweep point draws from its own derived random stream.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .latency import (NOISE_KINDS, FleetSpec, WorkerLatencyModel, read_comm_csv,
                      read_trace_csv)
from .simulate import (SimConfig, auto_tau, iter_records_csv, local_sgd_run,
                       run_detailed, scale_sweep, stats_to_json)
from .threshold import TraceTensor, format_curve_csv, select_threshold
from . import analytic, sgd

__all__ = ["main"]


class ConfigError(Exception):
    pass


def _check_keys(doc: dict, allowed, required, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"missing required key(s) {missing} in {where}")


def _finite(parse):
    """json number hook: `parse` a literal that is finite as a float, so
    NaN, Infinity, 1e400 and 400-digit integers are rejected."""
    def hook(text: str):
        if not math.isfinite(float(text)):
            raise ValueError(f"number {text[:24]} is not finite")
        return parse(text)
    return hook


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_float=_finite(float), parse_int=_finite(int),
                         parse_constant=_finite(float))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return doc


def _config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _stamp(doc: dict) -> str:
    return f"config_hash={_config_hash(doc)} version={__version__}"


def _parse_noise(doc, where: str):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{where} must be an object with a 'kind' field")
    kind = doc["kind"]
    make = NOISE_KINDS.get(kind) if isinstance(kind, str) else None
    if make is None:
        raise ConfigError(f"unknown noise kind {kind!r} in {where}")
    fields = set(inspect.signature(make).parameters) | {"kind"}
    _check_keys(doc, fields, fields, where)
    try:
        return make(**{k: v for k, v in doc.items() if k != "kind"})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise parameters in {where}: {exc}") from exc


def _parse_fleet(doc: dict, where: str) -> FleetSpec:
    _check_keys(doc, {"workers", "base_mean", "noise", "noise_mode"},
                {"workers", "base_mean", "noise"}, where)
    noise = _parse_noise(doc["noise"], f"{where}.noise")
    try:
        model = WorkerLatencyModel(doc["base_mean"], noise,
                                   doc.get("noise_mode", "additive_absolute"))
        return FleetSpec.homogeneous(int(doc["workers"]), model)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid fleet in {where}: {exc}") from exc


def _atomic_write(path: Path, chunks) -> None:
    """Write the text chunks to path through a temporary file and a rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _threads() -> int:
    raw = os.environ.get("DROPSIM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"DROPSIM_THREADS must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIM_KEYS = {"fleet", "m_per_step", "t_comm", "tau", "iterations", "seed",
             "stop_at_accumulation_boundary", "warmup_iterations", "mode",
             "local_sgd"}


def _build_sim_config(doc: dict, seed_override) -> SimConfig:
    fleet = _parse_fleet(doc["fleet"], "fleet")
    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    boundary = doc.get("stop_at_accumulation_boundary", False)
    if not isinstance(boundary, bool):
        raise ConfigError("stop_at_accumulation_boundary must be true or false, "
                          f"got {boundary!r}")
    try:
        return SimConfig(
            fleet=fleet,
            m_per_step=int(doc["m_per_step"]),
            t_comm=float(doc.get("t_comm", 0.0)),
            iterations=int(doc.get("iterations", 100)),
            seed=int(seed),
            stop_at_accumulation_boundary=boundary,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid simulate config: {exc}") from exc


def _parse_tau(doc: dict, default):
    """tau: null (baseline), a number > 0, or "auto" (warmup + search)."""
    tau = doc.get("tau", default)
    if tau is None or tau == "auto":
        return tau
    try:
        value = float(tau)
    except (TypeError, ValueError):
        value = math.nan
    if not value > 0.0:
        raise ConfigError(f'tau must be null, a number > 0, or "auto", got {tau!r}')
    return value


def _parse_warmup(doc: dict) -> int:
    raw = doc.get("warmup_iterations", 100)
    try:
        value = int(raw)
    except (TypeError, ValueError):
        value = 0
    if value < 1:
        raise ConfigError(f"warmup_iterations must be an integer >= 1, got {raw!r}")
    return value


def _resolve_tau(doc: dict, config: SimConfig):
    tau, warmup = _parse_tau(doc, None), _parse_warmup(doc)
    return auto_tau(config, warmup) if tau == "auto" else tau


def cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    _check_keys(doc, _SIM_KEYS, {"fleet", "m_per_step"}, "simulate config")
    mode = args.mode or doc.get("mode", "synchronous")
    out = _out_dir(args)
    stamp = _stamp(doc)

    if mode == "local-sgd":
        block = doc.get("local_sgd", {})
        _check_keys(block, {"sync_period", "straggler_prob", "straggler_delay",
                            "straggler_mode", "server_size", "tau"},
                    {"sync_period"}, "local_sgd block")
        fleet = _parse_fleet(doc["fleet"], "fleet")
        seed = args.seed if args.seed is not None else doc.get("seed", 0)
        try:
            result = local_sgd_run(
                fleet,
                sync_period=int(block["sync_period"]),
                straggler_prob=float(block.get("straggler_prob", 0.04)),
                straggler_delay=float(block.get("straggler_delay", 1.0)),
                mode=block.get("straggler_mode", "uniform"),
                iterations=int(doc.get("iterations", 2000)),
                tau=block.get("tau"),
                seed=int(seed),
                server_size=int(block.get("server_size", 8)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid local_sgd config: {exc}") from exc
        report = {"mode": "local-sgd", "config_hash": _config_hash(doc),
                  "version": __version__,
                  "local_sgd_speedup": result.local_sgd_speedup,
                  "dropcompute_speedup": result.dropcompute_speedup,
                  "sync_step_time": result.sync_step_time,
                  "local_sgd_step_time": result.local_sgd_step_time,
                  "dropcompute_step_time": result.dropcompute_step_time,
                  "tau": result.tau}
        _atomic_write(out / "summary.json",
                      [json.dumps(report, indent=2, sort_keys=True) + "\n"])
        print(f"local-sgd speedup {result.local_sgd_speedup:.4f}, "
              f"with threshold {result.dropcompute_speedup:.4f}")
        return 0
    if mode != "synchronous":
        raise ConfigError(f"unknown mode {mode!r}; use synchronous or local-sgd")

    config = _build_sim_config(doc, args.seed)
    config = dataclasses.replace(config, tau=_resolve_tau(doc, config))
    sim = run_detailed(config)

    _atomic_write(out / "records.csv", iter_records_csv(sim.records, stamp))
    summary = stats_to_json(sim.stats, config_hash=_config_hash(doc),
                            version=__version__)
    _atomic_write(out / "summary.json", [summary + "\n"])
    print(f"s_eff {sim.stats.s_eff:.4f}, drop rate {sim.stats.drop_rate:.4f}, "
          f"mean step {sim.stats.mean_step_drop:.4f}s")
    return 0


# ---------------------------------------------------------------------------
# select-threshold
# ---------------------------------------------------------------------------

def _read_grid_file(path: str) -> np.ndarray:
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals.append(float(line))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: not a number: {line!r}") from exc
    if not vals:
        raise ConfigError(f"{path}: empty threshold grid")
    return np.asarray(vals)


def cmd_select_threshold(args) -> int:
    try:
        tensor = read_trace_csv(args.trace)
        comm = None if args.comm is None else read_comm_csv(args.comm)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if comm is None:
        print("warning: no communication-time file given, assuming T_c = 0",
              file=sys.stderr)
    elif comm.shape[0] != tensor.shape[0]:
        raise ConfigError("comm.csv iteration count does not match the trace")
    grid = _read_grid_file(args.grid) if args.grid else None

    trace = TraceTensor(tensor, comm)
    result = select_threshold(trace, grid)

    out = _out_dir(args)
    stamp = f"trace={Path(args.trace).name} version={__version__}"
    _atomic_write(out / "curve.csv", [format_curve_csv(result, stamp)])
    print(f"tau_star {result.tau_star!r} "
          f"s_eff {result.s_eff_at_tau_star():.6f}")
    return 0


# ---------------------------------------------------------------------------
# scale-sweep
# ---------------------------------------------------------------------------

_SWEEP_KEYS = {"fleet", "m_per_step", "t_comm", "tau", "iterations", "seed",
               "warmup_iterations", "n_list", "stop_at_accumulation_boundary"}


def cmd_scale_sweep(args) -> int:
    doc = _load_config(args.config)
    _check_keys(doc, _SWEEP_KEYS, {"fleet", "m_per_step", "n_list"},
                "scale-sweep config")
    n_list = doc["n_list"]
    if (not isinstance(n_list, list) or not n_list
            or any(not isinstance(v, int) for v in n_list)):
        raise ConfigError("n_list must be a nonempty list of integers")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly ascending")

    template = _build_sim_config(doc, args.seed)
    tau_policy, warmup = _parse_tau(doc, "auto"), _parse_warmup(doc)
    try:
        points = scale_sweep(template, n_list, tau_policy, warmup,
                             max_workers=_threads())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    model = template.fleet.workers[0]
    mu, var = model.moments()
    sigma = float(np.sqrt(var))

    out = _out_dir(args)
    buf = io.StringIO()
    buf.write(f"# {_stamp(doc)}\n")
    import csv as _csv

    writer = _csv.writer(buf)
    writer.writerow(["n_workers", "tau", "throughput_base", "throughput_drop",
                     "s_eff", "linear_ref", "s_eff_analytic"])
    for p in points:
        if p.tau is None or sigma == 0.0:
            s_analytic = 1.0
        else:
            measured_et = p.mean_step_base - template.t_comm
            s_analytic = analytic.expected_speedup(
                mu, sigma, template.m_per_step, p.n_workers, p.tau,
                template.t_comm, measured_ET=measured_et)
        writer.writerow([p.n_workers, repr(p.tau) if p.tau is not None else "",
                         repr(p.throughput_base), repr(p.throughput_drop),
                         repr(p.s_eff), repr(p.linear_ref), repr(s_analytic)])
    _atomic_write(out / "sweep.csv", [buf.getvalue()])
    print(f"swept {len(points)} fleet sizes, "
          f"s_eff range [{min(p.s_eff for p in points):.4f}, "
          f"{max(p.s_eff for p in points):.4f}]")
    return 0


# ---------------------------------------------------------------------------
# sgd-bench
# ---------------------------------------------------------------------------

_PROBLEM_KEYS = {"kind", "dimension", "smoothness", "sigma", "distance",
                 "actual_sigma", "n_samples", "l2_reg", "sin_amplitude", "seed"}
_SCHEDULE_KEYS = {"kind", "b_max", "n_workers", "p_drop"}


def _parse_problem(doc: dict) -> sgd.SgdProblem:
    _check_keys(doc, _PROBLEM_KEYS, {"kind"}, "problem block")
    try:
        if doc["kind"] == "quadratic":
            return sgd.SgdProblem.quadratic(
                dimension=int(doc.get("dimension", 10)),
                smoothness=float(doc.get("smoothness", 1.0)),
                sigma=float(doc.get("sigma", 1.0)),
                distance=float(doc.get("distance", 10.0)),
                actual_sigma=(None if doc.get("actual_sigma") is None
                              else float(doc["actual_sigma"])),
                seed=int(doc.get("seed", 0)))
        if doc["kind"] == "logistic_synthetic":
            return sgd.SgdProblem.logistic_synthetic(
                dimension=int(doc.get("dimension", 10)),
                n_samples=int(doc.get("n_samples", 512)),
                l2_reg=float(doc.get("l2_reg", 0.1)),
                sin_amplitude=float(doc.get("sin_amplitude", 0.0)),
                seed=int(doc.get("seed", 7)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid problem block: {exc}") from exc
    raise ConfigError(f"unknown problem kind {doc['kind']!r}")


def _parse_schedule(doc: dict) -> sgd.BatchSchedule:
    _check_keys(doc, _SCHEDULE_KEYS, {"kind", "b_max"}, "schedule block")
    try:
        return sgd.BatchSchedule(
            b_max=int(doc["b_max"]),
            kind=doc["kind"],
            n_workers=int(doc.get("n_workers", 1)),
            p_drop=float(doc.get("p_drop", 0.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid schedule block: {exc}") from exc


_BENCH_KEYS = {"problem", "schedule", "k_total", "seeds", "theorem", "seed"}


def cmd_sgd_bench(args) -> int:
    doc = _load_config(args.config)
    _check_keys(doc, _BENCH_KEYS, {"problem", "schedule", "k_total"},
                "sgd-bench config")
    problem = _parse_problem(doc["problem"])
    schedule = _parse_schedule(doc["schedule"])
    theorem = doc.get("theorem", "both")
    if theorem not in ("convex", "nonconvex", "both"):
        raise ConfigError('theorem must be "convex", "nonconvex", or "both"')
    if theorem in ("convex", "both") and problem.kind != "quadratic":
        raise ConfigError("the convex bound check needs the quadratic problem")

    try:  # run_many rejects a k_total or seed count it cannot run
        k_total = float(doc["k_total"])
        seeds = args.seeds if args.seeds is not None else int(doc.get("seeds", 100))
        base_seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
        reports = [verify(problem, schedule, k_total, seeds=seeds, seed=base_seed)
                   for name, verify in (("convex", sgd.verify_convex_bound),
                                        ("nonconvex", sgd.verify_nonconvex_bound))
                   if theorem in (name, "both")]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sgd-bench config: {exc}") from exc

    body = []
    for rep in reports:
        entry = {
            "theorem": rep.theorem,
            "problem": {"kind": problem.kind, "dimension": problem.dimension,
                        "smoothness": problem.smoothness, "sigma": problem.sigma},
            "schedule": {"kind": schedule.kind, "b_max": schedule.b_max,
                         "p_drop": schedule.p_drop},
            "K": rep.k_total,
            "seeds": rep.n_seeds,
            "eta": rep.eta,
            "empirical": rep.empirical,
            "empirical_stderr": rep.empirical_stderr,
            "bound": rep.bound,
            "margin": rep.margin,
            "pass": rep.passed,
        }
        if seeds < 2:
            entry["note"] = ("single seed: empirical value carries no "
                             "statistical weight, increase seeds")
        body.append(entry)
        print(f"{rep.theorem}: empirical {rep.empirical:.6g} vs bound "
              f"{rep.bound:.6g} -> {'PASS' if rep.passed else 'FAIL'}")

    report = {"config_hash": _config_hash(doc), "version": __version__,
              "results": body}
    out = _out_dir(args)
    _atomic_write(out / "report.json",
                  [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropsim",
        description="Timing simulator and analysis toolkit for synchronous "
                    "data-parallel training with compute thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run timing iterations")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=".")
    p_sim.add_argument("--mode", choices=["synchronous", "local-sgd"],
                       default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_sel = sub.add_parser("select-threshold",
                           help="pick the speedup-maximizing threshold from a trace")
    p_sel.add_argument("--trace", required=True)
    p_sel.add_argument("--comm", default=None)
    p_sel.add_argument("--grid", default=None)
    p_sel.add_argument("--out", default=".")
    p_sel.set_defaults(func=cmd_select_threshold)

    p_swp = sub.add_parser("scale-sweep", help="repeat the run across fleet sizes")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--seed", type=int, default=None)
    p_swp.add_argument("--out", default=".")
    p_swp.set_defaults(func=cmd_scale_sweep)

    p_sgd = sub.add_parser("sgd-bench", help="verify the convergence bounds")
    p_sgd.add_argument("--config", required=True)
    p_sgd.add_argument("--seed", type=int, default=None)
    p_sgd.add_argument("--seeds", type=int, default=None,
                       help="override the number of verification seeds")
    p_sgd.add_argument("--out", default=".")
    p_sgd.set_defaults(func=cmd_sgd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
