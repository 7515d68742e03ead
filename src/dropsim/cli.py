"""Command-line driver: simulate, select-threshold, scale-sweep, sgd-bench.

Configs are JSON documents read against a field table per block (unknown
keys and wrongly typed values are rejected so typos fail loudly); tabular
results go to CSV with a comment line recording the config hash and tool
version, reports go to JSON with sorted keys. All outputs are written
atomically and contain no timestamps, so a fixed seed reproduces files byte
for byte.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import reprlib
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
# perfbench's tracer patches read_trace_csv and read_comm_csv by these names.
from .csvio import csv_text, read_comm_csv, read_trace_csv
from .latency import NOISE_KINDS, FleetSpec, WorkerLatencyModel
# simulate streams its records with run_records_csv. run_detailed stays
# importable here: perfbench's tracer patches it by this name.
from .simulate import (SimConfig, auto_tau, local_sgd_run, run_detailed,
                       run_records_csv, scale_sweep)
from .threshold import TraceTensor, format_curve_csv, select_threshold
from . import analytic, sgd

__all__ = ["main"]


class ConfigError(Exception):
    pass


class _Type(NamedTuple):
    """The values a config field takes: `name` is its JSON type as the README
    writes it, `desc` how error messages say it, `ok` the test of a parsed
    JSON value. A field with `floats` passes an integer on as a float."""
    name: str
    desc: str
    ok: Callable[[object], bool]
    floats: bool = False


def _is_number(v) -> bool:
    return type(v) in (int, float)  # not bool: type(True) is bool


_INTEGER = _Type("integer", "an integer", lambda v: type(v) is int)
# Bounds no library constructor checks: the warmup length, and the seed,
# which RngStream masks to 64 bits (so 2**64 would alias seed 0).
_COUNT = _Type("integer >= 1", "an integer >= 1", lambda v: type(v) is int and v >= 1)
_SEED = _Type("integer in [0, 2^64)", "an integer in [0, 2^64)",
              lambda v: type(v) is int and 0 <= v < 2**64)
_NUMBER = _Type("number", "a number", _is_number, True)
_NUMBER_OR_NULL = _Type("number or null", "a number or null",
                        lambda v: v is None or _is_number(v), True)
_TAU = _Type('number, "auto" or null', 'a number, "auto" or null',
             lambda v: v is None or v == "auto" or _is_number(v), True)
_BOOLEAN = _Type("boolean", "true or false", lambda v: type(v) is bool)
_STRING = _Type("string", "a string", lambda v: type(v) is str)
_INTEGERS = _Type("list of integers", "a list of integers",
                  lambda v: type(v) is list and set(map(type, v)) <= {int})
_NUMBERS = _Type("list of numbers", "a list of numbers",
                 lambda v: type(v) is list and set(map(type, v)) <= {int, float})
# A nested block: its own table checks it when the command reads it.
_OBJECT = _Type("object", "a JSON object", lambda v: True)

# Tables map a field to (type,) when it is required, else (type, default).
_FLEET = {"workers": (_INTEGER,), "base_mean": (_NUMBER,), "noise": (_OBJECT,),
          "noise_mode": (_STRING, "additive_absolute")}

# A noise kind's fields are the keyword parameters of its NOISE_KINDS entry,
# typed by their annotations (strings: latency defers annotations).
_NOISE_FIELD_TYPES = {"float": _NUMBER, "tuple": _NUMBERS}
_NOISES = {kind: {"kind": (_STRING,),
                  **{p.name: (_NOISE_FIELD_TYPES[p.annotation],)
                     for p in inspect.signature(make).parameters.values()}}
           for kind, make in NOISE_KINDS.items()}

_RUN = {"fleet": (_OBJECT,), "m_per_step": (_INTEGER,),
        # SimConfig's wording, so a wrong type and a negative value read alike
        "t_comm": (_NUMBER._replace(desc="finite and >= 0"), 0.0),
        "iterations": (_INTEGER, 100), "seed": (_SEED, 0),
        "stop_at_accumulation_boundary": (_BOOLEAN, False),
        "warmup_iterations": (_COUNT, 100)}
_SIMULATE = {**_RUN, "tau": (_TAU, None), "mode": (_STRING, "synchronous"),
             "local_sgd": (_OBJECT, {})}
# local-sgd ignores the synchronous run's fields but accepts them, so that one
# config runs in either mode.
_SIMULATE_LOCAL_SGD = {**_SIMULATE, "iterations": (_INTEGER, 2000),
                       "m_per_step": (_INTEGER, None)}
_SCALE_SWEEP = {**_RUN, "tau": (_TAU, "auto"), "n_list": (_INTEGERS,)}
_LOCAL_SGD = {"sync_period": (_INTEGER,), "straggler_prob": (_NUMBER, 0.04),
              "straggler_delay": (_NUMBER, 1.0), "straggler_mode": (_STRING, "uniform"),
              "server_size": (_INTEGER, 8),
              # local_sgd_run's wording
              "tau": (_NUMBER_OR_NULL._replace(desc="None or a number > 0"), None)}

# Problem kinds are named after the SgdProblem constructors they call.
_PROBLEMS = {
    "quadratic": {"kind": (_STRING,), "dimension": (_INTEGER, 10),
                  "smoothness": (_NUMBER, 1.0), "sigma": (_NUMBER, 1.0),
                  "distance": (_NUMBER, 10.0), "actual_sigma": (_NUMBER_OR_NULL, None),
                  "seed": (_SEED, 0)},
    "logistic_synthetic": {"kind": (_STRING,), "dimension": (_INTEGER, 10),
                           "n_samples": (_INTEGER, 512), "l2_reg": (_NUMBER, 0.1),
                           "sin_amplitude": (_NUMBER, 0.0), "seed": (_SEED, 7)},
}
_SCHEDULE = {"kind": (_STRING,), "b_max": (_INTEGER,), "n_workers": (_INTEGER, 1),
             "p_drop": (_NUMBER, 0.0)}
_SGD_BENCH = {"problem": (_OBJECT,), "schedule": (_OBJECT,), "k_total": (_NUMBER,),
              "seeds": (_INTEGER, 100), "theorem": (_STRING, "both"), "seed": (_SEED, 0)}


def _read(doc, table: dict, where: str) -> dict:
    """doc's fields, checked against table, with defaults filled in."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {reprlib.repr(doc)}")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(k for k, spec in table.items() if len(spec) == 1 and k not in doc)
    if missing:
        raise ConfigError(f"missing required key(s) {missing} in {where}")
    fields = {key: spec[1] for key, spec in table.items() if key not in doc}
    for key, value in doc.items():
        kind = table[key][0]
        if not kind.ok(value):
            raise ConfigError(f"invalid {where}: {key} must be {kind.desc}, "
                              f"got {reprlib.repr(value)}")
        fields[key] = float(value) if kind.floats and type(value) is int else value
    return fields


def _read_kind(doc, tables: dict, noun: str, where: str) -> dict:
    """_read with the table of doc's `kind`."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if isinstance(doc, dict) and not (isinstance(kind, str) and kind in tables):
        raise ConfigError(f"unknown {noun} kind {kind!r} in {where}")
    return _read(doc, tables.get(kind), where)


def _finite_float(text: str) -> float:
    """json float hook: the literal's value, so NaN, Infinity and 1e400 are
    rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text[:24]} is not finite")
    return value


def _finite_int(text: str) -> int:
    """json int hook: an integer that is finite as a float. The float test
    comes first, so that a 400- or 5000-digit integer is "not finite"
    rather than past int()'s digit limit."""
    _finite_float(text)
    return int(text)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_float=_finite_float, parse_int=_finite_int,
                         parse_constant=_finite_float)
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


def _stamp(config_hash: str) -> str:
    return f"config_hash={config_hash} version={__version__}"


def _report(config_hash: str, **fields) -> str:
    """A JSON report of fields, with the config hash and tool version."""
    return json.dumps({**fields, "config_hash": config_hash, "version": __version__},
                      indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _invalid(where: str):
    """A ValueError from its block, where a library rejects a value, as a
    ConfigError naming where in the config the value came from."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _parse_noise(doc):
    where = "noise parameters in fleet.noise"
    fields = _read_kind(doc, _NOISES, "noise", where)
    make = NOISE_KINDS[fields.pop("kind")]
    with _invalid(where):
        return make(**fields)


def _parse_fleet(doc) -> FleetSpec:
    fleet = _read(doc, _FLEET, "fleet")
    noise = _parse_noise(fleet["noise"])
    with _invalid("fleet"):
        model = WorkerLatencyModel(fleet["base_mean"], noise, fleet["noise_mode"])
        return FleetSpec.homogeneous(fleet["workers"], model)


@contextlib.contextmanager
def _atomic_open(path: Path):
    """A text file that replaces path, through a rename, once the block ends
    without an exception."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, text: str) -> None:
    """Write text to path through a temporary file and a rename."""
    with _atomic_open(path) as fh:
        fh.write(text)


@contextlib.contextmanager
def _new_out_dir(args):
    """The output directory args.out, made for the block that writes into
    it: if the block raises, the directories made here are removed again,
    once empty, so a failed write leaves no directory behind. A directory
    that cannot be made, as under a path that names a file, is a
    ConfigError."""
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{args.out}: cannot make the output directory: "
                              f"{exc.strerror or exc}") from exc
        yield out
    except BaseException:
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _sim_config(cfg: dict, seed, where: str) -> SimConfig:
    """The run cfg describes, with a tau of "auto" left unset."""
    fleet = _parse_fleet(cfg["fleet"])
    with _invalid(where):
        return SimConfig(fleet, cfg["m_per_step"], cfg["t_comm"],
                         None if cfg["tau"] == "auto" else cfg["tau"], cfg["iterations"],
                         cfg["seed"] if seed is None else seed,
                         cfg["stop_at_accumulation_boundary"])


def cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    mode = args.mode or doc.get("mode", "synchronous")
    cfg = _read(doc, _SIMULATE_LOCAL_SGD if mode == "local-sgd" else _SIMULATE,
                "simulate config")

    if mode == "local-sgd":
        block = _read(cfg["local_sgd"], _LOCAL_SGD, "local_sgd block")
        fleet = _parse_fleet(cfg["fleet"])
        with _invalid("local_sgd config"):
            result = local_sgd_run(
                fleet, mode=block.pop("straggler_mode"), iterations=cfg["iterations"],
                seed=cfg["seed"] if args.seed is None else args.seed, **block)
        with _new_out_dir(args) as out:
            _atomic_write(out / "summary.json", _report(
                _config_hash(doc), mode="local-sgd", **dataclasses.asdict(result)))
        print(f"local-sgd speedup {result.local_sgd_speedup:.4f}, "
              f"with threshold {result.dropcompute_speedup:.4f}")
        return 0
    if mode != "synchronous":
        raise ConfigError(f"unknown mode {mode!r}; use synchronous or local-sgd")

    config = _sim_config(cfg, args.seed, "simulate config")
    if cfg["tau"] == "auto":
        config = dataclasses.replace(
            config, tau=auto_tau(config, cfg["warmup_iterations"]))

    # The run happens while records.csv is written, and summary.json is
    # written before records.csv is renamed into place, so a run or a write
    # that raises leaves neither file nor the output directory behind.
    config_hash = _config_hash(doc)
    with _new_out_dir(args) as out, _atomic_open(out / "records.csv") as fh:
        stats = run_records_csv(config, fh, _stamp(config_hash))
        _atomic_write(out / "summary.json",
                      _report(config_hash, **dataclasses.asdict(stats)))
    print(f"s_eff {stats.s_eff:.4f}, drop rate {stats.drop_rate:.4f}, "
          f"mean step {stats.mean_step_drop:.4f}s")
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
                # float() also reads "1_000" and digits of other scripts
                if "_" in line or not line.isascii():
                    raise ValueError
                value = float(line)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: not a number: {line!r}") from exc
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{path}:{lineno}: threshold must be finite and > 0, "
                                  f"got {line!r}")
            vals.append(value)
    if not vals:
        raise ConfigError(f"{path}: empty threshold grid")
    return np.asarray(vals)


def _read_input(read, path: str):
    """read(path), with a file that cannot be opened or decoded, or that
    read rejects, as a ConfigError naming it."""
    try:
        return read(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_select_threshold(args) -> int:
    tensor = _read_input(read_trace_csv, args.trace)
    comm = None if args.comm is None else _read_input(read_comm_csv, args.comm)
    if comm is None:
        print("warning: no communication-time file given, assuming T_c = 0",
              file=sys.stderr)
    elif comm.shape[0] != tensor.shape[0]:
        raise ConfigError(f"{args.comm}: {comm.shape[0]} iterations, "
                          f"the trace has {tensor.shape[0]}")
    grid = _read_input(_read_grid_file, args.grid) if args.grid else None

    trace = TraceTensor(tensor, comm)
    result = select_threshold(trace, grid)

    # The name must be one line of writable text: line breaks are escaped as
    # \r and \n, bytes the file system encoding does not decode as \xNN.
    name = os.fsencode(Path(args.trace).name).decode(sys.getfilesystemencoding(),
                                                     "backslashreplace")
    name = name.replace("\r", "\\r").replace("\n", "\\n")
    stamp = f"trace={name} version={__version__}"
    with _new_out_dir(args) as out:
        _atomic_write(out / "curve.csv", format_curve_csv(result, stamp))
    print(f"tau_star {result.tau_star!r} "
          f"s_eff {result.s_eff_at_tau_star():.6f}")
    return 0


# ---------------------------------------------------------------------------
# scale-sweep
# ---------------------------------------------------------------------------

def cmd_scale_sweep(args) -> int:
    doc = _load_config(args.config)
    cfg = _read(doc, _SCALE_SWEEP, "scale-sweep config")
    template = _sim_config(cfg, args.seed, "scale-sweep config")
    try:
        points = scale_sweep(template, cfg["n_list"], cfg["tau"],
                             cfg["warmup_iterations"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    model = template.fleet.workers[0]
    mu, var = model.moments()
    sigma = float(np.sqrt(var))
    try:
        s_analytic = [1.0 if p.tau is None else analytic.expected_speedup(
            mu, sigma, template.m_per_step, p.n_workers, p.tau, template.t_comm,
            measured_ET=p.mean_step_base - template.t_comm) for p in points]
    except ValueError as exc:
        raise ConfigError(f"scale-sweep has no closed-form s_eff_analytic "
                          f"for this fleet: {exc}") from exc

    text = csv_text(_stamp(_config_hash(doc)),
                    ["n_workers", "tau", "throughput_base", "throughput_drop",
                     "s_eff", "linear_ref", "s_eff_analytic"],
                    ([str(p.n_workers), "" if p.tau is None else repr(p.tau),
                      *map(repr, (p.throughput_base, p.throughput_drop, p.s_eff,
                                  p.linear_ref, s))]
                     for p, s in zip(points, s_analytic)))
    with _new_out_dir(args) as out:
        _atomic_write(out / "sweep.csv", text)
    print(f"swept {len(points)} fleet sizes, "
          f"s_eff range [{min(p.s_eff for p in points):.4f}, "
          f"{max(p.s_eff for p in points):.4f}]")
    return 0


# ---------------------------------------------------------------------------
# sgd-bench
# ---------------------------------------------------------------------------

def _parse_problem(doc) -> sgd.SgdProblem:
    fields = _read_kind(doc, _PROBLEMS, "problem", "problem block")
    with _invalid("problem block"):
        return getattr(sgd.SgdProblem, fields.pop("kind"))(**fields)


def _parse_schedule(doc) -> sgd.BatchSchedule:
    fields = _read(doc, _SCHEDULE, "schedule block")
    with _invalid("schedule block"):
        return sgd.BatchSchedule(**fields)


def cmd_sgd_bench(args) -> int:
    doc = _load_config(args.config)
    cfg = _read(doc, _SGD_BENCH, "sgd-bench config")
    problem = _parse_problem(cfg["problem"])
    schedule = _parse_schedule(cfg["schedule"])
    theorem = cfg["theorem"]
    if theorem not in ("convex", "nonconvex", "both"):
        raise ConfigError('theorem must be "convex", "nonconvex", or "both"')
    if theorem in ("convex", "both") and problem.kind != "quadratic":
        raise ConfigError("the convex bound check needs the quadratic problem")

    seeds = cfg["seeds"] if args.seeds is None else args.seeds
    base_seed = cfg["seed"] if args.seed is None else args.seed
    with _invalid("sgd-bench config"):  # a k_total or seeds run_many cannot run
        reports = [verify(problem, schedule, cfg["k_total"], seeds=seeds, seed=base_seed)
                   for name, verify in (("convex", sgd.verify_convex_bound),
                                        ("nonconvex", sgd.verify_nonconvex_bound))
                   if theorem in (name, "both")]

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

    with _new_out_dir(args) as out:
        _atomic_write(out / "report.json", _report(_config_hash(doc), results=body))
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """--seed: an integer in the range the random streams address."""
    if not _SEED.ok(seed := int(text)):
        raise argparse.ArgumentTypeError(f"must be {_SEED.desc}, got {text}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropsim",
        description="Timing simulator and analysis toolkit for synchronous "
                    "data-parallel training with compute thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run timing iterations")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=_seed, default=None)
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
    p_swp.add_argument("--seed", type=_seed, default=None)
    p_swp.add_argument("--out", default=".")
    p_swp.set_defaults(func=cmd_scale_sweep)

    p_sgd = sub.add_parser("sgd-bench", help="verify the convergence bounds")
    p_sgd.add_argument("--config", required=True)
    p_sgd.add_argument("--seed", type=_seed, default=None)
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
