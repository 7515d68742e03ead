#!/usr/bin/env python3
"""dropsim benchmark: closed-loop workloads over the CLI and the public API.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-sim --seed 1 --seconds 25 --trace 0

Each workload is one process and one client issuing operations back to
back: `dropsim` CLI commands called in-process through `dropsim.cli.main`
after a one-time import, plus public-API calls where the CLI cannot express
the input. Inputs are generated from --seed. A run repeats whole passes over
the workload's operations for about --seconds (at least three passes),
checks every operation's outputs, and reports medians over passes. A fixed
reference kernel runs before every operation; pass time is gated as a ratio
to it, because load from outside the process moves both alike.

--trace 0 prints the end-to-end metrics. --trace 1 runs every workload
once untraced and once with span wrappers installed, then the per-layer
probes, and prints the per-layer metrics and the tracing overhead; the
named workload is repeated for --seconds so its overhead rests on more
passes. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/NOTES.md.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of generated files

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("trace-select", "fleet-sim", "sgd-verify")
# One simulation thread and one BLAS thread, in this process and in every
# interpreter it starts, so both sides of a comparison run alike.
PINNED_ENV = {"DROPSIM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 3
SETUP_REPS = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class SetupTimer:
    """Time from a fresh interpreter's start until dropsim.cli is imported.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child, so
    the child's reading after the import ends the interval without counting
    interpreter teardown. One unmeasured start first writes the bytecode
    cache. Samples are taken between passes, spread over the run, so that
    one burst of load on the machine does not set the median.
    """

    _CODE = "import time, dropsim.cli; print(repr(time.perf_counter()))"

    def __init__(self):
        self.times: list[float] = []
        self._start()

    def _start(self) -> float:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", self._CODE], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        return float(done.stdout) - t0

    def sample(self, upto: int) -> None:
        """Take one more sample unless `upto` are already taken."""
        if len(self.times) < upto:
            self.times.append(self._start())

    def median(self) -> float:
        while len(self.times) < SETUP_REPS:
            self.sample(SETUP_REPS)
        return statistics.median(self.times)


def blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "pinned_env": PINNED_ENV,
            "git_sha": sha, "workload_seed": seed, "src_lines": src_lines,
            "test_suite_s": "not measured in workload runs"}


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    It runs before every operation and after the last one of a pass. Load
    from outside the process (other tenants of a shared host) slows it and
    the operations alike, so their ratio is far steadier than either time;
    see NOTES.md.
    """
    import numpy as np

    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(40_000):
        acc += i * i
        table[i & 1023] = repr(i * 0.5)
    gen = np.random.default_rng(0)
    for _ in range(4):
        draws = gen.lognormal(0.0, 1.0, 200_000)
        np.sort(draws)
        np.cumsum(draws)
    return time.perf_counter() - t0


@dataclass
class Pass:
    seconds: float  # inside the operations
    reference: list  # seconds of each reference kernel run between them
    op_seconds: dict
    op_spans: dict  # op name -> index of its span, traced passes only


class Runner:
    """Runs passes over one workload's ops and keeps the op accounting."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, str] = {}

    def run_pass(self, tracer=None) -> Pass:
        results, op_seconds, spans, reference = [], {}, {}, []
        for op in self.workload.ops:
            reference.append(reference_kernel())
            out, err = None, None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    spans[op.name] = len(tracer.spans)
                    with tracer.span(f"op:{op.name}"):
                        out = op.run()
            except Exception:
                err = traceback.format_exc()
            op_seconds[op.name] = time.perf_counter() - t0
            results.append((op, out, err))
        reference.append(reference_kernel())
        for op, out, err in results:
            self._account(op, out, err)
        return Pass(sum(op_seconds.values()), reference, op_seconds, spans)

    def _account(self, op, out, err) -> None:
        self.attempted += 1
        problems = [err] if err else []
        if not err:
            try:
                digest = op.digest(out)
                if op.name not in self.digests:
                    self.digests[op.name] = digest
                    problems += op.check(out)
                    self.verdicts[op.name] = op.verdict(out)
                elif digest != self.digests[op.name]:
                    problems.append("output digest differs from the first pass")
            except Exception:
                problems.append(traceback.format_exc())
        if problems:
            self.failed += 1
            self.problems.append(f"{op.name}: {'; '.join(problems)}")

    def report(self) -> None:
        for op in self.workload.ops:
            verdict = self.verdicts.get(op.name, "")
            print(f"op {self.workload.name}/{op.name} digest={self.digests.get(op.name)}"
                  + (f" verdict: {verdict}" if verdict else ""))
        for problem in self.problems:
            print(f"FAILED {self.workload.name}/{problem}", file=sys.stderr)


def in_reference_units(passes) -> float:
    """Median over passes of pass time / the pass's median reference kernel time.

    Pairing each pass with the kernel runs between its own operations keeps
    the ratio right when the outside load changes in the middle of a run.
    """
    return statistics.median(p.seconds / statistics.median(p.reference) for p in passes)


def run_digest(runners) -> str:
    import workloads as wl

    return wl.digest(*[f"{r.workload.name}/{k}={v}" for r in runners
                       for k, v in sorted(r.digests.items())])


def untraced(args, cli, work: Path):
    import workloads as wl

    setup = SetupTimer()
    setup.sample(1)
    runner = Runner(wl.build(args.workload, cli, args.seed, work))
    passes = []
    spent = 0.0  # seconds of passes and their checks; set-up samples excluded
    while True:
        t0 = time.perf_counter()
        passes.append(runner.run_pass())
        spent += time.perf_counter() - t0
        setup.sample(SETUP_REPS)
        med = statistics.median(p.seconds + sum(p.reference) for p in passes)
        if len(passes) >= MIN_PASSES and spent + med > args.seconds:
            break
    pass_s = statistics.median(p.seconds for p in passes)
    metrics = {
        "pass_ref": (in_reference_units(passes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1.0 - runner.failed / runner.attempted, "ratio"),
        "setup_s": (setup.median(), "s"),
    }
    # Printed for reading, not gated: raw pass time swings with load from
    # outside the process, per-command times exist on only some workloads,
    # and samples per second is the workload's fixed work over pass_s.
    extra = {"pass_s": (pass_s, "s"),
             "reference_s": (statistics.median(t for p in passes for t in p.reference), "s")}
    for kind in sorted({op.kind for op in runner.workload.ops}):
        extra[f"{kind}_s"] = (statistics.median(
            sum(p.op_seconds[op.name] for op in runner.workload.ops if op.kind == kind)
            for p in passes), "s")
    extra["samples_per_s"] = (sum(op.samples for op in runner.workload.ops) / pass_s, "1/s")
    extra["error_rate"] = (runner.failed / runner.attempted, "ratio")
    print(f"passes {len(passes)}: " + " ".join(
        f"{p.seconds:.4f}/{statistics.median(p.reference):.4f}" for p in passes))
    runner.report()
    print(f"run digest {run_digest([runner])}")
    for name, (value, unit) in extra.items():
        print(f"info {name} {value:.6g} {unit}")
    return metrics, [runner], (0, 0)


def traced(args, cli, work: Path):
    import probes
    import spans as span_metrics
    import workloads as wl
    from tracing import Tracer

    built = {name: wl.build(name, cli, args.seed, work / name) for name in WORKLOADS}
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    runners, metrics = [], {}
    for name in order:
        runner = Runner(built[name])
        runners.append(runner)
        plain, traced, rows = [], [], []
        t0 = time.perf_counter()
        while True:
            plain.append(runner.run_pass())
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            rows.append(span_metrics.EXTRACT[name](tracer, traced[-1].op_spans, built[name]))
            if name != args.workload or time.perf_counter() - t0 >= args.seconds:
                break
        for key in rows[0]:
            metrics[key] = statistics.median(row[key] for row in rows)
        # Compared as ratios to the reference kernel, like pass_ref, so that
        # load from outside the process does not pose as tracing cost.
        plain_ref, traced_ref = in_reference_units(plain), in_reference_units(traced)
        metrics[f"tracing.{name.replace('-', '_')}_overhead_ratio"] = traced_ref / plain_ref
        plain_s = statistics.median(p.seconds for p in plain)
        traced_s = statistics.median(p.seconds for p in traced)
        print(f"tracing overhead {name}: untraced {plain_s:.4f} s, traced {traced_s:.4f} s "
              f"({traced_s - plain_s:+.4f} s) over {len(plain)} pair(s); "
              f"traced/untraced in reference units {traced_ref / plain_ref:.4f}")

    fleet = built["fleet-sim"].inputs
    trace_in = built["trace-select"].inputs
    metrics.update(probes.stats_probes(args.seed))
    metrics.update(probes.latency_probes(args.seed, fleet, trace_in, work))
    sim_found, sim_bad = probes.simulate_probes(args.seed, fleet, work)
    thr_found, thr_bad = probes.threshold_probes(trace_in, work)
    metrics.update(sim_found)
    metrics.update(thr_found)
    metrics.update(probes.sgd_probes(args.seed, built["sgd-verify"].inputs))
    metrics.update(probes.import_probes(child_env(), ROOT))
    print(f"scale_sweep 1 thread {metrics['simulate.scale_sweep_t1_s']:.4f} s, "
          f"2 threads {metrics['simulate.scale_sweep_t2_s']:.4f} s, identical points: "
          f"{not sim_bad}")
    for runner in runners:
        runner.report()
    print(f"run digest {run_digest(runners)}")
    for problem in sim_bad + thr_bad:
        print(f"FAILED probe: {problem}", file=sys.stderr)
    checks = (sim_bad, thr_bad)
    return ({k: (v, span_metrics.unit(k)) for k, v in metrics.items()},
            runners, (len(checks), sum(1 for bad in checks if bad)))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dropsim" / "cli.py").is_file():
        print(f"perfbench: no dropsim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    from dropsim import cli

    if Path(cli.__file__).resolve().parent != SRC / "dropsim":
        print(f"perfbench: imported dropsim from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(metadata(args.seed), sort_keys=True))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = traced if args.trace else untraced
        metrics, runners, (probe_checks, probe_failed) = run(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    attempted = sum(r.attempted for r in runners) + probe_checks
    failed = sum(r.failed for r in runners) + probe_failed
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
