"""Per-layer metrics derived from one traced pass of each workload."""
from __future__ import annotations

import statistics


def _named(tracer, op_idx: int, name: str) -> list:
    return [s for s in tracer.under(op_idx) if s.name == name]


def _ops_of(workload, op_spans: dict, kind: str) -> list[int]:
    return [op_spans[op.name] for op in workload.ops if op.kind == kind]


def trace_select(tracer, op_spans: dict, workload) -> dict:
    ops = _ops_of(workload, op_spans, "select_threshold")

    def per_call(name):
        return statistics.mean(s.duration for i in ops for s in _named(tracer, i, name))

    read_s = per_call("latency.read_trace_csv")
    return {
        "latency.read_trace_csv_s": read_s,
        "latency.read_trace_rows_per_s": workload.inputs["lat"].size / read_s,
        "latency.read_comm_csv_s": per_call("latency.read_comm_csv"),
        "threshold.trace_tensor_s": per_call("threshold.TraceTensor"),
        "cli.select_threshold_self_s": sum(tracer.self_time(i) for i in ops),
    }


def fleet_sim(tracer, op_spans: dict, workload) -> dict:
    sims = _ops_of(workload, op_spans, "simulate")
    (sweep,) = _ops_of(workload, op_spans, "scale_sweep")
    return {
        "cli.simulate_self_s": sum(tracer.self_time(i) for i in sims),
        "cli.scale_sweep_self_s": tracer.self_time(sweep),
        "threshold.select_warmup_s": sum(
            s.duration for i in op_spans.values()
            for s in _named(tracer, i, "threshold.select_threshold")),
        "simulate.hetero_run_s": sum(
            s.duration for s in _named(tracer, op_spans["api-hetero"], "simulate.run")),
        "simulate.local_sgd_run_s": sum(
            s.duration for s in _named(tracer, op_spans["local-sgd"],
                                       "simulate.local_sgd_run")),
    }


def sgd_verify(tracer, op_spans: dict, workload) -> dict:
    benches = _ops_of(workload, op_spans, "sgd_bench")
    verifies = {op: [s for s in tracer.under(op_spans[op]) if s.name.startswith("sgd.verify_")]
                for op in ("sgd-bench-convex", "sgd-bench-nonconvex", "api-timing-verify")}
    all_verifies = [s for spans in verifies.values() for s in spans]
    return {
        "cli.sgd_bench_self_s": sum(tracer.self_time(i) for i in benches),
        "sgd.problem_build_s": sum(s.duration for i in benches
                                   for s in _named(tracer, i, "sgd.problem")),
        "sgd.verify_convex_s": sum(s.duration for s in verifies["sgd-bench-convex"]),
        "sgd.verify_nonconvex_s": sum(s.duration for s in verifies["sgd-bench-nonconvex"]),
        "sgd.verify_timing_s": sum(s.duration for s in verifies["api-timing-verify"]),
        "sgd.steps": statistics.mean(s.counts.get("sgd.draw", 0) for s in all_verifies),
    }


EXTRACT = {"trace-select": trace_select, "fleet-sim": fleet_sim, "sgd-verify": sgd_verify}


def unit(name: str) -> str:
    for suffix, u in (("_us", "us"), ("_rows_per_s", "1/s"), ("_s", "s"),
                      ("_mb", "MB"), ("_ratio", "ratio"),
                      ("ns_per_sample_candidate", "ns")):
        if name.endswith(suffix):
            return u
    return "count"
