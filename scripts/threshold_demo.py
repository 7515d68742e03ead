#!/usr/bin/env python3
"""
Threshold selection walkthrough on a trace with a persistent straggler.

Simulates a fleet where one worker runs a constant factor slower, writes the
latency trace to CSV, runs the decentralized threshold search on it, and
writes the speedup curve.
"""

import argparse
import sys

import numpy as np

from dropsim import (FleetSpec, NormalNoise, SimConfig, TraceTensor,
                     WorkerLatencyModel, run_detailed, select_threshold)
from dropsim.csvio import write_comm_csv, write_trace_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=8)
    ap.add_argument("--m", type=int, default=12)
    ap.add_argument("--slow-factor", type=float, default=2.0)
    ap.add_argument("--t-comm", type=float, default=0.2)
    ap.add_argument("--iterations", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace-out", default="straggler_trace.csv")
    ap.add_argument("--curve-out", default="threshold_curve.csv")
    args = ap.parse_args()

    fast = WorkerLatencyModel(1.0, NormalNoise(0.0, 0.08))
    slow = WorkerLatencyModel(args.slow_factor, NormalNoise(0.0, 0.08))
    fleet = FleetSpec((slow,) + (fast,) * (args.workers - 1))
    sim = run_detailed(SimConfig(fleet, args.m, args.t_comm, None,
                                 args.iterations, args.seed))
    write_trace_csv(args.trace_out, sim.trace)
    write_comm_csv(args.trace_out.replace(".csv", "_comm.csv"), sim.comm_times)

    trace = TraceTensor(sim.trace, sim.comm_times)
    result = select_threshold(trace)
    slow_time = sim.trace[:, 0, :].sum(axis=1).mean()
    print(f"slow worker's mean step compute: {slow_time:.3f} s")
    print(f"tau* = {result.tau_star:.4f} s, "
          f"s_eff(tau*) = {result.s_eff_at_tau_star():.4f}")
    print(f"drop rate at tau*: "
          f"{result.drop_rate[np.argmax(result.grid == result.tau_star)]:.4f}")

    from dropsim.threshold import write_curve_csv
    write_curve_csv(args.curve_out, result)
    print(f"wrote {args.trace_out} and {args.curve_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
