#!/usr/bin/env python3
"""
Effect of the noise family on step-time inflation and threshold gains.

Five additive noise distributions with identical mean (0.225 s) and variance
(0.05 s^2) on a 0.45 s micro-batch: lognormal, normal, bernoulli,
exponential, gamma. For each, measures the baseline step-time inflation over
a single worker's mean compute and the effective speedup at the
auto-selected threshold, at a given fleet size. Heavier tails inflate the
synchronous step more and leave more for thresholding to recover.
"""

import argparse
import dataclasses
import sys

from dropsim import (BernoulliNoise, ExponentialNoise, FleetSpec, GammaNoise,
                     LogNormalNoise, NormalNoise, SimConfig, WorkerLatencyModel, run)
from dropsim.simulate import auto_tau

BASE = 0.45  # seconds per micro-batch before noise

# Matched moments: mean 0.225, variance 0.05.
FAMILIES = {
    "lognormal": LogNormalNoise(-1.84, 0.83),
    "normal": NormalNoise(0.225, 0.05**0.5),
    "bernoulli": BernoulliNoise(0.5, 0.45),
    "exponential": ExponentialNoise(1.0 / 0.225),
    "gamma": GammaNoise(shape=0.225**2 / 0.05, rate=0.225 / 0.05),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=200)
    ap.add_argument("--m", type=int, default=12)
    ap.add_argument("--t-comm", type=float, default=0.2)
    ap.add_argument("--iterations", type=int, default=200)
    ap.add_argument("--warmup", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'family':>12}  {'mean(eps)':>9}  {'var(eps)':>8}  "
          f"{'step/ideal':>10}  {'tau*':>7}  {'s_eff':>6}")
    for name, noise in FAMILIES.items():
        model = WorkerLatencyModel(BASE, noise)
        fleet = FleetSpec.homogeneous(args.workers, model)
        config = SimConfig(fleet, args.m, args.t_comm, None, args.iterations, args.seed)
        # auto_tau draws its warmup apart from the streams run scores tau on.
        tau = auto_tau(config, args.warmup)
        stats = run(dataclasses.replace(config, tau=tau))
        ideal = args.m * model.moments()[0] + args.t_comm
        inflation = stats.mean_step_base / ideal
        print(f"{name:>12}  {noise.mean():9.4f}  {noise.variance():8.4f}  "
              f"{inflation:10.3f}  {tau:7.3f}  {stats.s_eff:6.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
