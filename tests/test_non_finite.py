"""Non-finite parameters raise ValueError where they enter the library,
instead of building a model whose moments, bounds or times come out inf or
NaN (or, for a NaN communication time, a threshold silently chosen)."""

import math

import pytest

import dropsim as ds

INF, NAN = math.inf, math.nan
_FLEET = ds.FleetSpec.homogeneous(4, ds.WorkerLatencyModel(1.0, ds.NormalNoise(0.0, 0.1)))

CASES = {
    "exponential rate inf": (lambda: ds.ExponentialNoise(INF), "rate must be > 0"),
    "normal std inf": (lambda: ds.NormalNoise(0.0, INF), "std > 0"),
    "lognormal log_std inf": (lambda: ds.LogNormalNoise(0.0, INF), "log_std > 0"),
    "gamma shape inf": (lambda: ds.GammaNoise(INF, 1.0), "shape and rate must be > 0"),
    "bernoulli scale inf": (lambda: ds.BernoulliNoise(0.5, INF), "scale must be > 0"),
    "base_mean inf": (lambda: ds.WorkerLatencyModel(INF), "base_mean must be > 0"),
    "bounded divisor inf": (lambda: ds.BoundedLogNormalNoise(4.0, 1.0, INF, 5.5),
                            "positive other parameters"),
    "bounded bound inf": (lambda: ds.BoundedLogNormalNoise(4.0, 1.0, 180.0, INF),
                          "positive other parameters"),
    "step model sigma nan": (lambda: ds.GaussianStepModel(1.0, NAN, 4, 8),
                             "sigma must be >= 0"),
    "step model t_comm nan": (lambda: ds.GaussianStepModel(1.0, 0.1, 4, 8, NAN),
                              "t_comm must be >= 0"),
    "step model mu inf": (lambda: ds.GaussianStepModel(INF, 0.1, 4, 8), "mu must be > 0"),
    "speedup t_comm nan": (lambda: ds.expected_speedup(1.0, 0.1, 12, 8, 12.5, t_comm=NAN),
                           "t_comm must be >= 0"),
    "speedup measured_ET negative": (
        lambda: ds.expected_speedup(1.0, 0.1, 12, 8, 12.5, measured_ET=-5.0),
        "measured_ET must be finite and > 0"),
    "speedup measured_ET inf": (
        lambda: ds.expected_speedup(1.0, 0.1, 12, 8, 12.5, measured_ET=INF),
        "measured_ET must be finite and > 0"),
    "optimal threshold t_comm nan": (lambda: ds.optimal_threshold_analytic(1.0, 0.1, 12, NAN),
                                     "t_comm must be >= 0"),
    "optimal threshold sigma inf": (lambda: ds.optimal_threshold_analytic(1.0, INF, 12),
                                    "sigma must be >= 0"),
    "local-sgd straggler_delay nan": (
        lambda: ds.local_sgd_run(_FLEET, 2, 0.1, NAN, iterations=10),
        "straggler_delay must be >= 0"),
}


@pytest.mark.parametrize("build, message", CASES.values(), ids=CASES.keys())
def test_non_finite_parameter_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
