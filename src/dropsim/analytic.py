"""Closed-form estimators for synchronous step timing under thresholds.

Per-worker cumulative compute time after m micro-batches is modeled as
Gaussian N(m*mu, m*sigma^2). From that: a probit-based approximation of the
expected step time (max over N workers), the expected number of completed
micro-batches under a threshold, the expected effective speedup, and the
threshold maximizing it. The
expected-maximum approximation blends the 1-1/N and 1-1/(eN) quantiles with
Euler-Mascheroni weights; its error grows when the per-micro-batch noise is
far from Gaussian, which is why the speedup estimator accepts a measured
expected maximum as an override.
"""
from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .stats import EULER_GAMMA, phi_cdf, phi_inv

__all__ = [
    "expected_max_time",
    "expected_completed",
    "expected_speedup",
    "optimal_threshold_analytic",
]


def _check(mu: float, sigma: float, t_comm: float = 0.0, m: int = 1, n: int = 1) -> None:
    """Check, in this order, finite mu > 0, sigma >= 0 and t_comm >= 0, then m >= 1
    and n >= 1; raise ValueError at the first that fails. The defaults pass."""
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be > 0")
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be >= 0")
    if not 0.0 <= t_comm < math.inf:
        raise ValueError("t_comm must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")


def expected_max_time(mu: float, sigma: float, m: int, n: int,
                      t_comm: float = 0.0) -> float:
    """Expected synchronous step time: expected max over n workers of the
    compute time of m micro-batches, plus t_comm.

    Blended-probit approximation of the Gaussian maximum:
    sqrt(m sigma^2) * ((1-g) Phi^-1(1-1/n) + g Phi^-1(1-1/(e n))) + m mu,
    with g the Euler-Mascheroni constant. Exact special cases: n = 1 and
    sigma = 0 both give m*mu.
    """
    _check(mu, sigma, t_comm, m, n)
    if n == 1 or sigma == 0.0:
        return m * mu + t_comm
    g = EULER_GAMMA
    scale = math.sqrt(m) * sigma
    q = (1.0 - g) * phi_inv(1.0 - 1.0 / n) + g * phi_inv(1.0 - 1.0 / (math.e * n))
    return scale * q + m * mu + t_comm


def _phi_sum(tau, mu: float, sigma: float, m: int):
    """Sum over k = 1..m of Phi((tau - k*mu)/sqrt(k sigma^2)), along the
    last axis: a float for a scalar tau, one sum per row for a column."""
    ks = np.arange(1, m + 1, dtype=float)
    return np.sum(phi_cdf((tau - ks * mu) / (np.sqrt(ks) * sigma)), axis=-1)


def expected_completed(mu: float, sigma: float, m: int, tau: float) -> float:
    """Expected micro-batches finishing strictly before tau, per worker.

    Sum over m of Phi((tau - m*mu)/sqrt(m*sigma^2)). The approximation is
    derived for tau > M*mu/2; smaller thresholds trigger a warning rather
    than an error since the sum itself stays well defined. At sigma = 0 the
    count is exact and never warns.
    """
    _check(mu, sigma, m=m)
    if not (tau > 0.0):
        raise ValueError("tau must be > 0")
    if math.isinf(tau):
        return float(m)
    if sigma == 0.0:
        return float(np.count_nonzero(np.arange(1, m + 1, dtype=float) * mu < tau))
    if tau <= m * mu / 2.0:
        warnings.warn("expected_completed evaluated at tau <= M*mu/2, outside "
                      "the approximation's derivation domain", stacklevel=2)
    return float(_phi_sum(tau, mu, sigma, m))


def expected_speedup(mu: float, sigma: float, m: int, n: int, tau: float,
                     t_comm: float = 0.0,
                     measured_ET: Optional[float] = None) -> float:
    """Expected effective speedup of thresholding at tau.

    (E[completed]/M) * (E[T] + T_c) / (min(tau, E[T]) + T_c), with E[T] the
    expected max compute time (communication excluded, then added to both
    ratio terms so an unbinding threshold gives exactly 1). measured_ET,
    when given, replaces the probit approximation of E[T]; pass the measured
    mean max compute time when the latency law is far from Gaussian.
    """
    _check(mu, sigma, t_comm, n=n)
    if measured_ET is not None and not 0.0 < measured_ET < math.inf:
        raise ValueError(f"measured_ET must be finite and > 0, got {measured_ET!r}")
    et = measured_ET if measured_ET is not None else expected_max_time(mu, sigma, m, n)
    frac = expected_completed(mu, sigma, m, tau) / m
    return frac * (et + t_comm) / (min(tau, et) + t_comm)


def optimal_threshold_analytic(mu: float, sigma: float, m: int,
                               t_comm: float = 0.0) -> float:
    """Threshold maximizing expected completed work per second.

    Maximizes (1/(tau + T_c)) * sum_m Phi((tau - m*mu)/sqrt(m sigma^2)),
    which is the speedup objective with its N-dependent factor dropped; the
    maximizer therefore does not depend on the fleet size. Search: the best
    of 512 log-spaced points on [M*mu/2, M*mu + 6*sqrt(M)*sigma], then 7
    rounds of 33 points centred on the best point so far, clipped to that
    range and spaced at 1/16 of the gap to the best grid point's wider
    neighbour, then at 1/16 of the round before's. Each round holds the best
    point, so the best value never falls, even where tiny sigma turns the
    objective into near-steps. sigma = 0 degenerates to tau = M*mu (every
    threshold that admits all M batches is optimal; the smallest is returned).
    """
    _check(mu, sigma, t_comm, m)
    if sigma == 0.0:
        return float(m * mu)

    def scores(taus):
        return _phi_sum(taus[:, None], mu, sigma, m) / (taus + t_comm)

    lo, hi = m * mu / 2.0, m * mu + 6.0 * math.sqrt(m) * sigma
    # logspace's end points can round to just outside [lo, hi].
    grid = np.clip(np.logspace(math.log10(lo), math.log10(hi), 512), lo, hi)
    at = int(np.argmax(scores(grid)))
    tau, step = grid[at], max(np.diff(grid[max(at - 1, 0):at + 2]))
    for _ in range(7):
        step /= 16.0
        taus = np.clip(tau + step * np.arange(-16, 17), lo, hi)
        tau = taus[np.argmax(scores(taus))]
    return float(tau)
