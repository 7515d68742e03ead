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


def _check(mu: float, sigma: float, t_comm: float = 0.0) -> None:
    """Raise ValueError unless mu > 0, sigma >= 0 and t_comm >= 0, all finite."""
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be > 0")
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be >= 0")
    if not 0.0 <= t_comm < math.inf:
        raise ValueError("t_comm must be >= 0")


def expected_max_time(mu: float, sigma: float, m: int, n: int,
                      t_comm: float = 0.0) -> float:
    """Expected synchronous step time: expected max over n workers of the
    compute time of m micro-batches, plus t_comm.

    Blended-probit approximation of the Gaussian maximum:
    sqrt(m sigma^2) * ((1-g) Phi^-1(1-1/n) + g Phi^-1(1-1/(e n))) + m mu,
    with g the Euler-Mascheroni constant. Exact special cases: n = 1 and
    sigma = 0 both give m*mu.
    """
    _check(mu, sigma, t_comm)
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
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
    _check(mu, sigma)
    if m < 1:
        raise ValueError("m must be >= 1")
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
    _check(mu, sigma, t_comm)
    if n < 1:
        raise ValueError("n must be >= 1")
    if measured_ET is not None and not 0.0 < measured_ET < math.inf:
        raise ValueError(f"measured_ET must be finite and > 0, got {measured_ET!r}")
    et = measured_ET if measured_ET is not None else expected_max_time(mu, sigma, m, n)
    frac = expected_completed(mu, sigma, m, tau) / m
    return frac * (et + t_comm) / (min(tau, et) + t_comm)


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-10,
                        max_iter: int = 200) -> float:
    """Maximize a unimodal f on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimal_threshold_analytic(mu: float, sigma: float, m: int,
                               t_comm: float = 0.0) -> float:
    """Threshold maximizing expected completed work per second.

    Maximizes (1/(tau + T_c)) * sum_m Phi((tau - m*mu)/sqrt(m sigma^2)),
    which is the speedup objective with its N-dependent factor dropped; the
    maximizer therefore does not depend on the fleet size. Search: 512
    log-spaced points on [M*mu/2, M*mu + 6*sqrt(M)*sigma], refined by
    golden-section around the best grid point. sigma = 0 degenerates to
    tau = M*mu (every threshold that admits all M batches is optimal; the
    smallest is returned).
    """
    _check(mu, sigma, t_comm)
    if m < 1:
        raise ValueError("m must be >= 1")
    if sigma == 0.0:
        return m * mu

    def objective(tau):
        return float(_phi_sum(tau, mu, sigma, m) / (tau + t_comm))

    lo = m * mu / 2.0
    hi = m * mu + 6.0 * math.sqrt(m) * sigma
    grid = np.logspace(math.log10(lo), math.log10(hi), 512)
    # objective at every grid point at once: each row sums as objective's does
    vals = _phi_sum(grid[:, None], mu, sigma, m) / (grid + t_comm)
    best = int(np.argmax(vals))
    b_lo = grid[max(best - 1, 0)]
    b_hi = grid[min(best + 1, grid.size - 1)]
    refined = _golden_section_max(objective, b_lo, b_hi)
    # Tiny sigma turns the objective into near-steps; golden section assumes
    # unimodality and can slide off the jump, so never return a point worse
    # than the best grid point.
    if objective(refined) >= vals[best]:
        return refined
    return float(grid[best])
