"""Decentralized automatic threshold selection from recorded latency traces.

Every worker evaluates the same candidate thresholds against the same
synchronized trace of per-micro-batch latencies and per-iteration
communication times, computing for each candidate the mean per-iteration
effective speedup, and picks the maximizer. Because the procedure is a
deterministic function of shared data, all workers arrive at the same
threshold without further coordination.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .latency import comment_line

__all__ = [
    "TraceTensor",
    "ThresholdSearchResult",
    "select_threshold",
    "default_grid",
    "format_curve_csv",
    "write_curve_csv",
    "CURVE_HEADER",
]

CURVE_HEADER = ["tau", "s_eff", "drop_rate", "step_speedup"]


@dataclass(frozen=True)
class TraceTensor:
    """Latency samples t[i][n][m] plus per-iteration communication times."""

    latencies: np.ndarray
    comm_times: Optional[np.ndarray] = None

    def __post_init__(self):
        lat = np.asarray(self.latencies, dtype=float)
        if lat.ndim != 3 or min(lat.shape) < 1:
            raise ValueError("latencies must be a nonempty (I, N, M) tensor")
        if not np.all(np.isfinite(lat)) or not np.all(lat > 0.0):
            raise ValueError("latencies must be finite and > 0")
        comm = self.comm_times
        comm = np.zeros(lat.shape[0]) if comm is None else np.asarray(comm, dtype=float)
        if comm.shape != (lat.shape[0],):
            raise ValueError("comm_times must have one entry per iteration")
        if not np.all(np.isfinite(comm)) or np.any(comm < 0.0):
            raise ValueError("comm_times must be finite and >= 0")
        lat = lat.copy()
        comm = comm.copy()
        lat.setflags(write=False)
        comm.setflags(write=False)
        object.__setattr__(self, "latencies", lat)
        object.__setattr__(self, "comm_times", comm)

    @property
    def shape(self):
        return self.latencies.shape


@dataclass(frozen=True)
class ThresholdSearchResult:
    tau_star: float
    grid: np.ndarray
    s_eff: np.ndarray
    drop_rate: np.ndarray
    step_speedup: np.ndarray

    @property
    def curve(self):
        """Rows of (tau, mean s_eff, mean drop rate, mean step speedup)."""
        return list(zip(self.grid.tolist(), self.s_eff.tolist(),
                        self.drop_rate.tolist(), self.step_speedup.tolist()))

    def s_eff_at_tau_star(self) -> float:
        return float(self.s_eff[int(np.argmax(self.grid == self.tau_star))])


def default_grid(trace: TraceTensor) -> np.ndarray:
    """Candidate thresholds: 256 pooled quantiles of cumulative compute times.

    Quantile levels run from 1% to 100% over all per-worker cumulative times
    (every partial sum, all iterations and workers), deduplicated. Quantiles
    are taken without interpolation, so every candidate is an observed
    cumulative time; a constant trace collapses to the M distinct values. A
    final anchor just above the largest full-step time is always included:
    at that anchor nothing is ever dropped, pinning s_eff = 1 on the curve.
    """
    cum = np.cumsum(trace.latencies, axis=2)
    pooled = cum.ravel()
    levels = np.linspace(0.01, 1.0, 256)
    qs = np.quantile(pooled, levels, method="inverted_cdf")
    max_step = cum[:, :, -1].max()
    # Strict below-threshold counting makes tau == max_step drop one batch;
    # the next float up is the exact no-drop anchor.
    anchor = np.nextafter(max_step, np.inf)
    grid = np.unique(np.concatenate([qs, [anchor]]))
    return grid[grid > 0.0]


def _mean_completed(cum: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Mean over workers of #{m : cumulative < tau}, per (iteration, tau).

    A cumulative time c counts at grid point j exactly when j >= k, with k
    the number of grid points <= c, so a histogram of k per iteration,
    accumulated along the (ascending) grid, gives every count at once.
    """
    iters, n, _ = cum.shape
    width = grid.size + 1
    k = np.searchsorted(grid, cum, side="right")
    k += np.arange(0, iters * width, width)[:, None, None]
    hist = np.bincount(k.ravel(), minlength=iters * width).reshape(iters, width)
    return np.cumsum(hist[:, :-1], axis=1) / n


def select_threshold(trace: TraceTensor,
                     grid: Optional[np.ndarray] = None) -> ThresholdSearchResult:
    """Pick the threshold maximizing mean per-iteration effective speedup.

    For every iteration i and candidate tau: the full step time is
    T_i = max_n sum_m t[i][n][m]; the per-worker completed count is
    #{m : cumulative < tau}; the per-iteration speedup is
    ((T_i + T_c[i]) / (min(tau, T_i) + T_c[i])) * (mean completed / M).
    The curve averages over iterations; ties on the maximum go to the
    largest tau (fewest drops).
    """
    if grid is None:
        grid = default_grid(trace)
    else:
        grid = np.unique(np.asarray(grid, dtype=float))
        grid = grid[grid > 0.0]
    if grid.size == 0:
        raise ValueError("threshold grid is empty")

    m = trace.shape[2]
    cum = np.cumsum(trace.latencies, axis=2)
    step_compute = cum[:, :, -1].max(axis=1)  # T_i
    step_base = step_compute + trace.comm_times

    mean_completed = _mean_completed(cum, grid)  # (I, G)

    denom = np.minimum(grid[None, :], step_compute[:, None]) + trace.comm_times[:, None]
    ratio = step_base[:, None] / denom  # per-iteration step speedup
    s_per_iter = ratio * (mean_completed / m)

    s_eff = s_per_iter.mean(axis=0)
    drop_rate = 1.0 - mean_completed.mean(axis=0) / m
    step_speedup = ratio.mean(axis=0)

    best = grid.size - 1 - int(np.argmax(s_eff[::-1]))  # ties -> largest tau
    return ThresholdSearchResult(
        tau_star=float(grid[best]),
        grid=grid,
        s_eff=s_eff,
        drop_rate=drop_rate,
        step_speedup=step_speedup,
    )


def format_curve_csv(result: ThresholdSearchResult,
                     comment: Optional[str] = None) -> str:
    """The curve as CSV text: optional '# comment' line, header, one row per tau."""
    buf = io.StringIO()
    buf.write(comment_line(comment))
    writer = csv.writer(buf)
    writer.writerow(CURVE_HEADER)
    for row in result.curve:
        writer.writerow([repr(v) for v in row])
    return buf.getvalue()


def write_curve_csv(path, result: ThresholdSearchResult,
                    comment: Optional[str] = None) -> None:
    text = format_curve_csv(result, comment)
    with open(path, "w", newline="") as fh:
        fh.write(text)
