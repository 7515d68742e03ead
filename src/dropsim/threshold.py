"""Decentralized automatic threshold selection from recorded latency traces.

Every worker evaluates the same candidate thresholds against the same
synchronized trace of per-micro-batch latencies and per-iteration
communication times, computing for each candidate the mean per-iteration
effective speedup, and picks the maximizer. Because the procedure is a
deterministic function of shared data, all workers arrive at the same
threshold without further coordination.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .csvio import csv_rows, float_cells, write_csv
from .stats import add_in_order

__all__ = [
    "TraceTensor",
    "ThresholdSearchResult",
    "select_threshold",
    "default_grid",
    "write_curve_csv",
    "CURVE_HEADER",
]

CURVE_HEADER = ["tau", "s_eff", "drop_rate", "step_speedup"]


def _check_latencies(lat: np.ndarray) -> None:
    """Raise ValueError unless every latency is finite and > 0."""
    if not np.all(np.isfinite(lat)) or not np.all(lat > 0.0):
        raise ValueError("latencies must be finite and > 0")


@dataclass(frozen=True)
class TraceTensor:
    """Latency samples t[i][n][m] plus per-iteration communication times."""

    latencies: np.ndarray
    comm_times: Optional[np.ndarray] = None

    def __post_init__(self):
        # np.array copies once, whatever the input's dtype.
        lat = np.array(self.latencies, dtype=float)
        if lat.ndim != 3 or min(lat.shape) < 1:
            raise ValueError("latencies must be a nonempty (I, N, M) tensor")
        _check_latencies(lat)
        comm = self.comm_times
        comm = np.zeros(lat.shape[0]) if comm is None else np.array(comm, dtype=float)
        if comm.shape != (lat.shape[0],):
            raise ValueError("comm_times must have one entry per iteration")
        if not np.all(np.isfinite(comm)) or np.any(comm < 0.0):
            raise ValueError("comm_times must be finite and >= 0")
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
    The quantiles are read off one sort of the pooled times, so they equal
    np.quantile(pooled, levels, method="inverted_cdf") without its partition.
    """
    return _pooled_grid(np.cumsum(trace.latencies, axis=2))


def _pooled_grid(cum: np.ndarray) -> np.ndarray:
    """default_grid from the (I, N, M) cumulative times.

    Quantile q of the n sorted values is the order statistic at
    ceil(n*q - 1), clipped at 0: numpy's "inverted_cdf" rule (floor, plus
    one when the fraction is > 0).
    """
    pooled = np.sort(cum, axis=None)
    levels = np.linspace(0.01, 1.0, 256)
    index = np.maximum(np.ceil(pooled.size * levels - 1), 0).astype(np.intp)
    # Latencies are > 0, so the largest cumulative time is the largest
    # full-step time. Strict below-threshold counting makes tau == that
    # drop one batch; the next float up is the exact no-drop anchor.
    anchor = np.nextafter(pooled[-1], np.inf)
    return np.unique(np.append(pooled[index], anchor))


def _mean_completed(cum: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Mean over workers of #{m : cumulative < tau}, per (iteration, tau).

    Sorts each iteration's N*M cumulative times in place, so `cum`'s rows
    come back sorted; the counts do not depend on the order. A row longer
    than the grid is counted by one search of the grid into it: the cells
    < tau are those left of tau. Shorter rows, as in tall traces, where a
    search per iteration would cost more than it saves, are searched into
    the grid instead, ascending keys being several times faster: a
    cumulative time c counts at grid point j exactly when j >= k, with k
    the number of grid points <= c, so a histogram of k per iteration,
    accumulated along the (ascending) grid, gives every count at once.
    """
    iters, n, _ = cum.shape
    rows = cum.reshape(iters, -1)
    rows.sort(axis=1)
    if rows.shape[1] > grid.size:
        counts = np.empty((iters, grid.size), np.intp)
        for row, out in zip(rows, counts):
            out[:] = np.searchsorted(row, grid, side="left")
        return counts / n
    width = grid.size + 1
    k = np.searchsorted(grid, rows, side="right")
    k += np.arange(0, iters * width, width)[:, None]
    hist = np.bincount(k.ravel(), minlength=iters * width).reshape(iters, width)
    return np.cumsum(hist[:, :-1], axis=1) / n


# Iterations per block of the curve are chosen so that each block's
# per-(iteration, tau) and per-(iteration, sample) arrays hold at most this
# many cells: the selector's working memory stays a few MB per array however
# many iterations the trace has.
_BLOCK_CELLS = 1 << 18


def select_threshold(trace: TraceTensor,
                     grid: Optional[np.ndarray] = None) -> ThresholdSearchResult:
    """Pick the threshold maximizing mean per-iteration effective speedup.

    For every iteration i and candidate tau: the full step time is
    T_i = max_n sum_m t[i][n][m]; the per-worker completed count is
    #{m : cumulative < tau}; the per-iteration speedup is
    ((T_i + T_c[i]) / (min(tau, T_i) + T_c[i])) * (mean completed / M).
    The curve averages over iterations; ties on the maximum go to the
    largest tau (fewest drops).

    The curve is evaluated over blocks of iterations, and each block's rows
    are added to running totals one iteration at a time, in order, as the
    simulator adds its run totals: every point, for any grid size, is bit
    for bit the s_eff and drop_rate of simulate.run_from_trace at that tau,
    while the working memory stays bounded.
    """
    return _select(np.cumsum(trace.latencies, axis=2), trace.comm_times, grid)


def _select(cum: np.ndarray, comm: np.ndarray,
            grid: Optional[np.ndarray]) -> ThresholdSearchResult:
    """select_threshold from the (I, N, M) cumulative times of a checked
    trace and its (I,) comm times. cum is the caller's to give up: its rows
    come back sorted."""
    if grid is None:
        grid = _pooled_grid(cum)
    else:
        grid = np.unique(np.asarray(grid, dtype=float))
        grid = grid[grid > 0.0]
    if grid.size == 0:
        raise ValueError("threshold grid is empty")

    iters, n, m = cum.shape
    step_compute = cum[:, :, -1].max(axis=1)  # T_i, before the rows are sorted
    step_base = step_compute + comm

    block = max(1, _BLOCK_CELLS // max(grid.size + 1, n * m))
    totals = [np.zeros(grid.size)] * 3
    for lo in range(0, iters, block):
        at = slice(lo, lo + block)
        mean_completed = _mean_completed(cum[at], grid)  # (block, G)
        denom = np.minimum(grid[None, :], step_compute[at, None]) + comm[at, None]
        ratio = step_base[at, None] / denom  # per-iteration step speedup
        s_per_iter = ratio * (mean_completed / m)
        totals = [add_in_order(total, rows) for total, rows in
                  zip(totals, (s_per_iter, mean_completed, ratio))]
    s_total, completed_total, ratio_total = totals

    s_eff = s_total / iters
    drop_rate = 1.0 - (completed_total / iters) / m
    step_speedup = ratio_total / iters

    best = grid.size - 1 - int(np.argmax(s_eff[::-1]))  # ties -> largest tau
    return ThresholdSearchResult(
        tau_star=float(grid[best]),
        grid=grid,
        s_eff=s_eff,
        drop_rate=drop_rate,
        step_speedup=step_speedup,
    )


def write_curve_csv(path, result: ThresholdSearchResult,
                    comment: Optional[str] = None) -> None:
    """The curve as CSV: an optional '# comment' line, the header, one row per tau."""
    write_csv(path, comment, CURVE_HEADER, [csv_rows([
        float_cells(col) for col in (result.grid, result.s_eff, result.drop_rate,
                                     result.step_speedup)])])
