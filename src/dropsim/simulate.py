"""Timing simulator for synchronous data-parallel training steps.

Each iteration, every worker accumulates M micro-batch gradients; the step
ends when the slowest worker finishes plus a serial communication latency.
With a compute threshold tau, a worker is preempted at min(tau, T_n) and
contributes only the micro-batches whose cumulative compute time stayed
strictly below tau. The simulator measures step times, completed work, and
the effective speedup of thresholding versus the no-drop baseline, plus a
Local-SGD timing variant with straggler injection.

Gradient numerics live in the sgd module; this module is timing only.
"""
from __future__ import annotations

import dataclasses
import itertools
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import threshold
from .csvio import csv_rows, csv_text, float_cells, int_cells, row_blocks, write_csv
from .latency import FleetSpec
from .stats import RngStream, StreamGenerator, add_in_order

__all__ = [
    "SimConfig",
    "RunStats",
    "SimRun",
    "LocalSgdResult",
    "SweepPoint",
    "IterationBlock",
    "simulate_block",
    "simulate_iteration",
    "run",
    "run_detailed",
    "run_from_trace",
    "run_records_csv",
    "auto_tau",
    "scale_sweep",
    "local_sgd_run",
    "write_records_csv",
]

# Stream id of the default warmup run of auto_tau; a run without an explicit
# stream draws from stream 0.
AUTO_TAU_STREAM = 1

RECORDS_HEADER = ["iteration", "worker", "T_n", "stop_time", "completed"]


@dataclass(frozen=True)
class SimConfig:
    """Full description of a timing experiment.

    tau is the per-iteration compute budget in seconds; None disables
    dropping (baseline). stop_at_accumulation_boundary switches the
    preemption point from exactly tau to the end of the last micro-batch
    that finished under tau (the between-accumulations break); default is
    preemption at exactly tau, which matches the min(tau, T_n) stop time
    the analysis assumes.
    """

    fleet: FleetSpec
    m_per_step: int
    t_comm: float = 0.0
    tau: Optional[float] = None
    iterations: int = 1
    seed: int = 0
    stop_at_accumulation_boundary: bool = False

    def __post_init__(self):
        if self.m_per_step < 1:
            raise ValueError("m_per_step must be >= 1")
        if not 0.0 <= self.t_comm < np.inf:
            raise ValueError(f"t_comm must be finite and >= 0, got {self.t_comm!r}")
        _check_tau(self.tau)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


def _check_tau(tau) -> None:
    """tau is None, or a real number > 0 that is not a bool."""
    if tau is not None and (isinstance(tau, bool) or not isinstance(tau, numbers.Real)
                            or not tau > 0.0):
        raise ValueError(f"tau must be None or a number > 0, got {tau!r}")


@dataclass(frozen=True)
class RunStats:
    """Aggregate over all iterations of a run."""

    n_workers: int
    m_per_step: int
    iterations: int
    tau: Optional[float]
    mean_step_base: float
    mean_step_drop: float
    mean_completed: float  # per worker per iteration
    drop_rate: float  # 1 - mean_completed / M
    s_eff: float  # mean over iterations of per-iteration speedup
    throughput: float  # micro-batches per second under the threshold
    throughput_base: float  # micro-batches per second, no drops


@dataclass(frozen=True)
class SimRun:
    stats: RunStats
    records: IterationBlock  # row i is iteration i
    trace: np.ndarray  # (iterations, N, M) sampled latencies
    comm_times: np.ndarray  # (iterations,)


@dataclass(frozen=True)
class LocalSgdResult:
    local_sgd_speedup: float
    dropcompute_speedup: float
    sync_step_time: float  # mean fully-synchronous step time (reference)
    local_sgd_step_time: float
    dropcompute_step_time: float
    tau: float


@dataclass(frozen=True)
class SweepPoint(RunStats):
    """One scale_sweep point: its run's stats, plus the linear-scaling reference."""

    linear_ref: float  # the smallest fleet's baseline throughput per worker, times N


# ---------------------------------------------------------------------------
# The block engine. Every simulation path draws and evaluates (B, N, M)
# blocks of iterations. Each iteration draws its (N, M) matrix from its own
# stream address, worker after worker, and run totals are added in iteration
# order, so no output depends on the block size.
# ---------------------------------------------------------------------------

# Latency samples per block; bounds the engine's temporaries to a few MB.
_BLOCK_SAMPLES = 1 << 16


def _block_len(n: int, m: int) -> int:
    return max(1, _BLOCK_SAMPLES // (n * m))


class _Sampler:
    """Draws latency blocks for one fleet from the streams of one seed.

    Iteration k of a block draws its whole (N, M) matrix from one stream,
    worker after worker. The workers fall into runs of consecutive equal
    models: each run's rows are filled in place from the iteration's
    generator (NoiseSpec.fill), and each run is then mapped once over the
    block (NoiseSpec.finish), which gives the bits of drawing each worker's
    M values in turn with `sample`.
    """

    def __init__(self, config: SimConfig, rng: RngStream):
        self.n, self.m, self.rng = config.fleet.n, config.m_per_step, rng
        self.at = StreamGenerator(rng.seed).at
        # Runs of equal workers, compared as FleetSpec.is_homogeneous does.
        workers = config.fleet.workers
        sizes = [len(list(run)) for _, run in itertools.groupby(workers)]
        stops = list(itertools.accumulate(sizes))
        self.runs = [(workers[a], slice(a, b)) for a, b in zip([0] + stops, stops)]

    def draw(self, iterations) -> np.ndarray:
        """(B, N, M) latencies, row k drawn from stream rng.derive(iterations[k])."""
        ids = np.atleast_1d(self.rng.derive_ids(iterations))
        eps = np.empty((ids.size, self.n, self.m))
        at, fills = self.at, [(model.noise.fill, rows) for model, rows in self.runs]
        for sid, row in zip(ids.tolist(), eps):
            gen = at(sid)
            for fill, rows in fills:
                fill(gen, row[rows])
        for model, rows in self.runs:
            run = eps[:, rows]
            model.noise.finish(run)
            model.times(run, run)
        return eps


# A step of _cumulate's loop is one np.add call of about 1.5 us plus about
# 0.3 ns a cell; np.add.accumulate's short inner loops take 2.5 to 16 ns a
# cell, the most at small M. The loop was as fast as accumulate at about
# 640 cells a step for M from 12 to 100 (2-core x86-64, numpy 2.4.6).
_STEP_CELLS = 640


def _cumulate(x: np.ndarray) -> np.ndarray:
    """x summed in place along its last (micro-batch) axis, bit for bit as
    np.add.accumulate(x, axis=-1, out=x) sums it.

    Where one step along that axis covers at least _STEP_CELLS cells, the
    sums are taken by M - 1 strided adds of whole steps, each adding the
    same two values in the same order as accumulate does.
    """
    m = x.shape[-1]
    if x.size < _STEP_CELLS * m:
        return np.add.accumulate(x, axis=-1, out=x)
    for k in range(1, m):
        np.add(x[..., k - 1], x[..., k], out=x[..., k])
    return x


class IterationBlock(NamedTuple):
    """Threshold outcome of B iterations, one row per iteration."""

    compute_times: np.ndarray  # (B, N) T_n, full M micro-batch sums
    stop_times: np.ndarray  # (B, N) preemption-aware busy time per worker
    completed: np.ndarray  # (B, N) micro-batches counted per worker
    step_base: np.ndarray  # (B,) max_n T_n + T_c
    step_drop: np.ndarray  # (B,) max_n stop_n + T_c
    mean_completed: np.ndarray  # (B,) per worker
    s_eff: np.ndarray  # (B,) per-iteration effective speedup


def _evaluate(times: np.ndarray, tau: Optional[float], t_comm,
              stop_at_boundary: bool) -> IterationBlock:
    """Threshold semantics for a (B, N, M) block of latency matrices.

    Micro-batch m counts iff its cumulative finish time is strictly below
    tau; equality drops the batch. t_comm is a scalar or one value per
    iteration. times is consumed: it is the caller's to give up, and comes
    back holding the cumulative finish times, summed in place.
    """
    b, n, m = times.shape
    cum = _cumulate(times)
    compute = cum[:, :, -1].copy()  # not a view: records must not pin cum
    step_base = compute.max(axis=1) + t_comm
    if tau is None:
        return IterationBlock(compute, compute.copy(), np.full((b, n), m), step_base,
                              step_base, np.full(b, float(m)), np.ones(b))
    completed = (cum < tau).sum(axis=2)
    if stop_at_boundary:
        # Worker leaves at the last counted accumulation boundary.
        last = np.maximum(completed - 1, 0)[:, :, None]
        stop = np.where(completed > 0, np.take_along_axis(cum, last, axis=2)[:, :, 0], 0.0)
    else:
        stop = np.minimum(tau, compute)
    step_drop = stop.max(axis=1) + t_comm
    mean_completed = completed.sum(axis=1) / n  # integer sum: exact, as mean() is
    idle = (step_drop <= 0.0) | (mean_completed == 0.0)
    s_eff = step_base / np.where(idle, 1.0, step_drop) * (mean_completed / m)
    s_eff[idle] = 0.0
    return IterationBlock(compute, stop, completed, step_base, step_drop,
                          mean_completed, s_eff)


def _fold(blocks, n: int, m: int, tau, iterations: int, on_block=None) -> RunStats:
    """RunStats over (first iteration, IterationBlock) pairs; on_block, when
    given, is called with each pair as it is folded."""
    totals = np.zeros(4)
    for first, block in blocks:
        totals = add_in_order(totals, np.column_stack(
            [block.step_base, block.step_drop, block.mean_completed, block.s_eff]))
        if on_block is not None:
            on_block(first, block)
    sum_base, sum_drop, sum_completed, sum_seff = totals.tolist()
    mean_base = sum_base / iterations
    mean_drop = sum_drop / iterations
    mean_completed = sum_completed / iterations
    stats = RunStats(
        n_workers=n,
        m_per_step=m,
        iterations=iterations,
        tau=tau,
        mean_step_base=mean_base,
        mean_step_drop=mean_drop,
        mean_completed=mean_completed,
        drop_rate=1.0 - mean_completed / m,
        s_eff=sum_seff / iterations,
        # With nothing completed every step can take no time (boundary mode,
        # T_c = 0); such a run does no work, as an idle step scores s_eff 0.
        throughput=n * mean_completed / mean_drop if mean_completed else 0.0,
        throughput_base=n * m / mean_base,
    )
    return stats


def _drawn_blocks(config: SimConfig, root: RngStream):
    """(first iteration, (B, N, M) latencies) over config.iterations,
    iteration i drawn from root.derive(i)."""
    sampler = _Sampler(config, root)
    step = _block_len(config.fleet.n, config.m_per_step)
    for first in range(0, config.iterations, step):
        yield first, sampler.draw(np.arange(first, min(first + step, config.iterations)))


def _simulated_blocks(config: SimConfig, root: RngStream):
    """(first iteration, IterationBlock) of config's run drawn from root."""
    for first, times in _drawn_blocks(config, root):
        yield first, _evaluate(times, config.tau, config.t_comm,
                               config.stop_at_accumulation_boundary)


def _draw_trace(config: SimConfig, root: RngStream) -> np.ndarray:
    """The (I, N, M) latencies of config's run drawn from root."""
    trace = np.empty((config.iterations, config.fleet.n, config.m_per_step))
    for first, times in _drawn_blocks(config, root):
        trace[first:first + len(times)] = times
    return trace


def _replay(trace: np.ndarray, comm: np.ndarray, tau: Optional[float],
            stop_at_boundary: bool) -> SimRun:
    """SimRun of a checked (I, N, M) trace and its (I,) comm times under tau."""
    iterations, n, m = trace.shape
    step = _block_len(n, m)
    # _evaluate sums each block in place: give it a copy, so that the
    # caller's trace, and the trace a SimRun returns, keep their latencies.
    blocks = [(first, _evaluate(trace[first:first + step].copy(), tau,
                                comm[first:first + step], stop_at_boundary))
              for first in range(0, iterations, step)]
    stats = _fold(blocks, n, m, tau, iterations)
    records = IterationBlock(*map(np.concatenate, zip(*(block for _, block in blocks))))
    return SimRun(stats, records, trace, comm)


def simulate_block(config: SimConfig, rng: RngStream, iterations) -> IterationBlock:
    """Iteration iterations[k] of rng in row k: drawn from rng.derive(iterations[k])."""
    times = _Sampler(config, rng).draw(iterations)
    return _evaluate(times, config.tau, config.t_comm, config.stop_at_accumulation_boundary)


def simulate_iteration(config: SimConfig, iter_index: int,
                       rng: Optional[RngStream] = None) -> IterationBlock:
    """Simulate one synchronous iteration: the one-row block
    simulate_block(config, rng, [iter_index]), rng defaulting to stream 0."""
    root = rng if rng is not None else RngStream(config.seed, 0)
    return simulate_block(config, root, [iter_index])


def run(config: SimConfig, rng: Optional[RngStream] = None) -> RunStats:
    """Run all iterations and aggregate; memory does not grow with the iteration count."""
    root = rng if rng is not None else RngStream(config.seed, 0)
    return _fold(_simulated_blocks(config, root), config.fleet.n, config.m_per_step,
                 config.tau, config.iterations)


def run_detailed(config: SimConfig, rng: Optional[RngStream] = None) -> SimRun:
    """Like run, but keeps per-iteration records and the sampled latency trace.

    The trace is the (I, N, M) tensor the threshold selector consumes.
    Memory scales with I*N*M; use run() for large sweeps.
    """
    root = rng if rng is not None else RngStream(config.seed, 0)
    return _replay(_draw_trace(config, root), np.full(config.iterations, config.t_comm),
                   config.tau, config.stop_at_accumulation_boundary)


def run_records_csv(config: SimConfig, fh, comment: Optional[str] = None) -> RunStats:
    """Like run, but writes the run's records CSV to the text file fh one
    block at a time, so memory does not grow with the iteration count.

    The text is what write_records_csv writes for run_detailed(config).records
    and comment; no trace is built.
    """
    fh.write(csv_text(comment, RECORDS_HEADER, ()))
    return _fold(_simulated_blocks(config, RngStream(config.seed, 0)), config.fleet.n,
                 config.m_per_step, config.tau, config.iterations,
                 lambda first, block: fh.write(_records_text(
                     first, block.compute_times, block.stop_times, block.completed)))


def run_from_trace(trace: np.ndarray, comm_times, tau: Optional[float],
                   stop_at_accumulation_boundary: bool = False) -> SimRun:
    """Replay a recorded (I, N, M) latency trace under a threshold.

    comm_times holds one time per iteration, or one for all. The inputs must
    pass threshold.TraceTensor's checks and tau SimConfig's (None or a
    number > 0); ValueError otherwise. The measured s_eff and drop_rate
    equal, bit for bit, the threshold module's curve at tau for the same
    trace; used as the cross-check oracle.
    """
    _check_tau(tau)
    checked = threshold.TraceTensor(trace, np.broadcast_to(comm_times, np.shape(trace)[:1]))
    return _replay(checked.latencies, checked.comm_times, tau, stop_at_accumulation_boundary)


def auto_tau(config: SimConfig, warmup_iterations: int,
             rng: Optional[RngStream] = None) -> float:
    """tau* of the threshold search on a warmup trace of config's fleet.

    The warmup draws warmup_iterations iterations from rng, by default
    RngStream(config.seed, AUTO_TAU_STREAM). run(config) and
    run_detailed(config) draw from RngStream(config.seed, 0), so tau* is
    never scored on the samples it was chosen from. The search runs on the
    warmup draw itself, turned into cumulative times in place, so it holds
    about two warmup-sized arrays: the draw and the grid's pooled sort.
    """
    root = rng if rng is not None else RngStream(config.seed, AUTO_TAU_STREAM)
    trace = _draw_trace(dataclasses.replace(config, iterations=warmup_iterations), root)
    threshold._check_latencies(trace)
    cum = _cumulate(trace)
    return threshold._select(cum, np.full(warmup_iterations, config.t_comm), None).tau_star


def scale_sweep(template: SimConfig, n_list, tau_policy="auto",
                warmup_iterations: int = 100, max_workers: int = 1) -> list:
    """Repeat the experiment across fleet sizes.

    tau_policy: None runs the no-drop baseline only; a float fixes tau for
    every N; "auto" selects tau per N from a warmup trace with the
    decentralized threshold search. Per-N randomness is derived from the
    template seed and N, and the points run one after another, in n_list
    order, on the calling thread. max_workers is checked (>= 1) but runs
    nothing in parallel: it stays for callers that still pass it. Each point
    is its run's RunStats plus linear_ref, the linear-scaling reference that
    extrapolates the smallest fleet's baseline throughput.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    if not template.fleet.is_homogeneous:
        raise ValueError("scale_sweep requires a homogeneous fleet template")
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
    root = RngStream(template.seed, 0)
    points = []
    for n in n_list:
        cfg = dataclasses.replace(template, tau=None,
                                  fleet=FleetSpec.homogeneous(n, template.fleet.workers[0]))
        # Distinct sub-streams for the warmup trace and the measured run,
        # keyed by N so that points are independent of each other.
        tau = tau_policy
        if tau_policy == "auto":
            tau = auto_tau(cfg, warmup_iterations, rng=root.derive(n, 0))
        stats = run(dataclasses.replace(cfg, tau=tau), rng=root.derive(n, 1))
        if not points:
            base_rate = stats.throughput_base / n
        points.append(SweepPoint(**vars(stats), linear_ref=base_rate * n))
    return points


def local_sgd_run(fleet: FleetSpec, sync_period: int, straggler_prob: float,
                  straggler_delay: float, mode: str = "uniform",
                  iterations: int = 2000, tau: Optional[float] = None,
                  seed: int = 0, server_size: int = 8) -> LocalSgdResult:
    """Timing comparison: fully synchronous vs Local-SGD vs Local-SGD + threshold.

    Workers take H = sync_period local steps between barriers. Local step
    s draws every worker's compute time, worker after worker, from stream
    RngStream(seed, 0).derive(0, s): the block engine's iteration s of one
    micro-batch. A straggling step additionally waits straggler_delay
    seconds. Under "uniform" every worker straggles i.i.d. with
    straggler_prob; under "single_server" straggler events are confined to
    the first server_size workers, with the per-worker probability scaled
    to keep the fleet-level straggler rate equal. A rate those workers
    cannot carry, straggler_prob * N > server_size, raises ValueError
    rather than being lowered. The threshold variant
    caps every local step at tau (default: fleet mean step time +
    straggler_delay / 10).

    All three variants share the same sampled times, so the threshold
    variant is never slower than plain Local-SGD on any path.
    """
    if sync_period < 1:
        raise ValueError("sync_period must be >= 1")
    if not (0.0 <= straggler_prob <= 1.0):
        raise ValueError("straggler_prob must be in [0, 1]")
    if not 0.0 <= straggler_delay < np.inf:
        raise ValueError("straggler_delay must be >= 0")
    if mode not in ("uniform", "single_server"):
        raise ValueError(f"unknown straggler mode {mode!r}")
    if server_size < 1:
        raise ValueError("server_size must be >= 1")
    _check_tau(tau)
    n = fleet.n
    group = min(server_size, n)
    if mode == "single_server" and straggler_prob * n / group > 1.0:
        raise ValueError(f"single_server needs straggler_prob * workers <= server_size, "
                         f"got straggler_prob {straggler_prob}, {n} workers and "
                         f"server_size {server_size}")

    steps = (iterations // sync_period) * sync_period
    if steps <= 0:
        raise ValueError("iterations must cover at least one sync period")
    root = RngStream(seed, 0)

    times = _draw_trace(SimConfig(fleet, 1, iterations=steps), root.derive(0))[:, :, 0]

    u = root.derive(1).generator().random((steps, n))
    if mode == "uniform":
        straggle = u < straggler_prob
    else:
        straggle = np.zeros((steps, n), dtype=bool)
        straggle[:, :group] = u[:, :group] < straggler_prob * n / group
    del u

    # times + straggler_delay * straggle, in times' own buffer: times are
    # > 0, so adding 0.0 where a worker does not straggle changes no bit.
    delayed = np.add(times, straggler_delay, out=times, where=straggle)
    if tau is None:
        mean_step = float(np.mean([m.moments()[0] for m in fleet.workers]))
        tau = mean_step + straggler_delay / 10.0
    clipped = np.minimum(delayed, tau)

    # Fully synchronous reference: barrier after every step.
    sync_total = float(delayed.max(axis=1).sum())
    # Local-SGD: barrier after each block of H steps.
    rounds = delayed.reshape(-1, sync_period, n).sum(axis=1)
    local_total = float(rounds.max(axis=1).sum())
    drop_rounds = clipped.reshape(-1, sync_period, n).sum(axis=1)
    drop_total = float(drop_rounds.max(axis=1).sum())

    return LocalSgdResult(
        local_sgd_speedup=sync_total / local_total,
        dropcompute_speedup=sync_total / drop_total,
        sync_step_time=sync_total / steps,
        local_sgd_step_time=local_total / steps,
        dropcompute_step_time=drop_total / steps,
        tau=float(tau),
    )


def _records_text(first: int, compute_times, stop_times, completed) -> str:
    """Records CSV rows of B iterations: row k of the (B, N) arrays holds
    iteration first + k's workers."""
    t = np.asarray(compute_times, dtype=float)
    b, n = t.shape
    t = t.ravel()
    s = np.asarray(stop_times, dtype=float).ravel()
    # Workers that finish under tau stop at T_n: reuse its text (zero
    # excluded, since -0.0 == 0.0 but their reprs differ).
    other = np.flatnonzero((s != t) | (t == 0.0))
    stops = s[other]
    # In exact mode every clipped worker stops at tau: when the other stops
    # share one bit pattern, format it once.
    if stops.size and (stops.view(np.uint64) == stops[:1].view(np.uint64)).all():
        stops = stops[:1]
    table = float_cells(np.concatenate([t, stops]))
    pick = np.arange(t.size)
    pick[other] = np.arange(t.size, table.shape[1])  # one cell broadcasts
    # The integer cells are formatted once per distinct value, then repeated.
    completed = np.asarray(completed, dtype=np.int64).ravel()
    return csv_rows([np.repeat(int_cells(np.arange(first, first + b)), n, axis=1),
                     np.tile(int_cells(np.arange(n)), b), table[:, :t.size], table[:, pick],
                     int_cells(np.arange(completed.max(initial=0) + 1))[:, completed]])


def write_records_csv(path, records: IterationBlock, comment: Optional[str] = None) -> None:
    """Per-iteration, per-worker records: an optional ``# comment`` line, the
    header iteration,worker,T_n,stop_time,completed, then one row per worker
    of each row (iteration) of records, with the csv module's CRLF line ends
    and the repr of each time, so floats round-trip; written in row_blocks.
    """
    blocks = row_blocks(len(records.s_eff), records.compute_times.shape[1])
    write_csv(path, comment, RECORDS_HEADER, (
        _records_text(rows.start, records.compute_times[rows], records.stop_times[rows],
                      records.completed[rows]) for rows in blocks))
