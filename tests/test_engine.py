"""The block engine against a per-iteration oracle.

The oracle below is the simulator's former one-iteration-at-a-time loop:
one fresh Philox generator per stream address, threshold evaluation of one
(N, M) matrix at a time, and run totals added iteration by iteration. The
engine must reproduce it bit for bit, at any block size.
"""

import csv
import dataclasses
import io
import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dropsim as ds
from dropsim import simulate
from dropsim.latency import NOISE_KINDS
from dropsim.simulate import IterationBlock, RunStats
from dropsim.stats import StreamGenerator

_MODELS = {
    "none": ds.WorkerLatencyModel(0.45, ds.NoNoise()),
    "normal": ds.WorkerLatencyModel(1.0, ds.NormalNoise(0.0, 0.1)),
    # A second normal spec: a mixed fleet maps each worker's draws with its own loc and std.
    "normal_shifted": ds.WorkerLatencyModel(0.8, ds.NormalNoise(0.05, 0.3),
                                            "additive_scaled_by_mean"),
    "lognormal": ds.WorkerLatencyModel(1.0, ds.LogNormalNoise(-2.0, 0.5)),
    "bounded": ds.WorkerLatencyModel(1.0, ds.simulated_delay_noise(),
                                     "additive_scaled_by_mean"),
    # Two-point latencies: cumulative times tie exactly across workers.
    "bernoulli": ds.WorkerLatencyModel(0.25, ds.BernoulliNoise(0.3, 0.5)),
    "exponential": ds.WorkerLatencyModel(0.5, ds.ExponentialNoise(4.0)),
    "gamma": ds.WorkerLatencyModel(0.5, ds.GammaNoise(2.0, 8.0)),
    "empirical": ds.WorkerLatencyModel(0.6, ds.EmpiricalNoise((-0.1, 0.0, 0.05, 0.25))),
}
# Equal to _MODELS["empirical"] but another object: the engine joins the two
# into one run of workers, and fills it with one call.
_EMPIRICAL_TWIN = ds.WorkerLatencyModel(0.6, ds.EmpiricalNoise((-0.1, 0.0, 0.05, 0.25)))
_NOISES = [m.noise for m in _MODELS.values()]


# ---------------------------------------------------------------------------
# The per-iteration oracle
# ---------------------------------------------------------------------------

def _oracle_generator(stream):
    return np.random.Generator(np.random.Philox(key=stream.seed | (stream.stream_id << 64)))


def _oracle_sample(model, gen, size):
    eps = model.noise.sample(gen, size)
    scale = model.base_mean if model.noise_mode == "additive_scaled_by_mean" else 1.0
    return np.maximum(model.base_mean + scale * eps, 1e-6 * model.base_mean)


def _oracle_times(config, i, root):
    """Iteration i: one generator, each worker's M draws in worker order."""
    gen = _oracle_generator(root.derive(i))
    return np.stack([_oracle_sample(model, gen, config.m_per_step)
                     for model in config.fleet.workers])


class _Row(NamedTuple):
    """The oracle's outcome of one iteration."""
    compute_times: np.ndarray
    stop_times: np.ndarray
    completed: np.ndarray
    step_base: float
    step_drop: float
    s_eff: float


def _oracle_evaluate(times, tau, t_comm, stop_at_boundary):
    n, m = times.shape
    cum = np.cumsum(times, axis=1)
    compute_times = cum[:, -1]
    step_base = float(compute_times.max() + t_comm)
    if tau is None:
        return compute_times, compute_times.copy(), np.full(n, m), step_base, step_base, 1.0
    completed = np.count_nonzero(cum < tau, axis=1)
    if stop_at_boundary:
        stop_times = np.where(completed > 0,
                              cum[np.arange(n), np.maximum(completed - 1, 0)], 0.0)
    else:
        stop_times = np.minimum(tau, compute_times)
    step_drop = float(stop_times.max() + t_comm)
    mean_completed = float(completed.mean())
    if step_drop <= 0.0 or mean_completed == 0.0:
        s_eff = 0.0
    else:
        s_eff = (step_base / step_drop) * (mean_completed / m)
    return compute_times, stop_times, completed, step_base, step_drop, s_eff


def _oracle_aggregate(records, n, m, tau, iterations):
    sum_base = sum_drop = sum_completed = sum_seff = 0.0
    for rec in records:
        sum_base += rec.step_base
        sum_drop += rec.step_drop
        sum_completed += float(rec.completed.mean())
        sum_seff += rec.s_eff
    mean_base, mean_drop = sum_base / iterations, sum_drop / iterations
    mean_completed = sum_completed / iterations
    # Nothing completed: steps may take no time at all, and no work was done.
    throughput = n * mean_completed / mean_drop if mean_completed else 0.0
    return RunStats(n, m, iterations, tau, mean_base, mean_drop, mean_completed,
                    1.0 - mean_completed / m, sum_seff / iterations,
                    throughput, n * m / mean_base)


def _oracle_replay(trace, comm, tau, stop_at_boundary):
    records = [_Row(*_oracle_evaluate(trace[i], tau, float(comm[i]), stop_at_boundary))
               for i in range(trace.shape[0])]
    _, n, m = trace.shape
    return _oracle_aggregate(records, n, m, tau, trace.shape[0]), records


def _oracle_trace(config, root):
    return np.stack([_oracle_times(config, i, root) for i in range(config.iterations)])


def _oracle_run(config, root):
    trace = _oracle_trace(config, root)
    comm = np.full(config.iterations, config.t_comm)
    stats, records = _oracle_replay(trace, comm, config.tau,
                                    config.stop_at_accumulation_boundary)
    return stats, records, trace


# ---------------------------------------------------------------------------
# Bitwise comparison helpers
# ---------------------------------------------------------------------------

def _same_floats(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rows(block):
    """The oracle rows of an IterationBlock, row k being its iteration k."""
    return [_Row(block.compute_times[k], block.stop_times[k], block.completed[k],
                 block.step_base[k], block.step_drop[k], block.s_eff[k])
            for k in range(len(block.s_eff))]


def _assert_records_equal(got, want):
    """got: an IterationBlock; want: oracle rows, row k for its iteration k."""
    assert isinstance(got, IterationBlock)
    assert all(len(field) == len(want) for field in got)
    for field in ("step_base", "step_drop", "mean_completed", "s_eff"):
        assert getattr(got, field).dtype == float, field
    for g, w in zip(_rows(got), want):
        assert _same_floats(g.compute_times, w.compute_times)
        assert _same_floats(g.stop_times, w.stop_times)
        assert np.array_equal(g.completed, w.completed)
        assert g.completed.dtype == w.completed.dtype
        for field in ("step_base", "step_drop", "s_eff"):
            assert _same_floats(getattr(g, field), getattr(w, field)), field


def _assert_stats_equal(got, want):
    assert got == want
    for field in ("mean_step_base", "mean_step_drop", "mean_completed", "s_eff",
                  "throughput", "throughput_base", "drop_rate"):
        assert _same_floats(getattr(got, field), getattr(want, field)), field


# ---------------------------------------------------------------------------
# Engine == oracle
# ---------------------------------------------------------------------------

@st.composite
def _configs(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    names = sorted(_MODELS)
    if draw(st.booleans()):
        fleet = ds.FleetSpec.homogeneous(n, _MODELS[draw(st.sampled_from(names))])
    else:
        fleet = ds.FleetSpec(tuple(_MODELS[draw(st.sampled_from(names))]
                                   for _ in range(n)))
    iterations = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**64 - 1))
    t_comm = draw(st.sampled_from([0.0, 0.2]))
    boundary = draw(st.booleans())
    kind = draw(st.sampled_from(["none", "fixed", "on_cumulative"]))
    if kind == "fixed":
        tau = draw(st.floats(0.05, 6.0))
    elif kind == "on_cumulative":
        # tau exactly equal to a cumulative finish time of the run: the
        # strict < must drop that micro-batch.
        cum = np.cumsum(_oracle_trace(ds.SimConfig(fleet, m, iterations=iterations),
                                         ds.RngStream(seed, 0)), axis=2)
        tau = float(cum.flat[draw(st.integers(0, cum.size - 1))])
    else:
        tau = None
    block_iterations = draw(st.integers(1, 4))
    return ds.SimConfig(fleet, m, t_comm, tau, iterations, seed, boundary), block_iterations


@given(_configs())
@settings(max_examples=80, derandomize=True, deadline=None)
# Two normal specs in one mixed fleet, each worker's draws mapped with its own.
@example((ds.SimConfig(ds.FleetSpec(tuple(_MODELS[k] for k in (
    "normal", "normal_shifted", "lognormal", "normal_shifted", "normal"))),
    4, 0.2, 4.1, 9, 17), 2))
# Families that consume a varying number of draws next to each other in one
# iteration's stream. At M = 3 the first empirical worker's 32-bit draws
# leave a buffered half, which the oracle's second worker takes first; the
# engine fills both workers with one call.
@example((ds.SimConfig(ds.FleetSpec((_MODELS["gamma"], _MODELS["empirical"], _EMPIRICAL_TWIN,
                                     _MODELS["normal_shifted"])),
                       3, 0.1, 2.5, 7, 23), 3))
# Block shapes on both sides of simulate._cumulate's rule: with 64 workers
# and blocks of 12 iterations a step covers 768 cells, summed by the step
# loop (M = 12, 2 and 1, where it adds nothing); at M = 1000 a step of two
# iterations of 8 workers is 16 cells, summed by np.add.accumulate.
@example((ds.SimConfig(ds.FleetSpec.homogeneous(64, _MODELS["lognormal"]),
                       12, 0.2, 13.6, 12, 5), 12))
@example((ds.SimConfig(ds.FleetSpec.homogeneous(64, _MODELS["lognormal"]),
                       12, 0.2, 13.6, 12, 5, True), 12))
@example((ds.SimConfig(ds.FleetSpec.homogeneous(64, _MODELS["lognormal"]),
                       2, 0.0, 2.3, 12, 6), 12))
@example((ds.SimConfig(ds.FleetSpec.homogeneous(64, _MODELS["lognormal"]),
                       2, 0.0, 2.3, 12, 6, True), 12))
@example((ds.SimConfig(ds.FleetSpec.homogeneous(64, _MODELS["lognormal"]),
                       1, 0.1, 1.15, 12, 7), 12))
@example((ds.SimConfig(ds.FleetSpec.homogeneous(64, _MODELS["lognormal"]),
                       1, 0.1, 1.15, 12, 7, True), 12))
@example((ds.SimConfig(ds.FleetSpec.homogeneous(8, _MODELS["lognormal"]),
                       1000, 0.5, 1134.0, 5, 8), 2))
@example((ds.SimConfig(ds.FleetSpec.homogeneous(8, _MODELS["lognormal"]),
                       1000, 0.5, 1134.0, 5, 8, True), 2))
def test_engine_matches_per_iteration_oracle(case):
    config, block_iterations = case
    want_stats, want_records, want_trace = _oracle_run(config, ds.RngStream(config.seed, 0))
    n, m = config.fleet.n, config.m_per_step
    # Blocks of a few iterations, so that most runs cross block boundaries.
    with mock.patch.object(simulate, "_BLOCK_SAMPLES", n * m * block_iterations):
        sim = ds.run_detailed(config)
        stats = ds.run(config)
        replay = ds.run_from_trace(want_trace, np.full(config.iterations, config.t_comm),
                                   config.tau, config.stop_at_accumulation_boundary)
    assert _same_floats(sim.trace, want_trace)
    _assert_records_equal(sim.records, want_records)
    _assert_stats_equal(sim.stats, want_stats)
    _assert_stats_equal(stats, want_stats)
    _assert_records_equal(replay.records, want_records)
    _assert_stats_equal(replay.stats, want_stats)
    last = config.iterations - 1
    _assert_records_equal(ds.simulate_iteration(config, last), [want_records[last]])


@given(_configs(), st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_replay_with_per_iteration_comm_matches_oracle(case, comm):
    config, block_iterations = case
    trace = _oracle_trace(config, ds.RngStream(config.seed, 0))
    comm = np.array(comm[:config.iterations])
    replay = (trace, comm, config.tau, config.stop_at_accumulation_boundary)
    with mock.patch.object(simulate, "_BLOCK_SAMPLES",
                           config.fleet.n * config.m_per_step * block_iterations):
        want_stats, want_records = _oracle_replay(*replay)
        got = ds.run_from_trace(*replay)
    _assert_records_equal(got.records, want_records)
    _assert_stats_equal(got.stats, want_stats)


@pytest.mark.parametrize("shape", [(1, 639, 12), (1, 640, 12), (10, 64, 12), (21, 256, 12),
                                   (640, 1, 2), (1, 600, 2), (3, 200, 1), (5, 8, 1000),
                                   (81, 8, 1000), (1, 1, 1)])
def test_cumulate_is_accumulate_bit_for_bit(shape):
    # Steps of 639 cells and fewer are summed by np.add.accumulate, steps of
    # 640 and more by _cumulate's strided adds.
    x = np.random.default_rng(sum(shape)).lognormal(-2.0, 0.5, shape)
    want = np.add.accumulate(x, axis=2)
    assert simulate._cumulate(x) is x
    assert _same_floats(x, want)


def test_replay_leaves_the_traces_it_returns_as_latencies():
    # One block of 30 iterations of 64 workers: 1920 cells a step, summed in
    # place by the step loop, on the engine's copy.
    config = ds.SimConfig(ds.FleetSpec.homogeneous(64, _MODELS["lognormal"]), 12, 0.2,
                          13.6, 30, 5, True)
    want_trace = _oracle_trace(config, ds.RngStream(config.seed, 0))
    sim = ds.run_detailed(config)
    assert _same_floats(sim.trace, want_trace)
    trace = want_trace.copy()
    replay = ds.run_from_trace(trace, 0.2, 13.6, True)
    assert _same_floats(trace, want_trace)
    assert _same_floats(replay.trace, want_trace)
    _assert_records_equal(replay.records, _rows(sim.records))
    _assert_stats_equal(replay.stats, sim.stats)


def test_idle_steps_score_positive_zero():
    # Boundary mode with T_c = 0: nothing completes, so every step takes no
    # time. Such a step scores +0.0, as in the oracle, and the run's
    # throughput is 0.0.
    trace = np.ones((3, 2, 2))
    got = ds.run_from_trace(trace, 0.0, 0.5, True)
    want_stats, want_records = _oracle_replay(trace, np.zeros(3), 0.5, True)
    _assert_records_equal(got.records, want_records)
    _assert_stats_equal(got.stats, want_stats)
    assert got.records.step_drop.tolist() == [0.0] * 3
    assert _same_floats(got.records.s_eff, np.zeros(3))
    assert _same_floats(got.stats.throughput, 0.0)


@pytest.mark.parametrize("boundary", [False, True], ids=["at-tau", "at-boundary"])
@pytest.mark.parametrize("workers", [("lognormal",) * 5, ("normal", "bernoulli", "none",
                                                         "bounded", "normal")],
                         ids=["homogeneous", "mixed"])
def test_no_threshold_is_an_infinite_one_bit_for_bit(workers, boundary):
    # tau=None takes _evaluate's short path; tau=inf takes the general one,
    # where every micro-batch counts and each worker stops at its T_n.
    fleet = ds.FleetSpec(tuple(_MODELS[name] for name in workers))
    base, inf = (ds.run_detailed(ds.SimConfig(fleet, 4, 0.3, tau, 9, 21, boundary))
                 for tau in (None, math.inf))
    want, got = dataclasses.asdict(base.stats), dataclasses.asdict(inf.stats)
    assert want.pop("tau") is None and got.pop("tau") == math.inf
    for field in want:
        assert type(want[field]) is type(got[field]), field
        assert _same_floats(want[field], got[field]), field
    for field, a, b in zip(IterationBlock._fields, base.records, inf.records):
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert _same_floats(base.trace, inf.trace)


@pytest.mark.parametrize("trace, comm, tau", [
    (np.ones((3, 2, 2)), -3.0, 0.5),
    (np.ones((3, 2, 2)), [0.0, math.nan, 0.0], 0.5),
    (np.ones((3, 2, 2)), 0.0, -1.0),
    (np.ones((3, 2, 2)), 0.0, 0.0),
    (np.ones((3, 2, 2)), 0.0, math.nan),
    (np.ones((3, 2, 2)), 0.0, "abc"),
    (np.ones((3, 2, 2)), 0.0, True),
    (np.zeros((3, 2, 2)), 0.0, 0.5),
    (np.full((3, 2, 2), -1.0), 0.0, None),
    (np.full((3, 2, 2), math.nan), 0.0, None),
    (np.ones((0, 2, 2)), 0.0, 0.5),
    (np.ones((3, 2)), 0.0, 0.5),
    (np.ones((3, 2, 2)), [0.0, 0.0], 0.5),
], ids=["negative-comm", "nan-comm", "negative-tau", "zero-tau", "nan-tau",
        "string-tau", "bool-tau", "zero-latency", "negative-latency", "nan-latency",
        "no-iterations", "2d-trace", "short-comm"])
def test_replay_rejects_inputs_outside_the_contract(trace, comm, tau):
    with pytest.raises(ValueError):
        ds.run_from_trace(trace, comm, tau)


def test_a_run_without_a_stream_draws_stream_0_of_its_seed(tmp_path):
    config = ds.SimConfig(ds.FleetSpec.homogeneous(3, _MODELS["lognormal"]), 4, 0.1, 0.9, 5, 41)
    root = ds.RngStream(41, 0)
    assert ds.run(config) == ds.run(config, root)
    sim, want = ds.run_detailed(config), ds.run_detailed(config, root)
    assert _same_floats(sim.trace, want.trace)
    _assert_records_equal(sim.records, _rows(want.records))
    _assert_records_equal(ds.simulate_iteration(config, 3),
                          _rows(ds.simulate_iteration(config, 3, root)))
    _assert_records_equal(simulate.simulate_block(config, None, [4, 0]),
                          _rows(simulate.simulate_block(config, root, [4, 0])))
    with open(tmp_path / "got.csv", "w", newline="") as fh:
        simulate.run_records_csv(config, fh)
    simulate.write_records_csv(tmp_path / "want.csv", want.records)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("comm", [[0.1, 0.2, 0.3], np.zeros((5, 1))], ids=["3-of-5", "5x1"])
def test_replay_names_the_comm_rule(comm):
    # Only one number is one comm time for all iterations; any other shape
    # must hold one per iteration, and TraceTensor says so.
    with pytest.raises(ValueError, match="^comm_times must have one entry per iteration$"):
        ds.run_from_trace(np.ones((5, 2, 3)), comm, 0.5)


def test_api_hetero_shaped_fleet_matches_oracle():
    # 63 fast normal workers, one slow normal worker and one lognormal worker.
    fast = ds.WorkerLatencyModel(1.0, ds.NormalNoise(0.0, 0.08))
    slow = ds.WorkerLatencyModel(2.0, ds.NormalNoise(0.0, 0.08))
    fleet = ds.FleetSpec((fast,) * 40 + (slow,) + (fast,) * 23 + (_MODELS["lognormal"],))
    config = ds.SimConfig(fleet, 12, 0.2, 13.0, 7, 11)
    want_stats, want_records, want_trace = _oracle_run(config, ds.RngStream(config.seed, 0))
    with mock.patch.object(simulate, "_BLOCK_SAMPLES", 65 * 12 * 3):
        sim = ds.run_detailed(config)
        stats = ds.run(config)
    assert _same_floats(sim.trace, want_trace)
    _assert_records_equal(sim.records, want_records)
    _assert_stats_equal(sim.stats, want_stats)
    _assert_stats_equal(stats, want_stats)


def test_block_size_does_not_change_results():
    config = ds.SimConfig(ds.FleetSpec.homogeneous(16, _MODELS["lognormal"]), 12, 0.5,
                          12.5, 300, 3)
    want = ds.run_detailed(config)
    for samples in (1, 16 * 12 * 7, 1 << 20):
        with mock.patch.object(simulate, "_BLOCK_SAMPLES", samples):
            got = ds.run_detailed(config)
        assert _same_floats(got.trace, want.trace)
        _assert_records_equal(got.records, _rows(want.records))
        _assert_stats_equal(got.stats, want.stats)


def test_simulate_block_rows_are_single_iterations():
    fleet = ds.FleetSpec((_MODELS["normal"], _MODELS["bernoulli"], _MODELS["normal"]))
    for config in (ds.SimConfig(fleet, 4, 0.1, 3.1, 1, 2),
                   ds.SimConfig(ds.FleetSpec.homogeneous(3, _MODELS["gamma"]), 4, 0.1,
                                3.1, 1, 2, True)):
        rng = ds.RngStream(9, 4)
        block = simulate.simulate_block(config, rng, np.arange(7, 12))
        want = [ds.simulate_iteration(config, i, rng) for i in range(7, 12)]
        _assert_records_equal(block, [row for one in want for row in _rows(one)])


def _stacked_oracle_batches(sim, per_micro, step, n_runs, rng):
    """Each run's batch at one timing-driven step: iteration step of rng for
    n_runs copies of sim.fleet stacked in run order, run r's workers being
    rows r N .. (r + 1) N - 1."""
    stacked = ds.SimConfig(ds.FleetSpec(sim.fleet.workers * n_runs), sim.m_per_step,
                           sim.t_comm, sim.tau, 1, sim.seed)
    comp = _oracle_evaluate(_oracle_times(stacked, step, rng), sim.tau, sim.t_comm, False)[2]
    return [per_micro * int(run.sum()) for run in comp.reshape(n_runs, sim.fleet.n)]


# The oracle was rewritten when a timing-driven step s came to be iteration s
# of the schedule stream for the runs' fleets stacked in run order, in place
# of iteration 0 of one stream rng.derive(s, r) per run.
def test_timing_schedule_matches_per_run_oracle():
    fleet = ds.FleetSpec((_MODELS["lognormal"],) * 3 + (_MODELS["bounded"],))
    # The last worker equals the first, so the stacked fleet's runs of equal
    # workers cross each boundary between two runs.
    wrapped = ds.FleetSpec((_MODELS["lognormal"], _MODELS["bounded"], _MODELS["normal"],
                            _MODELS["lognormal"]))
    for fleet in (fleet, ds.FleetSpec.homogeneous(4, _MODELS["lognormal"]), wrapped):
        sim = ds.SimConfig(fleet, 3, 0.5, 3.3, 1, 5)
        schedule = ds.BatchSchedule(48, kind="timing_driven", sim=sim)
        rng = ds.RngStream(41, 4)
        for step in (0, 3, 11):
            got = schedule.draw(step, 9, None, rng)
            assert got.dtype == np.int64
            assert got.tolist() == _stacked_oracle_batches(sim, 4, step, 9, rng)


@pytest.mark.parametrize("workers", [("lognormal",) * 3, ("normal", "lognormal", "bounded")])
def test_a_timing_run_does_not_depend_on_later_runs(workers):
    fleet = ds.FleetSpec(tuple(_MODELS[w] for w in workers))
    schedule = ds.BatchSchedule(36, kind="timing_driven",
                                sim=ds.SimConfig(fleet, 3, 0.2, 2.25, 1, 5))
    rng = ds.RngStream(17, 4)
    for n_runs, more in ((1, 1), (7, 13), (20, 3)):
        few = schedule.draw(5, n_runs, None, rng, 6)
        assert np.array_equal(few, schedule.draw(5, n_runs + more, None, rng, 6)[:, :n_runs])


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

_U64 = st.integers(0, 2**64 - 1)
_INDEX = st.integers(-(2**63), 2**63 - 1)


@given(_U64, _U64, st.lists(st.lists(_INDEX, min_size=1, max_size=5), min_size=0,
                            max_size=3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_vectorised_derive_equals_derive(seed, sid, index_lists):
    root = ds.RngStream(seed, sid)
    # Index k runs along its own axis, so the result is their outer product.
    arrays = [np.array(ix, dtype=np.int64).reshape((-1,) + (1,) * (len(index_lists) - k - 1))
              for k, ix in enumerate(index_lists)]
    got = root.derive_ids(*arrays)
    assert got.dtype == np.uint64
    assert got.shape == tuple(len(ix) for ix in index_lists)
    for pos in np.ndindex(got.shape):
        args = [index_lists[k][p] for k, p in enumerate(pos)]
        assert int(got[pos]) == root.derive(*args).stream_id


def test_derive_ids_accepts_scalars_and_uint64():
    root = ds.RngStream(3, 5)
    assert int(root.derive_ids(7, 0)) == root.derive(7, 0).stream_id
    assert int(root.derive_ids(np.uint64(2**64 - 1))) == root.derive(-1).stream_id
    assert int(root.derive_ids()) == root.stream_id


@given(_U64, st.lists(st.tuples(_U64, st.integers(0, len(_NOISES) - 1),
                                st.integers(1, 6)), min_size=1, max_size=6))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_repositioned_generator_draws_like_a_fresh_one(seed, visits):
    # Successive streams of one StreamGenerator, each family drawing a
    # different amount (integers leaves a cached 32-bit half behind).
    gens = StreamGenerator(seed)
    for sid, family, size in visits:
        noise = _NOISES[family]
        got = noise.sample(gens.at(sid), size)
        want = noise.sample(ds.RngStream(seed, sid).generator(), size)
        assert _same_floats(got, want)
        fresh = _oracle_generator(ds.RngStream(seed, sid))
        assert _same_floats(noise.sample(fresh, size), want)


# One spec of every noise kind, built from these keyword parameters.
_KIND_PARAMS = {
    "none": {},
    "normal": {"loc": 0.3, "std": 1.7},
    "lognormal": {"log_mean": -1.0, "log_std": 0.6},
    "bounded_lognormal": {"log_mean": 4.0, "log_std": 1.0, "scale_divisor": 180.0,
                          "bound": 0.9},
    "simulated_delay": {},
    "bernoulli": {"p": 0.4, "scale": 0.5},
    "exponential": {"rate": 3.0},
    "gamma": {"shape": 0.7, "rate": 5.0},
    "empirical": {"samples": (-0.25, 0.0, 0.125, 2.5)},
}


@pytest.mark.parametrize("kind", sorted(NOISE_KINDS))
@pytest.mark.parametrize("shape", [(3, 5), (5,)])
def test_fill_then_finish_draws_what_sample_draws(kind, shape):
    assert sorted(_KIND_PARAMS) == sorted(NOISE_KINDS)
    noise = NOISE_KINDS[kind](**_KIND_PARAMS[kind])
    want = np.stack([noise.sample(ds.RngStream(6, sid).generator(), shape)
                     for sid in (11, 12)])
    # Two streams filled one after another from one repositioned generator;
    # a (5,) row is the middle worker of a (2, 3, 5) block, a one-worker run
    # of a mixed fleet, so finish maps a strided column.
    gens = StreamGenerator(6)
    block = np.full((2, 3, 5), np.nan)
    eps = block if len(shape) == 2 else block[:, 1]
    for row, sid in zip(eps, (11, 12)):
        noise.fill(gens.at(sid), row)
    noise.finish(eps)
    assert _same_floats(eps, want)
    if len(shape) == 1:
        assert np.isnan(block[:, [0, 2]]).all()


def test_empirical_noise_array_is_not_part_of_its_value():
    a = ds.EmpiricalNoise((0.1, -0.2, 0.3))
    b = ds.EmpiricalNoise((0.1, -0.2, 0.3))
    assert a == b and hash(a) == hash(b)
    assert "_values" not in repr(a)
    with pytest.raises(ValueError):
        a._values[0] = 5.0  # read-only
    gen = ds.RngStream(4).generator()
    idx = ds.RngStream(4).generator().integers(0, 3, 50)
    assert _same_floats(a.sample(gen, 50), np.asarray(a.samples)[idx])


# ---------------------------------------------------------------------------
# Records CSV
# ---------------------------------------------------------------------------

def _oracle_records_csv(records, comment=None):
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(["iteration", "worker", "T_n", "stop_time", "completed"])
    for i, rec in enumerate(_rows(records)):
        for w in range(rec.compute_times.shape[0]):
            writer.writerow([i, w, repr(float(rec.compute_times[w])),
                             repr(float(rec.stop_times[w])), int(rec.completed[w])])
    return buf.getvalue()


def _block(compute_times, stop_times, completed):
    """An IterationBlock of the records CSV columns; its per-step fields are 0."""
    return IterationBlock(np.asarray(compute_times, dtype=float),
                          np.asarray(stop_times, dtype=float), np.asarray(completed),
                          *[np.zeros(len(compute_times))] * 4)


def test_records_csv_matches_csv_writer(tmp_path):
    config = ds.SimConfig(ds.FleetSpec.homogeneous(7, _MODELS["bernoulli"]), 3, 0.1,
                          1.0, 75, 8, True)
    records = ds.run_detailed(config).records
    odd = _block([[0.0, -0.0, 1.5, math.nan, 2.0, 1e-300]] * 40,
                 [[-0.0, 0.0, 1.5, math.nan, 1e16, 1e-300]] * 40, [[0, 1, 2, 3, 4, 5]] * 40)
    empty = _block(np.empty((0, 7)), np.empty((0, 7)), np.empty((0, 7), dtype=np.int64))
    for recs, comment in ((records, None), (odd, "config_hash=x"), (empty, None)):
        path = tmp_path / "records.csv"
        simulate.write_records_csv(path, recs, comment)
        assert path.read_bytes() == _oracle_records_csv(recs, comment).encode()
