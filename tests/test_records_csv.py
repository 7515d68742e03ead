"""The records CSV writer against the per-row f-string formatter it replaced,
kept below as the oracle, and the streamed `simulate` output against the
records of `run_detailed`. A hypothesis fuzz draws blocks with signed zeros,
infinities, NaNs, stops equal to T_n and repeated stops."""

import dataclasses
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import dropsim as ds
from dropsim import cli, csvio, simulate
from dropsim.simulate import (IterationBlock, RECORDS_HEADER, run_records_csv,
                              write_records_csv)
from dropsim.threshold import format_curve_csv, write_curve_csv

# ---------------------------------------------------------------------------
# Oracle: the writer that formatted one row at a time.
# ---------------------------------------------------------------------------


def _oracle_iter_records_csv(records, comment=None, first=0):
    """Rows of the IterationBlock records, its row k being iteration first + k."""
    if comment:
        yield f"# {comment}\n"
    yield ",".join(RECORDS_HEADER) + "\r\n"
    rows = zip(records.compute_times.tolist(), records.stop_times.tolist(),
               records.completed.astype(np.int64).tolist())
    for i, cols in enumerate(rows, first):
        yield "".join([f"{i},{w},{(tr := repr(t))},{tr if s == t and t else repr(s)},{c}\r\n"
                       for w, (t, s, c) in enumerate(zip(*cols))])


def _oracle_text(records, comment=None, first=0) -> str:
    return "".join(_oracle_iter_records_csv(records, comment, first))


def _written(path, records, comment=None) -> str:
    write_records_csv(path, records, comment)
    with open(path, newline="") as fh:
        return fh.read()


def _records(compute, stop, completed):
    """An IterationBlock of the records CSV columns; its per-step fields are 0."""
    return IterationBlock(compute, stop, completed, *[np.zeros(len(compute))] * 4)


# ---------------------------------------------------------------------------
# Random blocks
# ---------------------------------------------------------------------------

_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 5e-324, 0.1, 1.0]
_times = st.one_of(st.sampled_from(_SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def blocks(draw, min_b=1, max_b=6, max_n=6):
    """(B, N) compute, stop and completed arrays; completed runs from 0 to M."""
    b, n = draw(st.integers(min_b, max_b)), draw(st.integers(1, max_n))
    m = draw(st.integers(1, 5))
    compute = np.array(draw(st.lists(_times, min_size=b * n, max_size=b * n))).reshape(b, n)
    # A few stop values that many workers share, as tau is in exact mode.
    pool = draw(st.lists(_times, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) + 1), min_size=b * n, max_size=b * n))
    fresh = draw(st.lists(_times, min_size=b * n, max_size=b * n))
    stop = np.array([t if p == 0 else f if p == 1 else pool[p - 2]
                     for t, f, p in zip(compute.ravel().tolist(), fresh, picks)]).reshape(b, n)
    completed = np.array(draw(st.lists(st.integers(0, m), min_size=b * n,
                                       max_size=b * n))).reshape(b, n)
    return compute, stop, completed


@given(blocks(), st.integers(0, 10**6))
@settings(max_examples=400, derandomize=True, deadline=None)
# The integer cells are formatted once per distinct value: a 1x1 block past
# iteration 0, and blocks whose largest completed count is below M.
@example((np.array([[0.5]]), np.array([[0.25]]), np.array([[0]])), 7)
@example((np.full((2, 3), 1.5), np.full((2, 3), 1.0), np.array([[0, 2, 1], [2, 0, 0]])), 99)
def test_block_text_matches_row_formatter(block, first):
    compute, stop, completed = block
    text = simulate._records_text(first, compute, stop, completed)
    want = _oracle_text(_records(compute, stop, completed), first=first)
    assert ",".join(RECORDS_HEADER) + "\r\n" + text == want


@given(blocks(min_b=2, max_b=12, max_n=3), st.integers(1, 7),
       st.sampled_from([None, "", "config_hash=abc version=0.1.0"]))
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_records_csv_matches_row_formatter(tmp_path, block, block_rows, comment):
    """Records written in blocks of max(1, block_rows // N) iterations, the
    trace writer's row budget scaled down, so most runs end mid-block."""
    records = _records(*block)
    step = max(1, block_rows // records.compute_times.shape[1])
    with mock.patch.object(csvio, "_WRITE_BLOCK_ROWS", block_rows), \
            mock.patch.object(simulate, "_records_text", wraps=simulate._records_text) as text:
        assert _written(tmp_path / "r.csv", records, comment) == _oracle_text(records, comment)
    assert text.call_count == -(-len(records.s_eff) // step)


def test_write_records_csv_matches_row_formatter_on_a_run(tmp_path):
    model = ds.WorkerLatencyModel(1.0, ds.LogNormalNoise(-1.5, 0.8))
    sim = ds.run_detailed(ds.SimConfig(ds.FleetSpec.homogeneous(5, model), 4, 0.2, 4.5, 75, 3))
    assert _written(tmp_path / "r.csv", sim.records, "stamp") == \
        _oracle_text(sim.records, "stamp")


def test_empty_records_write_the_header_only(tmp_path):
    records = _records(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    assert _written(tmp_path / "r.csv", records, "c") == _oracle_text(records, "c")


# ---------------------------------------------------------------------------
# The streamed run against run_detailed's records
# ---------------------------------------------------------------------------


def _mixed_fleet():
    fast = ds.WorkerLatencyModel(0.5, ds.NormalNoise(0.0, 0.05))
    slow = ds.WorkerLatencyModel(1.0, ds.simulated_delay_noise(), "additive_scaled_by_mean")
    return ds.FleetSpec((fast, slow, fast, slow))


@pytest.mark.parametrize("tau, boundary", [(None, False), (1.9, False), (1.9, True)])
def test_run_records_csv_equals_run_detailed_records(tmp_path, tau, boundary):
    # 4 workers x 3 micro-batches: several engine blocks of iterations.
    config = ds.SimConfig(_mixed_fleet(), 3, 0.1, tau, 12000, 29, boundary)
    fh = io.StringIO(newline="")
    stats = run_records_csv(config, fh, "stamp")
    sim = ds.run_detailed(config)
    assert stats == sim.stats
    assert fh.getvalue() == _written(tmp_path / "r.csv", sim.records, "stamp")


_FLEET = {"workers": 64, "base_mean": 1.0,
          "noise": {"kind": "lognormal", "log_mean": -1.5, "log_std": 0.9}}


@pytest.mark.parametrize("extra", [
    {"tau": "auto", "warmup_iterations": 40},
    {"tau": None},
    {"tau": 13.0, "stop_at_accumulation_boundary": True},
], ids=["auto", "null", "boundary"])
def test_cli_records_equal_run_detailed_records(tmp_path, capsys, extra):
    # 64 workers x 12 micro-batches: 200 iterations span three engine blocks.
    doc = {"fleet": _FLEET, "m_per_step": 12, "t_comm": 0.3, "iterations": 200,
           "seed": 8, **extra}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "o")]) == 0

    noise = ds.LogNormalNoise(-1.5, 0.9)
    config = ds.SimConfig(ds.FleetSpec.homogeneous(64, ds.WorkerLatencyModel(1.0, noise)),
                          12, 0.3, None if extra["tau"] == "auto" else extra["tau"], 200, 8,
                          extra.get("stop_at_accumulation_boundary", False))
    if extra["tau"] == "auto":
        config = dataclasses.replace(config, tau=ds.simulate.auto_tau(config, 40))
    sim = ds.run_detailed(config)
    write_records_csv(tmp_path / "want.csv", sim.records, cli._stamp(cli._config_hash(doc)))
    assert (tmp_path / "o" / "records.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["s_eff"] == sim.stats.s_eff
    assert summary["mean_step_drop"] == sim.stats.mean_step_drop


def _failing_after_one_block(monkeypatch):
    """Make the records formatter raise on the second engine block."""
    real, calls = simulate._records_text, []

    def text(*args):
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("run failed")
        return real(*args)
    monkeypatch.setattr(simulate, "_records_text", text)


def _cli_doc(tmp_path) -> str:
    doc = {"fleet": _FLEET, "m_per_step": 12, "t_comm": 0.3, "tau": 13.0,
           "iterations": 200, "seed": 8}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    return str(tmp_path / "c.json")


def test_failed_run_leaves_no_output_directory(tmp_path, monkeypatch, capsys):
    _failing_after_one_block(monkeypatch)
    with pytest.raises(RuntimeError, match="run failed"):
        cli.main(["simulate", "--config", _cli_doc(tmp_path),
                  "--out", str(tmp_path / "a" / "b")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_failed_run_leaves_an_existing_output_directory_as_it_was(tmp_path, monkeypatch,
                                                                 capsys):
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "keep.txt").write_text("x")
    _failing_after_one_block(monkeypatch)
    with pytest.raises(RuntimeError, match="run failed"):
        cli.main(["simulate", "--config", _cli_doc(tmp_path), "--out", str(tmp_path / "o")])
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["keep.txt"]


# ---------------------------------------------------------------------------
# Comments must stay on their line
# ---------------------------------------------------------------------------

_BROKEN = ["a\nb", "a\rb", "a\r\nb", "\n", "trailing\n"]


def _search_result():
    trace = ds.TraceTensor(np.full((3, 2, 2), 0.5), np.zeros(3))
    return ds.select_threshold(trace)


@pytest.mark.parametrize("comment", _BROKEN)
@pytest.mark.parametrize("write", ["trace", "comm", "records", "run_records", "curve"])
def test_line_break_in_comment_is_rejected(tmp_path, comment, write):
    path = tmp_path / "out.csv"
    call = {
        "trace": lambda: ds.write_trace_csv(path, np.full((1, 1, 1), 0.5), comment),
        "comm": lambda: ds.write_comm_csv(path, np.zeros(1), comment),
        "records": lambda: write_records_csv(
            path, ds.run_detailed(ds.SimConfig(_mixed_fleet(), 2, iterations=2)).records,
            comment),
        "run_records": lambda: run_records_csv(
            ds.SimConfig(_mixed_fleet(), 2, iterations=2), sink, comment),
        "curve": lambda: write_curve_csv(path, _search_result(), comment),
    }[write]
    sink = io.StringIO()
    with pytest.raises(ValueError, match="comment must be one line"):
        call()
    assert not path.exists()
    assert sink.getvalue() == ""


@pytest.mark.parametrize("comment", _BROKEN)
def test_line_break_in_comment_is_rejected_before_curve_text(comment):
    with pytest.raises(ValueError, match="comment must be one line"):
        format_curve_csv(_search_result(), comment)


def test_one_line_comments_still_read_back(tmp_path):
    comment = "trace=a,b \"q\" \t version=0.1.0"
    ds.write_trace_csv(tmp_path / "t.csv", np.full((2, 1, 2), 0.5), comment)
    ds.write_comm_csv(tmp_path / "c.csv", np.zeros(2), comment)
    assert ds.read_trace_csv(tmp_path / "t.csv").shape == (2, 1, 2)
    assert ds.read_comm_csv(tmp_path / "c.csv").shape == (2,)
    text = format_curve_csv(_search_result(), comment)
    assert text.splitlines()[:2] == [f"# {comment}", "tau,s_eff,drop_rate,step_speedup"]
