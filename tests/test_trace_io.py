"""Trace and comm CSV reading and writing against the line-by-line reader and
the csv.writer-based writer they replace, kept below as oracles. A hypothesis
fuzz builds files from random rows; named cases pin the inputs that once
broke a faster reader: file names numpy takes for archives, a quote in a
comment before the header, and a comment line as the last row."""

import csv
import itertools
import math
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropsim import csvio
from dropsim.csvio import (COMM_HEADER, TRACE_HEADER, read_comm_csv, read_trace_csv,
                           write_comm_csv, write_trace_csv)

# ---------------------------------------------------------------------------
# Oracles: the reader that fed numpy one filtered line at a time, and the
# writer that built one list per row for csv.writer.
# ---------------------------------------------------------------------------

_SKIP = "#\n"


def _oracle_data_lines(path) -> list:
    with open(path) as fh:
        return [(no, ln) for no, ln in enumerate(fh, 1) if ln[0] not in _SKIP][1:]


def _oracle_reject_first(path, bad, message) -> None:
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{path}:{_oracle_data_lines(path)[row][0]}: {message(row)}")


def _oracle_parse_rows(path, header, dtype):
    opts = dict(dtype=dtype, delimiter=",", comments=None, ndmin=1)
    with open(path) as fh:
        lines = (ln for ln in fh if ln[0] not in _SKIP)
        first = next(lines, None)
        if first is None or [h.strip() for h in next(csv.reader([first]))] != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        row = next(lines, None)
        if row is None:
            raise ValueError(f"{path}: no data rows")
        try:
            return np.loadtxt(itertools.chain([row], lines), **opts)
        except ValueError:
            pass
    lines = _oracle_data_lines(path)
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.loadtxt([ln for _, ln in lines[lo:mid]], **opts)
            lo = mid
        except ValueError:
            hi = mid
    raise ValueError(f"{path}:{lines[lo][0]}: expected {','.join(header)} with "
                     f"integer ids, got {lines[lo][1].rstrip()!r}")


def _oracle_read_dense(path, header, valid, rule):
    rows = _oracle_parse_rows(path, header, np.dtype(
        [(h, np.int64) for h in header[:-1]] + [(header[-1], np.float64)]))
    value = rows[header[-1]]
    _oracle_reject_first(path, ~(valid(value) & (value < np.inf)),
                         lambda r: f"{rule}, got {value[r]}")
    ids = tuple(rows[h] for h in header[:-1])
    for col, name in zip(ids, header):
        seen = np.bincount(np.clip(col, 0, col.size), minlength=col.size)[:col.size]
        gap = int(np.argmin(seen)) if seen.min() == 0 else col.size
        _oracle_reject_first(path, (col < 0) | (col > gap),
                             lambda r: f"{name} ids must run 0..K-1 without gaps, got {col[r]}")
    shape = tuple(int(col.max()) + 1 for col in ids)
    cells = math.prod(shape)
    if cells > rows.size:
        raise ValueError(f"{path}: {rows.size} rows cannot fill all "
                         f"{'x'.join(map(str, shape))} ({', '.join(header[:-1])}) cells")
    flat = np.ravel_multi_index(ids, shape)
    if np.bincount(flat, minlength=cells).max() > 1:
        repeat = np.ones(flat.size, dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
        _oracle_reject_first(path, repeat, lambda r: "duplicate "
                             + ", ".join(f"{h}={c[r]}" for h, c in zip(header, ids)))
    out = np.empty(cells)
    out[flat] = value
    return out.reshape(shape)


def _oracle_write_dense(path, header, values, comment) -> None:
    ids = itertools.product(*map(range, values.shape))
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([*ix, repr(v)] for ix, v in zip(ids, values.ravel().tolist()))


READERS = {
    "trace": (TRACE_HEADER, read_trace_csv, lambda p: _oracle_read_dense(
        p, TRACE_HEADER, lambda v: v > 0.0, "latency must be finite and > 0")),
    "comm": (COMM_HEADER, read_comm_csv, lambda p: _oracle_read_dense(
        p, COMM_HEADER, lambda v: v >= 0.0, "T_c must be finite and >= 0")),
}


def _outcome(read, path):
    """("array", shape, bits) or ("error", message); any other exception escapes."""
    try:
        out = read(path)
    except ValueError as exc:
        return ("error", str(exc))
    return ("array", out.shape, out.view(np.uint64).tobytes())


def _assert_reads_like_oracle(kind, path):
    _, read, oracle = READERS[kind]
    assert _outcome(read, path) == _outcome(oracle, path)


# ---------------------------------------------------------------------------
# Reader fuzz
# ---------------------------------------------------------------------------

_NOISE_LINES = st.sampled_from(["", "#", "# note", '# "unbalanced', "#1,2,3,4",
                                " ", "\t"])
_BAD_FIELDS = st.sampled_from(["x", "", "1.0", "1.5", "-1", "7", "1e3", "+1", "0x1",
                               "inf", "-inf", "nan", "NaN", "0", "-0.0", "1e400",
                               "99999999999999999999", '"1"', "100000000", "4294967296"])
_MUTATIONS = st.sampled_from(["drop", "duplicate", "field", "pad", "short", "long",
                              "noise"])


# Each file draws its values from one of these: short reprs, reprs of any
# positive float (exponent notation included), fixed notation with 17-22
# fraction digits (often more than 18 significant digits), small integers,
# or all of them.
_REPRS = st.floats(min_value=1e-3, max_value=10.0).map(repr)
_VALUES = [_REPRS, _REPRS,
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
           st.builds("{}.{}".format, st.sampled_from([0, 0, 7, 99999999, 123456789]),
                     st.text("0123456789", min_size=17, max_size=22)),
           st.integers(0, 9).map(str)]
_VALUES.append(st.one_of(_VALUES))
# Each file ends its lines with one of these: LF, CRLF, both, or also a bare CR.
_LINE_ENDS = [["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r\n"], ["\n", "\r\n", "\r"]]


@st.composite
def csv_files(draw):
    """(kind, file name, text) of a trace or comm file built from random rows."""
    kind = draw(st.sampled_from(sorted(READERS)))
    header = READERS[kind][0]
    ndim = len(header) - 1
    shape = draw(st.tuples(*[st.integers(1, 3)] * ndim))
    values = draw(st.sampled_from(_VALUES))
    # Ids zero-padded to 9 or more digits are 10**8 and above in width.
    width = draw(st.sampled_from([0, 0, 0, 8, 9, 12]))
    rows = [[*(str(i).zfill(width) for i in ix), draw(values)]
            for ix in itertools.product(*map(range, shape))]
    rows = draw(st.permutations(rows))
    lines = [",".join(r) for r in rows]
    for op, at in draw(st.lists(st.tuples(_MUTATIONS, st.integers(0, 10**6)),
                                max_size=3)):
        if not lines and op != "noise":
            continue
        i = at % max(1, len(lines))
        fields = lines[i].split(",") if lines else []
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(at % (len(lines) + 1), lines[i])
        elif op == "field":
            fields[at % len(fields)] = draw(_BAD_FIELDS)
            lines[i] = ",".join(fields)
        elif op == "pad":
            lines[i] = ",".join(f" {f}\t" for f in fields)
        elif op == "short":
            lines[i] = ",".join(fields[:-1])
        elif op == "long":
            lines[i] = ",".join(fields + ["0"])
        else:
            lines.insert(at % (len(lines) + 1), draw(_NOISE_LINES))
    head = draw(st.sampled_from([",".join(header)] * 4 + [" , ".join(header)] * 3
                                + [",".join(header[:-1])]))
    prelude = draw(st.lists(st.sampled_from(["", "# note", '# "unbalanced']),
                            max_size=2))
    all_lines = prelude + [head] + lines
    ends = draw(st.lists(st.sampled_from(draw(st.sampled_from(_LINE_ENDS))),
                         min_size=len(all_lines), max_size=len(all_lines)))
    text = "".join(ln + end for ln, end in zip(all_lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final newline
    name = draw(st.sampled_from(["data.csv", "plain.csv.gz", "plain.csv.xz",
                                 "plain.csv.bz2"]))
    return kind, name, text


# Read sizes small enough to put line ends, comments and bad rows on block
# edges, next to blocks of the fast grammar.
_READ_SIZES = st.sampled_from([1, 7, 64, csvio._READ_BYTES])
# Parse pool sizes: the calling thread alone, and pools of two and three.
_POOL_SIZES = st.sampled_from([1, 2, 3])


@given(csv_files(), _READ_SIZES, _POOL_SIZES)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_reader_matches_line_by_line_oracle(case, read_bytes, threads):
    kind, name, text = case
    with mock.patch.object(csvio, "_READ_BYTES", read_bytes), \
            mock.patch.object(csvio, "_PARSE_THREADS", threads), \
            tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        with open(path, "w", newline="") as fh:
            fh.write(text)
        _assert_reads_like_oracle(kind, str(path))


@given(csv_files(), _READ_SIZES)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_data_line_matches_the_oracles_lines(case, read_bytes):
    # Every row's line and number, and None past the last, through CRLF,
    # bare CRs, comment and empty lines and a last line without a line end.
    _, name, text = case
    with mock.patch.object(csvio, "_READ_BYTES", read_bytes), \
            tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        with open(path, "w", newline="") as fh:
            fh.write(text)
        want = _oracle_data_lines(path) + [None]
        assert [csvio._data_line(path, row) for row in range(len(want))] == want


def _in_fast_grammar(value: str) -> bool:
    whole, dot, fraction = value.partition(".")
    return bool(dot and whole.isdigit() and fraction.isdigit() and len(whole) <= 8
                and len(fraction) <= 21 and len((whole + fraction).lstrip("0")) <= 18)


def _ids_in_fast_grammar(line: str) -> bool:
    return all(len(i) <= 8 for i in line.split(",")[:-1])


_NEAR_GRAMMAR = st.one_of(
    st.floats(min_value=1e-4, max_value=1e8, exclude_max=True).map(repr),
    st.builds("{}.{}".format, st.integers(0, 10**9),
              st.text("0123456789", min_size=1, max_size=23)),
    # A 22-digit fraction has 17 significant digits here, so only its width
    # keeps it out of the grammar.
    st.sampled_from(["0.0", "00000000.5", "0.000000000000000000001", "99999999.9999999999",
                     "0.0000012345678901234567",
                     "0.123456789012345678", "0.1234567890123456789", "1.", ".5", "1",
                     "0.5\r3", "2.\r5"]))


@st.composite
def grammar_files(draw):
    """(kind, text, in grammar, read size) of a well-formed file whose values
    are in or next to the grammar the fast stage reads, which reads it in
    blocks of the read size."""
    kind = draw(st.sampled_from(sorted(READERS)))
    header = READERS[kind][0]
    cells = list(itertools.product(*map(range, draw(
        st.tuples(*[st.integers(1, 4)] * (len(header) - 1))))))
    values = draw(st.lists(_NEAR_GRAMMAR, min_size=len(cells), max_size=len(cells)))
    # Ids zero-padded to 8 or 9 digits, and first ids from 10**8 - 2 or
    # 10**8 on, which break the id rules in a message that shows them.
    width = draw(st.sampled_from([0, 0, 8, 9]))
    shift = draw(st.sampled_from([0, 0, 0, 10**8 - 2, 10**8]))
    lines = [",".join(header)] + [
        ",".join([str(ix[0] + shift).zfill(width), *(str(i).zfill(width) for i in ix[1:]), v])
        for ix, v in zip(cells, values)]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(ln + end for ln, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return (kind, text, all(map(_in_fast_grammar, values))
            and all(map(_ids_in_fast_grammar, lines[1:])),
            draw(_READ_SIZES))


def _no_loadtxt(*args, **kwargs):
    raise AssertionError("numpy's reader called")


@given(grammar_files())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_rows_in_the_fast_grammar_skip_numpys_reader(case):
    kind, text, in_grammar, read_bytes = case
    _, read, oracle = READERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "data.csv")
        Path(path).write_bytes(text.encode())
        want = _outcome(oracle, path)
        with mock.patch.object(np, "loadtxt", _no_loadtxt if in_grammar else np.loadtxt), \
                mock.patch.object(csvio, "_READ_BYTES", read_bytes):
            assert _outcome(read, path) == want


def test_quotients_round_correctly_and_ties_to_even():
    # The fast rows hold no exact tie (one needs 16 integer digits), so the
    # rounding is checked on its own against Python's int division, which
    # rounds correctly. Odd integers in [2**53, 2**54) lie halfway between
    # two doubles.
    gen = np.random.default_rng(8)
    odd = gen.integers(2**53, 10**16, 2000) | 1
    # 18-digit decimals a tenth of a spacing apart around each power of two
    # 2**p, below which the spacing halves.
    near_twos = [((10**k * 2**p if p >= 0 else 10**k // 2**-p) + j, k)
                 for p in range(-13, 60) for k in [17 - math.floor(p * math.log10(2))]
                 for j in range(-40, 41)]
    digits = np.concatenate([gen.integers(2**53, 10**18, 20_000), odd, odd * 10, odd * 100,
                             [d for d, _ in near_twos], [2**53 + 1, 2**53 + 3, 10**18 - 1]])
    k = np.concatenate([gen.integers(0, 22, 20_000), np.zeros(2000, int), np.ones(2000, int),
                        np.full(2000, 2), [k for _, k in near_twos], [0, 0, 21]])
    got = csvio._quotients(digits, k)
    assert got.tolist() == [d / 10**e for d, e in zip(digits.tolist(), k.tolist())]


# ---------------------------------------------------------------------------
# Named reader cases
# ---------------------------------------------------------------------------

_TRACE_TEXT = ("iteration,worker,micro_batch,latency_seconds\n"
               "0,0,0,0.5\n0,0,1,0.25\n1,0,0,0.125\n1,0,1,2.0\n")
_TRACE_ARRAY = np.array([[[0.5, 0.25]], [[0.125, 2.0]]])


@pytest.mark.parametrize("name", ["plain.csv.gz", "plain.csv.bz2", "plain.csv.xz",
                                  "plain.csv.lzma"])
def test_plain_text_under_an_archive_name_reads(tmp_path, name):
    path = tmp_path / name
    path.write_text(_TRACE_TEXT)
    assert np.array_equal(read_trace_csv(path), _TRACE_ARRAY)
    _assert_reads_like_oracle("trace", str(path))


def _no_line_path(*args):
    raise AssertionError("line path taken")


def test_url_like_relative_path_is_read_as_a_file(tmp_path, monkeypatch):
    (tmp_path / "http:" / "localhost").mkdir(parents=True)
    (tmp_path / "http:" / "localhost" / "t.csv").write_text(_TRACE_TEXT)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(csvio, "_data_line", _no_line_path)
    assert np.array_equal(read_trace_csv("http://localhost/t.csv"), _TRACE_ARRAY)


def test_unbalanced_quote_in_comment_before_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text('# run "seven\n\n' + _TRACE_TEXT)
    assert np.array_equal(read_trace_csv(path), _TRACE_ARRAY)
    _assert_reads_like_oracle("trace", str(path))


def test_comment_as_last_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_TEXT + "# end of trace")
    assert np.array_equal(read_trace_csv(path), _TRACE_ARRAY)
    _assert_reads_like_oracle("trace", str(path))


def test_malformed_row_after_comment_names_its_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_TEXT + "# note\n2,0,0,fast\n")
    with pytest.raises(ValueError, match=f"^{path}:7: expected iteration,"):
        read_trace_csv(path)
    _assert_reads_like_oracle("trace", str(path))


def test_no_comment_after_the_header_skips_the_line_path(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    text = "# config_hash=abc\n\n" + _TRACE_TEXT.replace("\n", "\r\n")
    path.write_text(text.replace("0,0,1,", "\n0,0,1,"))
    monkeypatch.setattr(csvio, "_data_line", _no_line_path)
    assert np.array_equal(read_trace_csv(path), _TRACE_ARRAY)


def test_bare_cr_before_the_header_ends_a_line(tmp_path):
    # Text mode ends a line at a bare CR and binary readline does not, so
    # counting the header's line in bytes would skip the first data row.
    path = tmp_path / "trace.csv"
    path.write_bytes(b"# note\r" + _TRACE_TEXT.encode())
    assert np.array_equal(read_trace_csv(path), _TRACE_ARRAY)
    _assert_reads_like_oracle("trace", str(path))


@pytest.mark.parametrize("rows, want", [
    ("0,9007199254740993.0\n", [2.0**53]),  # 2**53 + 1, a tie: the even double
    ("0,0.0\n1,0.5\n", [0.0, 0.5]),
    ("0,0.25\n1,0.5", [0.25, 0.5]),  # no final newline
], ids=["exact-tie", "zero", "no-final-newline"])
def test_comm_values(tmp_path, rows, want):
    path = tmp_path / "comm.csv"
    path.write_text("iteration,T_c_seconds\n" + rows)
    assert read_comm_csv(path).tolist() == want
    _assert_reads_like_oracle("comm", str(path))


def test_written_crlf_trace_skips_numpys_reader(tmp_path, monkeypatch):
    values = 0.05 + np.random.default_rng(4).random((6, 5, 4))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, values, comment="config_hash=abc")
    assert b"\r\n" in path.read_bytes()
    _assert_reads_like_oracle("trace", str(path))
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    assert read_trace_csv(path).tobytes() == values.tobytes()


def _grammar_trace(iterations: int) -> tuple:
    """Text and tensor of a (iterations, 2, 2) trace in the fast grammar."""
    values = (1 + np.arange(iterations * 4).reshape(iterations, 2, 2)) / 8
    rows = [f"{i},{w},{m},{v!r}\n" for (i, w, m), v in zip(np.ndindex(values.shape),
                                                        values.ravel().tolist())]
    return ",".join(TRACE_HEADER) + "\n" + "".join(rows), values


@pytest.fixture
def small_blocks(monkeypatch):
    """Read files 64 bytes at a time: a few rows a block."""
    monkeypatch.setattr(csvio, "_READ_BYTES", 64)


def test_late_comment_and_empty_line_are_read_by_numpy_in_their_blocks(
        tmp_path, monkeypatch, small_blocks):
    text, values = _grammar_trace(50)
    lines = text.splitlines(keepends=True)
    lines.insert(100, "\n")
    path = tmp_path / "trace.csv"
    path.write_text("".join(lines) + "# end")
    want = _outcome(READERS["trace"][2], str(path))
    assert want == ("array", values.shape, values.tobytes())
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda rows, **kw: calls.append(rows) or loadtxt(rows, **kw))
    assert _outcome(read_trace_csv, str(path)) == want
    # numpy reads the rows of the empty line's block, and of the comment's if
    # it holds any: a few lines each, never the whole file.
    assert 1 <= len(calls) <= 2
    assert all(isinstance(rows, list) and len(rows) <= 5 for rows in calls)


def test_bare_cr_inside_the_header_line(tmp_path):
    path = tmp_path / "trace.csv"
    text = _TRACE_TEXT.replace("latency_seconds\n", "latency_seconds\r")
    path.write_bytes(text.encode())
    assert np.array_equal(read_trace_csv(path), _TRACE_ARRAY)
    _assert_reads_like_oracle("trace", str(path))


def test_id_past_int32_in_the_last_block_shows_in_full(tmp_path, small_blocks):
    text, _ = _grammar_trace(40)
    path = tmp_path / "trace.csv"
    path.write_text(text + "4294967296,0,0,0.5\n")
    with pytest.raises(ValueError, match=rf"^{path}:162: iteration ids .* got 4294967296$"):
        read_trace_csv(path)
    _assert_reads_like_oracle("trace", str(path))


def test_bare_cr_in_a_late_block(tmp_path, small_blocks):
    # Two rows end in a bare CR: more rows than line feeds.
    text, values = _grammar_trace(40)
    path = tmp_path / "trace.csv"
    for row in ["38,1,1,", "39,1,1,"]:
        text = text.replace("\n" + row, "\r" + row)
    path.write_bytes(text.encode())
    assert read_trace_csv(path).tobytes() == values.tobytes()
    _assert_reads_like_oracle("trace", str(path))


def test_undecodable_byte_in_a_late_block(tmp_path, small_blocks):
    # The error gives the byte's position as text mode reads the whole file.
    text, _ = _grammar_trace(700)
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode() + b"# \xff\n")
    with pytest.raises(UnicodeDecodeError):
        read_trace_csv(path)
    _assert_reads_like_oracle("trace", str(path))


def test_undecodable_byte_far_into_a_block(tmp_path):
    # One block holds the whole file, and the byte sits past text mode's
    # first chunk of it: naming it must read on to the block's last line.
    text, _ = _grammar_trace(3000)
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode() + b"# \xff\n")
    with pytest.raises(UnicodeDecodeError):
        read_trace_csv(path)
    _assert_reads_like_oracle("trace", str(path))


def _bad_byte_file(place: str) -> bytes:
    """A trace holding the undecodable comment '# \\xff' at `place`."""
    bad = "# \udcff\n"
    head, *rows = _grammar_trace(9_000)[0].splitlines(keepends=True)
    if place == "before-header":
        lines = [bad, head, *rows[:8]]
    elif place == "in-header":
        lines = [head.replace("worker", "wor\udcffker"), *rows[:8]]
    elif place.startswith("after-wrong-header"):
        # Text mode decodes up to the header, in chunks of 8 KB: the byte
        # wins next to it and not 20 KB on.
        far = 1500 if place.endswith("-far") else 0
        lines = ["iteration,worker,micro_batch\n", *rows[:far], bad, *rows[far:far + 8]]
    elif place == "after-header-no-rows":
        lines = [head, "# note\n", bad]
    else:
        # A malformed row at line 2 and the byte k good rows on.
        k = {"same-block": 0, "later-block": 10, "past-8kb": 1500,
             "past-first-block": 35_000}[place.removeprefix("after-bad-row-")]
        lines = [head, "0,0,0,slow\n", *rows[1:k + 1], bad, *rows[k + 1:k + 9]]
    return "".join(lines).encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("read_bytes", [1, 64, csvio._READ_BYTES])
@pytest.mark.parametrize("place", [
    "before-header", "in-header", "after-wrong-header", "after-wrong-header-far",
    "after-header-no-rows", "after-bad-row-same-block", "after-bad-row-later-block",
    "after-bad-row-past-8kb", "after-bad-row-past-first-block"])
def test_undecodable_byte_is_reported_as_text_mode_reports_it(tmp_path, monkeypatch,
                                                             place, read_bytes):
    # An undecodable byte fails the read where text mode reading the file
    # meets it, even past a row that breaks the format.
    monkeypatch.setattr(csvio, "_READ_BYTES", read_bytes)
    path = tmp_path / "trace.csv"
    path.write_bytes(_bad_byte_file(place))
    _assert_reads_like_oracle("trace", str(path))


@pytest.mark.parametrize("read_bytes", [1, 64, csvio._READ_BYTES])
def test_data_line_before_an_undecodable_byte(tmp_path, monkeypatch, read_bytes):
    # Only the row's own line is decoded: rows before a bad byte are named
    # as text mode names them in the file cut before its line.
    monkeypatch.setattr(csvio, "_READ_BYTES", read_bytes)
    text = _grammar_trace(20)[0].replace("\n3,", "\r\n# note\r\n\r3,")
    path, cut = tmp_path / "trace.csv", tmp_path / "cut.csv"
    path.write_bytes(text.encode() + b"# \xff\n" + text.encode())
    cut.write_bytes(text.encode())
    want = _oracle_data_lines(cut)
    assert [csvio._data_line(path, row) for row in range(len(want))] == want


def test_line_over_many_blocks_without_a_line_end(tmp_path, monkeypatch):
    monkeypatch.setattr(csvio, "_READ_BYTES", 7)
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_HEADER) + "\n0,0,0,0." + "5" * 300 + "x")
    with pytest.raises(ValueError, match=rf"^{path}:2: expected iteration,.*5x'$"):
        read_trace_csv(path)
    _assert_reads_like_oracle("trace", str(path))


def _traced_peak(read, path):
    """(outcome, peak bytes tracemalloc saw) of read(path)."""
    tracemalloc.start()
    try:
        return _outcome(read, path), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_naming_a_late_duplicate_row_keeps_the_read_in_its_memory(tmp_path, monkeypatch):
    # Naming the row rescans the file only up to it and keeps no line: a
    # list of all 200k data lines would add about 20 MB. One parse thread
    # makes both peaks the same every run; on two, the blocks in flight set
    # them, they move with thread timing, and they hide the rescan's peak.
    monkeypatch.setattr(csvio, "_PARSE_THREADS", 1)
    text, values = _grammar_trace(50_000)
    good, dup = tmp_path / "good.csv", tmp_path / "dup.csv"
    good.write_text(text)
    dup.write_text(text + text.splitlines(keepends=True)[100_001])
    want, good_peak = _traced_peak(read_trace_csv, str(good))
    assert want == ("array", values.shape, values.tobytes())
    got, dup_peak = _traced_peak(read_trace_csv, str(dup))
    assert got == ("error", f"{dup}:200002: duplicate iteration=25000, worker=0, "
                            "micro_batch=0")
    assert got == _outcome(READERS["trace"][2], str(dup))
    assert dup_peak <= good_peak + 2_000_000


def test_naming_a_duplicate_row_sorts_only_the_repeated_cells(tmp_path, monkeypatch):
    # Small blocks keep the parse's own peak below the id checks'. Sorting
    # every row's cell to find the first repeat added about 8 MB here.
    monkeypatch.setattr(csvio, "_READ_BYTES", 1 << 16)
    text, values = _grammar_trace(50_000)
    good, dup = tmp_path / "good.csv", tmp_path / "dup.csv"
    good.write_text(text)
    dup.write_text(text + text.splitlines(keepends=True)[1])
    want, good_peak = _traced_peak(read_trace_csv, str(good))
    assert want == ("array", values.shape, values.tobytes())
    got, dup_peak = _traced_peak(read_trace_csv, str(dup))
    assert got == ("error", f"{dup}:200002: duplicate iteration=0, worker=0, micro_batch=0")
    assert got == _outcome(READERS["trace"][2], str(dup))
    assert dup_peak <= good_peak + 4_000_000


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_first_bad_row_is_named_at_any_thread_count(tmp_path, monkeypatch, small_blocks,
                                                    threads):
    # A comment sends an early block to numpy, which then counts its rows;
    # two later blocks each hold a row outside the format, and the first
    # one is named, as the oracle names it.
    monkeypatch.setattr(csvio, "_PARSE_THREADS", threads)
    lines = _grammar_trace(50)[0].splitlines(keepends=True)
    lines.insert(10, "# sent to numpy\n")
    lines[120], lines[170] = "29,1,1,slow\n", "41,1,1,0.5x\n"
    path = tmp_path / "trace.csv"
    path.write_text("".join(lines))
    got = _outcome(read_trace_csv, str(path))
    assert got == ("error", f"{path}:121: expected iteration,worker,micro_batch,"
                            "latency_seconds with integer ids, got '29,1,1,slow'")
    assert got == _outcome(READERS["trace"][2], str(path))


def test_reads_leave_no_thread_running(tmp_path, monkeypatch, small_blocks):
    # The pool's threads are joined when a read returns, and when it raises
    # with blocks still in flight behind the bad row.
    monkeypatch.setattr(csvio, "_PARSE_THREADS", 3)
    text, values = _grammar_trace(50)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(text)
    bad.write_text(text.replace("\n3,0,0,", "\n3,0,0,x"))
    before = threading.enumerate()
    assert read_trace_csv(good).tobytes() == values.tobytes()
    assert threading.enumerate() == before
    with pytest.raises(ValueError) as caught:
        read_trace_csv(bad)
    # The error's traceback, held here, keeps the reader's frames alive.
    assert threading.enumerate() == before
    assert str(caught.value).startswith(f"{bad}:14: expected ")


def test_bytes_path_reads(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_TEXT)
    assert np.array_equal(read_trace_csv(str(path).encode()), _TRACE_ARRAY)


def test_row_shuffled_trace_reads_like_the_ordered_one(tmp_path):
    # The id checks look at the set of id tuples, not at the row order.
    values = 0.05 + np.random.default_rng(2).random((7, 5, 4))
    write_trace_csv(tmp_path / "ordered.csv", values, comment="c")
    head, *rows = (tmp_path / "ordered.csv").read_text().splitlines(keepends=True)[1:]
    order = np.random.default_rng(3).permutation(len(rows))
    (tmp_path / "shuffled.csv").write_text(head + "".join(rows[i] for i in order))
    ordered = read_trace_csv(tmp_path / "ordered.csv")
    shuffled = read_trace_csv(tmp_path / "shuffled.csv")
    assert ordered.tobytes() == values.tobytes()
    assert shuffled.tobytes() == ordered.tobytes()


# ---------------------------------------------------------------------------
# Writers against the csv.writer oracle
# ---------------------------------------------------------------------------

_SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), 1e16, 5e-324, 0.1, 1.0 / 3.0,
            -2.5, 1.7976931348623157e308]


@pytest.mark.parametrize("comment", [None, "", "config_hash=abc version=0.1.0"])
def test_trace_writer_bytes_match_csv_writer(tmp_path, comment):
    values = np.array(_SPECIAL + _SPECIAL[:2]).reshape(2, 3, 2)
    write_trace_csv(tmp_path / "new.csv", values, comment=comment)
    _oracle_write_dense(tmp_path / "old.csv", TRACE_HEADER, values, comment)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_comm_writer_bytes_match_csv_writer(tmp_path):
    values = np.array(_SPECIAL)
    write_comm_csv(tmp_path / "new.csv", values, comment="c")
    _oracle_write_dense(tmp_path / "old.csv", COMM_HEADER, values, "c")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@given(st.integers(0, 2), st.lists(st.integers(0, 4), min_size=1, max_size=3),
       st.integers(1, 7))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_writer_blocks_match_csv_writer(kind, shape, block_rows):
    header = [TRACE_HEADER, COMM_HEADER, ["a", "b", "v"]][kind]
    shape = (shape * 3)[:len(header) - 1]
    values = np.arange(math.prod(shape), dtype=float).reshape(shape) / 7.0
    with mock.patch.object(csvio, "_WRITE_BLOCK_ROWS", block_rows), \
            tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        csvio._write_dense(new, header, values, "c")
        _oracle_write_dense(old, header, values, "c")
        assert new.read_bytes() == old.read_bytes()
