"""CSV files: the trace and comm readers and writers, and the cells and lines
of every CSV file dropsim writes. Each writer puts an optional '# comment'
line before its header and ends rows in CRLF, as csv.writer does; floats are
written as their repr, so they read back bit for bit.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os

import numpy as np

__all__ = ["TRACE_HEADER", "COMM_HEADER", "csv_text", "int_cells", "float_cells",
           "csv_rows", "row_blocks", "write_csv", "read_trace_csv", "write_trace_csv",
           "read_comm_csv", "write_comm_csv"]

TRACE_HEADER = ["iteration", "worker", "micro_batch", "latency_seconds"]
COMM_HEADER = ["iteration", "T_c_seconds"]

# Lines starting with one of these are skipped: '#' comments and empty lines.
_SKIP = "#\n"
# The readers decode text as text mode does, in its encoding.
_ENCODING = io.text_encoding(None)


def csv_text(comment, header, rows) -> str:
    """CSV text: a '# comment' line unless comment is empty, then header and
    each row of rows, their string cells joined by ',' and each line ended
    in CRLF, as csv.writer writes cells that need no quoting. A line break
    in comment would leave text where the readers expect the header, so it
    raises ValueError."""
    if comment and ("\n" in comment or "\r" in comment):
        raise ValueError(f"comment must be one line, got {comment!r}")
    lines = (",".join(cells) + "\r\n" for cells in (header, *rows))
    return (f"# {comment}\n" if comment else "") + "".join(lines)


# ---------------------------------------------------------------------------
# CSV rows built in numpy. A column of cells is a (width, n) uint8 array:
# its column r holds the ASCII text of row r's cell, padded with 0 bytes
# that csv_rows drops.
# ---------------------------------------------------------------------------

_POW10 = np.array([float(10**k) for k in range(22)])
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
# Veltkamp's split of each power of ten into two halves of at most 26 bits,
# so that their products with the halves of a double are exact.
_SPLIT = 2.0**27 + 1.0
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_EXPONENT = np.uint64(0x7FF << 52)
_MANTISSA = np.uint64((1 << 52) - 1)


def _digits(v: np.ndarray, width: int) -> np.ndarray:
    """(width, n) uint8 decimal digits of the int64 array v < 10**width,
    most significant first, taken in uint32 chunks of nine digits."""
    out = np.empty((width, v.size), np.uint8)
    q = np.empty(v.size, np.uint32)
    for stop in range(width, 0, -9):
        start = max(stop - 9, 0)
        if start:
            high = v // 10 ** (stop - start)
            chunk, v = (v - high * 10 ** (stop - start)).astype(np.uint32), high
        else:
            chunk = v.astype(np.uint32)
        for row in range(stop - 1, start - 1, -1):
            np.floor_divide(chunk, 10, out=q)
            np.subtract(chunk, q * np.uint32(10), out=out[row], casting="unsafe")
            chunk, q = q, chunk
    return out


def _ascii(digits: np.ndarray, rows) -> np.ndarray:
    """Turn digits into ASCII in place; zeros that come before the first
    nonzero digit in the order of rows stay 0 padding, except the last row's."""
    seen = digits.copy()
    for prev, row in zip(rows, rows[1:]):
        np.bitwise_or(seen[row], seen[prev], out=seen[row])
    seen[rows[-1]] = 1
    return np.add(digits, ord("0"), out=digits, where=seen != 0)


def int_cells(v) -> np.ndarray:
    """Cells of the decimal text of the non-negative integers v, flattened."""
    v = np.asarray(v, dtype=np.int64).ravel()
    width = len(str(int(v.max()))) if v.size else 1
    return _ascii(_digits(v, width), range(width))


def _scaled(x: np.ndarray, k: np.ndarray):
    """x * 10**k (k <= 21) as an int64 floor and a fraction, both exact:
    Dekker's product p + err is x * 10**k exactly, and p is an integer."""
    p = x * _POW10[k]
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    err = ((hi * _POW10_HI[k] - p) + hi * _POW10_LO[k] + lo * _POW10_HI[k]) \
        + lo * _POW10_LO[k]
    down = np.floor(err)
    return p.astype(np.int64) + down.astype(np.int64), err - down


def _half_even(q: np.ndarray, r: np.ndarray, half) -> np.ndarray:
    """q rounded by its remainder r: up where r is above half, or equal to
    half with q odd (round half to even)."""
    return q + ((r > half) | (r == half) & (q & 1).astype(bool))


def float_cells(x) -> np.ndarray:
    """Cells of repr(v) for each v of the float array x, flattened.

    repr writes v in [1e-4, 1e16) in fixed notation as the shortest decimal
    that reads back as v, and of those the nearest to v. Here that is found
    in numpy. With E = floor(log10 v), let F + f be v * 10**(16 - E), F its
    17-digit integer part and f its fraction, both exact. Every double
    within h = spacing(v) / 2 * 10**(16 - E) of v reads back as v. A decimal
    of 15 significant digits or fewer reads back exactly (DBL_DIG is 15), so
    at most one lies this close to v: the nearest 15-digit one, if any. If
    none does, the nearest 16-digit one is taken if it is within h, else the
    nearest 17-digit one, which always is. So each value picks its digit
    position first, from its remainders at the 15- and 16-digit positions,
    and F + f is then rounded once, at that position.

    Three facts keep this exact. In this range v * 10**(16 - E) is a
    multiple of 2**-46, so f and the distances to the candidates, all below
    128, are exact doubles, and no comparison with h needs a margin. A power
    of two has half the gap below it that it has above, but each one in the
    range is a decimal of at most 16 digits, taken at distance 0. An exact
    tie between the two nearest 16- or 17-digit decimals goes to the even
    last digit, as in repr. 0.0, negative, non-finite and other out-of-range
    values call repr once each.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    fast = (x >= 1e-4) & (x < 1e16)
    # Out-of-range values are formatted as 1.5 here and overwritten below.
    v = np.where(fast, x, 1.5)
    e = np.floor(np.log10(v)).astype(np.int64)
    big, f = _scaled(v, 16 - e)
    # log10 can be one off next to a power of ten: F shows it.
    off = (big >= 10**17).astype(np.int64) - (big < 10**16)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        big[redo], f[redo] = _scaled(v[redo], 16 - e[redo])
    # 2**floor(log2 v) * 2**-53 is half of v's spacing.
    h = (v.view(np.uint64) & _EXPONENT).view(np.float64) * (2.0**-53 * _POW10[16 - e])
    q10 = big // 10
    r10 = (big - q10 * 10) + f
    r100 = (big - q10 // 10 * 100) + f
    near15 = np.minimum(r100, 100 - r100) < h
    near16 = np.minimum(r10, 10 - r10) < h
    # A 15-digit decimal is also a 16-digit one, so near15 implies near16,
    # and the unit of the last digit kept is 100, 10 or 1.
    unit = _POW10_INT[near15.view(np.int8) + near16.view(np.int8)]
    q = big // unit
    digits = _half_even(q, (big - q * unit) + f, unit / 2) * unit

    # Integer part, point, E < 0's leading zeros, then the fraction's
    # digits, left-aligned in 17 columns and without trailing zeros.
    unit = _POW10_INT[np.minimum(16 - e, 17)]
    whole = digits // unit
    fraction = _ascii(_digits((digits - whole * unit) * _POW10_INT[np.maximum(e + 1, 0)], 17),
                      range(16, -1, -1))
    lead = np.maximum(-e - 1, 0)
    cells = [int_cells(whole), np.full((1, x.size), ord("."), np.uint8),
             (np.arange(lead.max(initial=0))[:, None] < lead) * np.uint8(ord("0")),
             fraction[:17 - int(np.argmax(fraction[::-1].any(axis=1)))]]
    slow = np.flatnonzero(~fast)
    texts = [repr(s).encode() for s in x[slow].tolist()]
    width = max([sum(map(len, cells)), *map(len, texts)])
    out = np.zeros((width, x.size), np.uint8)
    np.concatenate(cells, out=out[:sum(map(len, cells))])
    if texts:
        out[:, slow] = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                                     np.uint8).reshape(-1, width).T
    return out


def csv_rows(columns) -> str:
    """CSV text of the rows the cell columns hold: cells joined by ',' and
    each row ended in CRLF, as csv.writer writes cells needing no quotes."""
    width = sum(len(c) for c in columns) + len(columns) + 1
    rows = np.empty((width, columns[0].shape[1]), np.uint8)
    at = 0
    for cells in columns:
        rows[at:at + len(cells)] = cells
        rows[at + len(cells)] = ord(",")
        at += len(cells) + 1
    rows[at - 1:] = np.array([[ord("\r")], [ord("\n")]], np.uint8)
    return rows.T.tobytes().translate(None, b"\0").decode("ascii")


def _data_lines(path, line: int = 0):
    """(physical line number, byte start, byte end) of each data line of the
    file from data line `line` on, the header being data line 0. Lines end
    as text mode ends them, at each LF and at each CR not before one; comment
    and empty lines are no data lines. The lines are counted in binary
    blocks, read only as far as the caller takes lines."""
    skip = np.frombuffer(_SKIP.encode() + b"\r", np.uint8)
    passed, offset = 0, 0
    with open(path, "rb") as fh:
        for text in _line_blocks(fh):
            buf = np.frombuffer(text, np.uint8)
            # A block ends in an LF.
            lf = buf == ord("\n")
            cr = buf == ord("\r")
            cr[:-1] &= ~lf[1:]
            ends = np.flatnonzero(lf | cr)
            starts = np.concatenate(([0], ends[:-1] + 1))
            data = np.flatnonzero(~np.isin(buf[starts], skip))
            for k in data[line:]:
                yield passed + int(k) + 1, offset + int(starts[k]), offset + int(ends[k]) + 1
            line = max(line - data.size, 0)
            passed += ends.size
            offset += len(text)


def _data_line(path, row: int):
    """(physical line number, text) of data row `row`, counted from 0 past
    the header, or None past the last, as text mode reads them. Only the
    row's line is decoded."""
    for no, start, end in _data_lines(path, row + 1):
        with open(path, "rb") as fh:
            fh.seek(start)
            return no, io.TextIOWrapper(io.BytesIO(fh.read(end - start)), _ENCODING).readline()
    return None


def _reject_first(path, bad: np.ndarray, message) -> None:
    """Raise `message(row)` at the physical line of the first row flagged in `bad`."""
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{path}:{next(_data_lines(path, row + 1))[0]}: {message(row)}")


# The readers read this many bytes at a time. A block's parse peaks at
# about 8 times its size, and the pool runs a few at once; on a 2-core
# x86-64 VM, blocks of 1 MB read a million-row trace no faster.
_READ_BYTES = 1 << 19
# Zero bytes before each block, so that every digit window has 24 bytes
# before its end.
_PAD = bytes(24)
_INT32 = np.iinfo(np.int32)
# Blocks are parsed ahead of the reader on as many threads as the process
# has CPUs, at most this many, so that blocks in flight add only a few MB.
_MAX_PARSE_THREADS = 4
try:
    _PARSE_THREADS = min(len(os.sched_getaffinity(0)), _MAX_PARSE_THREADS)
except AttributeError:  # no sched_getaffinity on this platform
    _PARSE_THREADS = min(os.cpu_count() or 1, _MAX_PARSE_THREADS)
# _DIGIT_MASKS[w] keeps the low nibble of the last w bytes of a word.
_DIGIT_MASKS = np.array([0x0F0F0F0F0F0F0F0F & -(1 << 8 * (8 - w)) for w in range(9)],
                        np.uint64)


def _swar(words: np.ndarray, end: np.ndarray, width: np.ndarray) -> np.ndarray:
    """int64 values of the width <= 8 ASCII digits that end before each byte
    offset in end. words holds the little-endian 8-byte word at every byte
    offset; its word at end - 8 ends with the digits, and the bytes before
    them, masked to 0, count as leading zeros. Three multiplies then join
    digit pairs, pairs of pairs and the two halves (Lemire 2021)."""
    v = words[end - 8] & _DIGIT_MASKS[width]
    v *= 10 << 8 | 1
    v >>= 8
    v &= 0x00FF00FF00FF00FF
    v *= 100 << 16 | 1
    v >>= 16
    v &= 0x0000FFFF0000FFFF
    v *= 10000 << 32 | 1
    v >>= 32
    return v.view(np.int64)


def _quotients(digits: np.ndarray, k: np.ndarray):
    """digits / 10**k correctly rounded, ties to even, for int64 digits
    < 10**18 and k <= 21; None if a quotient is not found within two steps.

    Where digits <= 2**53 both operands are exact doubles, so numpy's one
    division rounds correctly (Clinger 1990). Elsewhere the double quotient c
    lies within two spacings of the answer. c * 10**k = F + f exactly
    (_scaled), so miss = digits - F - f is the distance from c to the
    decimal, times 10**k. It is a multiple of min(1, spacing * 2**k), and
    within 2.5 spacings it is below 2.5 * 5**k < 2**53 such units, so it is
    an exact double. c is the answer when miss lies within half c's spacing
    above it and half the spacing below it (a quarter above a power of two),
    a tie going to the even mantissa; else c steps one spacing towards the
    decimal, and miss moves by that spacing times 10**k.
    """
    x = digits / _POW10[k]
    redo = np.flatnonzero(digits > 2**53)
    bits = x[redo].view(np.int64)
    scale = 2.0**-53 * _POW10[k[redo]]
    whole, frac = _scaled(bits.view(np.float64), k[redo])
    miss = (digits[redo] - whole) - frac
    for _ in range(3):
        u = bits.view(np.uint64)
        above = (u & _EXPONENT).view(np.float64) * scale
        below = np.where(u & _MANTISSA, above, above / 2)
        odd = (u & 1).astype(bool)
        up = (miss > above) | (miss == above) & odd
        down = (-miss > below) | (-miss == below) & odd
        step = up.view(np.int8) - down.view(np.int8)
        bits += step
        x[redo] = bits.view(np.float64)
        move = np.flatnonzero(step)
        if not move.size:
            return x
        miss -= np.where(up, 2 * above, -2 * below)
        redo, bits, scale, miss = redo[move], bits[move], scale[move], miss[move]
    return None


def _digit_fields(text: bytes, ncols: int):
    """(ids, whole, k, fraction) of the rows of text, each ended by LF or
    CRLF: the int64 id columns, the integer parts, the number of fraction
    digits and the fraction's digits as a (3, rows) int64 array of 8 digits
    a row, last first. None unless every row reads id,...,id,digits.digits
    with at most 8 digits in each id and in the integer part and at most 21
    in the fraction."""
    buf = np.frombuffer(_PAD + text, np.uint8)
    if buf.max() > ord("9"):
        return None
    # Every byte below '0' past the pad is a separator: ',', '.', LF or a CR
    # before an LF. The separators of each row must follow the pattern.
    seps = np.flatnonzero(buf < ord("0"))[len(_PAD):]
    kind = buf[seps]
    cr = kind == ord("\r")
    crlf = cr.any()
    if crlf:
        if (buf[seps[cr] + 1] != ord("\n")).any():
            return None
        seps, kind = seps[~cr], kind[~cr]
    pattern = b"," * (ncols - 1) + b".\n"
    if kind.tobytes() != pattern * (kind.size // len(pattern)):
        return None
    # Field-major: seps[j] holds separator j of every row, so each step
    # below runs along the rows.
    seps = seps.reshape(-1, len(pattern)).T.copy()
    # Field j ends at separator j and starts past the one before it, the
    # line end of the row before for j = 0. The fraction ends before a CR.
    width = np.empty_like(seps)
    np.subtract(seps[1:], seps[:-1], out=width[1:])
    np.subtract(seps[0, 1:], seps[-1, :-1], out=width[0, 1:])
    width[0, 0] = seps[0, 0] - (len(_PAD) - 1)
    width -= 1
    last = seps[-1]
    if crlf:
        cut = buf[last - 1] == ord("\r")
        last, width[-1] = last - cut, width[-1] - cut
    # 1 <= width <= 8, or 21 for the fraction: one unsigned compare of width - 1.
    if ((width - 1).view(np.uint64) > np.array([7] * ncols + [20], np.uint64)[:, None]).any():
        return None
    words = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))
    *ids, whole = _swar(words, seps[:ncols], width[:ncols])
    # A copy, so that no view keeps the block's arrays past the return.
    k = width[-1].copy()
    # The fraction's three words end 0, 8 and 16 bytes before its end.
    back = 8 * np.arange(3)[:, None]
    return ids, whole, k, _swar(words, last - back, np.clip(k - back, 0, 8))


def _parse_block(text: bytes, ncols: int):
    """Columns of the rows of text, each ended by LF or CRLF: int32 ids, then
    float64 values. None unless every row reads id,...,id,digits.digits with
    at most 8 digits in each id and in the integer part, at most 21 in the
    fraction and at most 18 significant digits in the value. The block's
    bytes and separator arrays are freed before the values are computed."""
    fields = _digit_fields(text, ncols)
    if fields is None:
        return None
    ids, whole, k, (f0, f1, f2) = fields
    # At most 18 significant digits: whole * 10**k + fraction < 10**18.
    if not np.where(whole > 0, whole < _POW10_INT[np.maximum(18 - k, 0)], f2 < 100).all():
        return None
    value = _quotients(whole * _POW10_INT[np.minimum(k, 17)]
                       + (f2 * 10**16 + f1 * 10**8 + f0), k)
    # Ids of at most 8 digits fit int32, as the reader's columns hold them.
    return None if value is None else [*(col.astype(np.int32) for col in ids), value]


def _line_blocks(fh):
    """The rest of the binary file fh in blocks of whole lines; a last line
    without a line end gets an LF."""
    pieces = []
    for block in iter(lambda: fh.read(_READ_BYTES), b""):
        cut = block.rfind(b"\n") + 1
        if cut:
            # No piece is held while the block is parsed.
            text, pieces = b"".join([*pieces, block[:cut]]), [block[cut:]]
            yield text
        else:
            pieces.append(block)
    if any(pieces):
        # A CR here ends the line in text mode too.
        text, pieces = b"".join([*pieces, b"\n"]), None
        yield text


def _parsed_blocks(fh, ncols: int):
    """(text, _parse_block's columns or None) of each block of _line_blocks(fh),
    in file order. _parse_block depends on its block alone and spends its
    time in numpy calls that release the GIL, so a pool of _PARSE_THREADS
    threads parses up to that many blocks ahead of the caller. With one
    thread, or for a file of one block, the calling thread parses them."""
    blocks = _line_blocks(fh)
    head = list(itertools.islice(blocks, 2 if _PARSE_THREADS > 1 else 0))
    if len(head) < 2:
        for text in itertools.chain(head, blocks):
            yield text, _parse_block(text, ncols)
        return
    # Imported here: at module level it adds about 7 ms to importing dropsim.
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(_PARSE_THREADS)
    try:
        ahead = []
        for text in itertools.chain(head, blocks):
            ahead.append((text, pool.submit(_parse_block, text, ncols)))
            if len(ahead) > _PARSE_THREADS:
                text, parsed = ahead.pop(0)
                yield text, parsed.result()
        while ahead:
            text, parsed = ahead.pop(0)
            yield text, parsed.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _numpy_block(path, header, text: bytes, before: int) -> list:
    """Columns numpy's text reader gives for the data lines of text, decoded
    as text mode decodes it, which follow the first `before` data lines; []
    if it holds none. A ValueError names the first line numpy rejects."""
    dtype = np.dtype([(h, np.int64) for h in header[:-1]] + [(header[-1], np.float64)])
    opts = dict(dtype=dtype, delimiter=",", comments=None, ndmin=1, unpack=True)
    lines = [ln for ln in io.TextIOWrapper(io.BytesIO(text), _ENCODING) if ln[0] not in _SKIP]
    try:
        return np.loadtxt(lines, **opts) if lines else []
    except ValueError:
        pass
    # Bisect: lines before lo parse and lines[lo:hi] holds one that does not.
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.loadtxt(lines[lo:mid], **opts)
            lo = mid
        except ValueError:
            hi = mid
    no, line = _data_line(path, before + lo)
    raise ValueError(f"{path}:{no}: expected {','.join(header)} with "
                     f"integer ids, got {line.rstrip()!r}")


def _parse_rows(path, header) -> list:
    """Columns of a headed CSV file's data rows: integer ids, then float64 values.

    The rows past the header, which _data_lines finds, are read in blocks of
    whole lines, each by one of two parsers that give the same columns for
    the same rows: _parse_block reads a block whose every line is in its
    grammar, and _numpy_block any other. _parse_block's blocks are parsed
    ahead on a few threads; the columns, messages and the first error are
    the same at any thread count.

    Before a ValueError propagates, text mode reads the file's first `lines`
    lines, as far as a line-by-line reader does before that error: up to the
    header while it is checked, else all. An undecodable byte it meets wins.
    """
    lines = None
    try:
        # Closing the parsed blocks joins the pool's threads before this
        # returns or raises. They are read only from the loop on.
        with open(path, "rb") as fh, \
                contextlib.closing(_parsed_blocks(fh, len(header))) as parsed:
            found = _data_lines(path)
            (lines, _, start), first = next(found, (None, 0, 0)), next(found, None)
            found.close()
            # The lines up to the header are decoded; the last is the header ('' if none).
            *_, text = "", *io.TextIOWrapper(io.BytesIO(fh.read(start)), _ENCODING)
            if [f.strip() for f in next(csv.reader([text]))] != header:
                raise ValueError(f"{path}: expected header {','.join(header)}")
            lines = None
            if first is None:
                raise ValueError(f"{path}: no data rows")
            rows = 1 + sum(np.count_nonzero(np.frombuffer(b, np.uint8) == ord("\n"))
                           for b in iter(lambda: fh.read(_READ_BYTES), b""))
            fh.seek(start)
            # Columns sized for a row per LF and a last line without one grow
            # only where bare CRs end more lines. Ids of at most 8 digits fit
            # int32, which halves their memory.
            out = [np.empty(rows, np.int32) for _ in header[1:]] + [np.empty(rows)]
            at = 0
            # All that depends on earlier blocks happens here, in file order.
            for text, columns in parsed:
                if columns is None:
                    columns = _numpy_block(path, header, text, at)
                    if not columns:
                        continue
                    # An id outside int32 makes its column int64. _parse_block's
                    # ids are int32 already.
                    out[:-1] = [col.astype(np.int64, copy=False)
                                if ids.min() < _INT32.min or ids.max() > _INT32.max else col
                                for col, ids in zip(out, columns[:-1])]
                n = columns[0].size
                if at + n > out[0].size:
                    out = [np.resize(col, 2 * (at + n)) for col in out]
                for col, part in zip(out, columns):
                    col[at:at + n] = part
                at += n
        return [col[:at] for col in out]
    except ValueError:
        with open(path, encoding=_ENCODING) as fh:
            for _ in itertools.islice(fh, lines):
                pass
        raise


def _read_dense(path, header, valid, rule: str) -> np.ndarray:
    """Array of a CSV's last column, indexed by its integer id columns.

    Each id column must use exactly the ids 0..K-1, every id tuple must
    appear exactly once, and every value must be finite and pass `valid`.
    A row breaking a rule raises ValueError naming its physical line.
    """
    *ids, value = _parse_rows(path, header)
    _reject_first(path, ~(valid(value) & (value < np.inf)),
                  lambda r: f"{rule}, got {value[r]}")
    ids = tuple(ids)
    # The rules hold exactly when the ids are >= 0, their ranges span as
    # many cells as there are rows, and no cell repeats: then every cell is
    # filled once, so no id column has a gap.
    shape = tuple(int(col.max()) + 1 for col in ids)
    flat = None
    if min(int(col.min()) for col in ids) >= 0 and math.prod(shape) == value.size:
        flat = _flat_index(ids, shape)
    if flat is None or np.bincount(flat).max() > 1:
        _reject_ids(path, header, ids)
    out = np.empty(value.size)
    out[flat] = value
    return out.reshape(shape)


def _flat_index(ids, shape) -> np.ndarray:
    """Row-major flat cell index (i*N + n)*M + m, in intp, of id columns
    whose ids the caller has checked to lie in 0..shape-1."""
    flat = ids[0].astype(np.intp)
    for col, size in zip(ids[1:], shape[1:]):
        flat *= size
        flat += col
    return flat


def _reject_ids(path, header, ids) -> None:
    """Raise ValueError for the first id rule the rows break, at its line."""
    for col, name in zip(ids, header):
        # The ids are gap-free when no id exceeds the smallest missing one.
        # An id at or past the row count always leaves a gap below it, so
        # clipping there bounds the bincount.
        seen = np.bincount(np.clip(col, 0, col.size), minlength=col.size)[:col.size]
        gap = int(np.argmin(seen)) if seen.min() == 0 else col.size
        _reject_first(path, (col < 0) | (col > gap),
                      lambda r: f"{name} ids must run 0..K-1 without gaps, got {col[r]}")
    shape = tuple(int(col.max()) + 1 for col in ids)
    cells = math.prod(shape)
    if cells > ids[0].size:
        raise ValueError(f"{path}: {ids[0].size} rows cannot fill all "
                         f"{'x'.join(map(str, shape))} ({', '.join(header[:-1])}) cells")
    # Gap-free ids with no more cells than rows: some cell repeats. Only
    # the rows of repeated cells are sorted to find the first repeat.
    flat = _flat_index(ids, shape)
    rows = np.flatnonzero((np.bincount(flat, minlength=cells) > 1)[flat])
    first = np.unique(flat[rows], return_index=True)[1]
    repeat = np.zeros(flat.size, dtype=bool)
    repeat[rows] = True
    repeat[rows[first]] = False
    _reject_first(path, repeat, lambda r: "duplicate "
                  + ", ".join(f"{h}={c[r]}" for h, c in zip(header, ids)))


# Rows per block of text the trace, comm and records writers build before
# writing it out. On a 2-core x86-64 VM, blocks of 2**14 rows wrote both a
# 1M-value trace and 256k records faster than blocks of 2**13 or 2**16.
_WRITE_BLOCK_ROWS = 1 << 14


def row_blocks(rows: int, row_width: int) -> list:
    """Slices of range(rows) of about _WRITE_BLOCK_ROWS CSV rows each, for
    rows that each write row_width CSV rows."""
    step = max(1, _WRITE_BLOCK_ROWS // max(1, row_width))
    return [slice(start, start + step) for start in range(0, rows, step)]


def write_csv(path, comment, header, chunks) -> None:
    """Write the CSV file path: csv_text(comment, header, ()), then each text
    of the iterable chunks in turn. A bad comment raises before the file is
    opened."""
    head = csv_text(comment, header, ())
    with open(path, "w", newline="") as fh:
        fh.write(head)
        fh.writelines(chunks)


def _write_dense(path, header, values: np.ndarray, comment) -> None:
    """One CSV row per element of `values`: its ids, then the repr of the
    value. The text is built in the row_blocks of the first axis."""
    if values.ndim != len(header) - 1:
        raise ValueError(f"expected a {len(header) - 1}-d array for {','.join(header)}")

    def text(rows: slice) -> str:
        block = values[rows]
        ids = np.indices(block.shape).reshape(block.ndim, -1)
        ids[0] += rows.start
        return csv_rows([*map(int_cells, ids), float_cells(block)])

    write_csv(path, comment, header,
              map(text, row_blocks(len(values), math.prod(values.shape[1:]))))


def read_trace_csv(path) -> np.ndarray:
    """Read a latency trace into a full (I, N, M) tensor of latencies > 0."""
    return _read_dense(path, TRACE_HEADER, lambda v: v > 0.0,
                       "latency must be finite and > 0")


def write_trace_csv(path, tensor: np.ndarray, comment: str | None = None) -> None:
    _write_dense(path, TRACE_HEADER, np.asarray(tensor, dtype=float), comment)


def read_comm_csv(path) -> np.ndarray:
    """Read per-iteration communication times T_c >= 0, one per iteration."""
    return _read_dense(path, COMM_HEADER, lambda v: v >= 0.0,
                       "T_c must be finite and >= 0")


def write_comm_csv(path, comm_times, comment: str | None = None) -> None:
    _write_dense(path, COMM_HEADER, np.asarray(comm_times, dtype=float), comment)
