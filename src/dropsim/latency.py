"""Per-worker, per-micro-batch compute-time models.

A worker's micro-batch time is a deterministic base plus random noise. Noise
comes from one of several parametric families or from an empirical trace
(resampled with replacement). Parametric specs expose analytic moments; the
bounded-lognormal spec used for the simulated-delay environment has its
censored moments in closed form through the normal CDF.
"""
from __future__ import annotations

import csv
import itertools
import lzma
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .stats import phi_cdf

__all__ = [
    "NoiseSpec",
    "NoNoise",
    "NormalNoise",
    "LogNormalNoise",
    "BoundedLogNormalNoise",
    "BernoulliNoise",
    "ExponentialNoise",
    "GammaNoise",
    "EmpiricalNoise",
    "WorkerLatencyModel",
    "FleetSpec",
    "simulated_delay_noise",
    "NOISE_KINDS",
    "read_trace_csv",
    "write_trace_csv",
    "read_comm_csv",
    "write_comm_csv",
]

# Additive noise can drive a sampled time to zero or below; physical times
# are positive, so draws are floored at this fraction of the base mean.
POSITIVE_FLOOR_FRACTION = 1e-6


class NoiseSpec:
    """Base class for additive noise distributions (seconds or multipliers)."""

    def sample(self, gen: np.random.Generator, size) -> np.ndarray:
        """An array of `size` draws from the numpy generator `gen`."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class NoNoise(NoiseSpec):
    def sample(self, gen, size):
        return np.zeros(size)

    def mean(self):
        return 0.0

    def variance(self):
        return 0.0


@dataclass(frozen=True)
class NormalNoise(NoiseSpec):
    loc: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.loc) and 0.0 < self.std < math.inf):
            raise ValueError("NormalNoise needs a finite loc and std > 0")

    def sample(self, gen, size):
        return gen.normal(self.loc, self.std, size)

    def mean(self):
        return self.loc

    def variance(self):
        return self.std**2


@dataclass(frozen=True)
class LogNormalNoise(NoiseSpec):
    """exp(N(log_mean, log_std^2))."""

    log_mean: float
    log_std: float

    def __post_init__(self):
        if not (math.isfinite(self.log_mean) and 0.0 < self.log_std < math.inf):
            raise ValueError("LogNormalNoise needs a finite log_mean and log_std > 0")

    def sample(self, gen, size):
        return gen.lognormal(self.log_mean, self.log_std, size)

    def mean(self):
        return math.exp(self.log_mean + 0.5 * self.log_std**2)

    def variance(self):
        s2 = self.log_std**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.log_mean + s2)


@dataclass(frozen=True)
class BoundedLogNormalNoise(NoiseSpec):
    """min(Z / scale_divisor, bound) with Z lognormal.

    The simulated-delay environment uses Z ~ LogNormal(4, 1) scaled by
    2*exp(4.5) and bounded at 5.5, giving a dimensionless multiplier with
    mean just below 0.5 and hard upper limit 5.5.
    """

    log_mean: float
    log_std: float
    scale_divisor: float
    bound: float

    def __post_init__(self):
        positive = (self.log_std, self.scale_divisor, self.bound)
        if not (math.isfinite(self.log_mean) and all(0.0 < v < math.inf for v in positive)):
            raise ValueError("BoundedLogNormalNoise needs a finite log_mean and "
                             "positive other parameters")

    def sample(self, gen, size):
        z = gen.lognormal(self.log_mean, self.log_std, size)
        return np.minimum(z / self.scale_divisor, self.bound)

    def _scaled_params(self):
        # X = Z / divisor is lognormal with shifted log-mean.
        return self.log_mean - math.log(self.scale_divisor), self.log_std

    def _censored_moment(self, k: int) -> float:
        """E[min(X, b)^k] = exp(k mu + k^2 s^2 / 2) Phi(z - k s) + b^k Phi(-z),
        z = (ln b - mu) / s; the tail is Phi(-z), not 1 - Phi(z), so that it
        keeps its precision where the bound sits far above the median."""
        mu, s = self._scaled_params()
        z = (math.log(self.bound) - mu) / s
        return (math.exp(k * mu + 0.5 * (k * s) ** 2) * phi_cdf(z - k * s)
                + self.bound**k * phi_cdf(-z))

    def mean(self):
        return self._censored_moment(1)

    def variance(self):
        m1 = self._censored_moment(1)
        return self._censored_moment(2) - m1 * m1


@dataclass(frozen=True)
class BernoulliNoise(NoiseSpec):
    """scale with probability p, else 0."""

    p: float
    scale: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("BernoulliNoise p must be in [0, 1]")
        if not (0.0 < self.scale < math.inf):
            raise ValueError("BernoulliNoise scale must be > 0")

    def sample(self, gen, size):
        return np.where(gen.random(size) < self.p, self.scale, 0.0)

    def mean(self):
        return self.p * self.scale

    def variance(self):
        return self.p * (1.0 - self.p) * self.scale**2


@dataclass(frozen=True)
class ExponentialNoise(NoiseSpec):
    rate: float

    def __post_init__(self):
        if not (0.0 < self.rate < math.inf):
            raise ValueError("ExponentialNoise rate must be > 0")

    def sample(self, gen, size):
        return gen.exponential(1.0 / self.rate, size)

    def mean(self):
        return 1.0 / self.rate

    def variance(self):
        return 1.0 / self.rate**2


@dataclass(frozen=True)
class GammaNoise(NoiseSpec):
    shape: float
    rate: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.rate < math.inf):
            raise ValueError("GammaNoise shape and rate must be > 0")

    def sample(self, gen, size):
        return gen.gamma(self.shape, 1.0 / self.rate, size)

    def mean(self):
        return self.shape / self.rate

    def variance(self):
        return self.shape / self.rate**2


@dataclass(frozen=True)
class EmpiricalNoise(NoiseSpec):
    """Uniform resampling with replacement from recorded values."""

    samples: tuple
    # The samples as a read-only array, built once; not part of the value.
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("EmpiricalNoise needs at least one sample")
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ValueError("EmpiricalNoise samples must be a list of finite numbers")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", tuple(arr.tolist()))
        object.__setattr__(self, "_values", arr)

    def sample(self, gen, size):
        return self._values[gen.integers(0, self._values.size, size)]

    def mean(self):
        return float(self._values.mean())

    def variance(self):
        return float(self._values.var())


def simulated_delay_noise() -> BoundedLogNormalNoise:
    """The simulated-delay environment's multiplier noise: min(Z/(2e^4.5), 5.5), Z ~ LogNormal(4, 1)."""
    return BoundedLogNormalNoise(4.0, 1.0, 2.0 * math.exp(4.5), 5.5)


# Noise kind of a config -> the class or factory that builds it. A kind's
# config fields are the keyword parameters of its entry.
NOISE_KINDS = {
    "none": NoNoise,
    "normal": NormalNoise,
    "lognormal": LogNormalNoise,
    "bounded_lognormal": BoundedLogNormalNoise,
    "simulated_delay": simulated_delay_noise,
    "bernoulli": BernoulliNoise,
    "exponential": ExponentialNoise,
    "gamma": GammaNoise,
    "empirical": EmpiricalNoise,
}


@dataclass(frozen=True)
class WorkerLatencyModel:
    """Micro-batch compute time: deterministic base plus noise.

    noise_mode "additive_absolute" samples t = base + eps; "additive_scaled_by_mean"
    samples t = base + base * eps (multiplier noise, the simulated-delay form).
    Draws are floored at a tiny positive fraction of the base so times stay
    strictly positive even for unbounded-below noise.
    """

    base_mean: float
    noise: NoiseSpec = field(default_factory=NoNoise)
    noise_mode: str = "additive_absolute"

    def __post_init__(self):
        if not (0.0 < self.base_mean < math.inf):
            raise ValueError("base_mean must be > 0")
        if self.noise_mode not in ("additive_absolute", "additive_scaled_by_mean"):
            raise ValueError(f"unknown noise_mode {self.noise_mode!r}")

    def _noise_scale(self) -> float:
        return self.base_mean if self.noise_mode == "additive_scaled_by_mean" else 1.0

    def sample(self, gen: np.random.Generator, size) -> np.ndarray:
        """An array of `size` micro-batch times drawn from the numpy generator `gen`."""
        return self.times(self.noise.sample(gen, size))

    def times(self, eps: np.ndarray, out=None) -> np.ndarray:
        """Micro-batch times for an array of noise draws, as `sample` maps them."""
        t = self.base_mean + self._noise_scale() * eps
        if out is None and isinstance(t, np.ndarray):
            out = t  # a new array: the floor can overwrite it
        return np.maximum(t, POSITIVE_FLOOR_FRACTION * self.base_mean, out=out)

    def moments(self) -> tuple[float, float]:
        """Analytic (mean, variance) of the micro-batch time.

        The positivity floor is ignored here; for every supported parameter
        range its effect on the moments is far below the 1% contract.
        """
        s = self._noise_scale()
        return self.base_mean + s * self.noise.mean(), s * s * self.noise.variance()


@dataclass(frozen=True)
class FleetSpec:
    """N workers, each with a latency model. Homogeneous shorthand: one model."""

    workers: tuple

    @classmethod
    def homogeneous(cls, n: int, model: WorkerLatencyModel) -> "FleetSpec":
        if n < 1:
            raise ValueError("fleet needs at least one worker")
        return cls(workers=(model,) * n)

    def __post_init__(self):
        if len(self.workers) < 1:
            raise ValueError("fleet needs at least one worker")

    @property
    def n(self) -> int:
        return len(self.workers)

    @property
    def is_homogeneous(self) -> bool:
        return all(w is self.workers[0] or w == self.workers[0] for w in self.workers)


# ---------------------------------------------------------------------------
# Trace file I/O. Format: CSV with header iteration,worker,micro_batch,latency_seconds.
# ---------------------------------------------------------------------------

TRACE_HEADER = ["iteration", "worker", "micro_batch", "latency_seconds"]
COMM_HEADER = ["iteration", "T_c_seconds"]

# Lines starting with one of these are skipped: '#' comments and empty lines.
_SKIP = "#\n"


def comment_line(comment) -> str:
    """The '# comment' line the CSV writers put before their header ('' for
    no comment). A line break in it would leave text where the readers
    expect the header, so it raises ValueError."""
    if not comment:
        return ""
    if "\n" in comment or "\r" in comment:
        raise ValueError(f"comment must be one line, got {comment!r}")
    return f"# {comment}\n"


def csv_text(comment, header, rows) -> str:
    """CSV text: the comment_line of comment, then header and each row of
    rows, their string cells joined by ',' and each line ended in CRLF, as
    csv.writer writes cells that need no quoting."""
    lines = (",".join(cells) + "\r\n" for cells in (header, *rows))
    return comment_line(comment) + "".join(lines)


def _data_lines(path) -> list:
    """(physical line number, text) of every data row; rescans the file."""
    with open(path) as fh:
        return [(no, ln) for no, ln in enumerate(fh, 1) if ln[0] not in _SKIP][1:]


def _reject_first(path, bad: np.ndarray, message) -> None:
    """Raise `message(row)` at the physical line of the first row flagged in `bad`."""
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{path}:{_data_lines(path)[row][0]}: {message(row)}")


def _parse_rows(path, header, dtype) -> np.ndarray:
    """Data rows of a headed CSV file, parsed by numpy's C text reader.

    numpy first reads the file itself, in chunks, past the header; it skips
    blank lines itself. A comment line after the header makes that attempt
    fail, and so does a malformed row. The line path then parses the data
    lines filtered in Python, and on failure bisects for the first line
    numpy rejects.
    """
    opts = dict(dtype=dtype, delimiter=",", comments=None, ndmin=1)
    with open(path) as fh:
        # h counts the physical lines up to and including the header.
        lines = ((h, ln) for h, ln in enumerate(fh, 1) if ln[0] not in _SKIP)
        h, first = next(lines, (0, None))
        if first is None or [f.strip() for f in next(csv.reader([first]))] != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        if next(lines, None) is None:
            raise ValueError(f"{path}: no data rows")
        encoding = fh.encoding
    try:
        # numpy reads a str path in chunks. Made absolute, no path looks like
        # a URL to it; a plain file named like an archive (.gz, .bz2, .xz,
        # .lzma) fails here and is read by the line path.
        rows = np.loadtxt(os.path.abspath(os.fsdecode(path)), skiprows=h,
                          encoding=encoding, **opts)
        if rows.size:
            return rows
    except (ValueError, OSError, lzma.LZMAError):
        pass
    with open(path) as fh:
        try:
            return np.loadtxt((ln for ln in itertools.islice(fh, h, None)
                               if ln[0] not in _SKIP), **opts)
        except ValueError:
            pass
    # Bisect for the first row numpy rejects: rows before lo parse and
    # lines[lo:hi] holds one that does not.
    lines = _data_lines(path)
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


def _read_dense(path, header, valid, rule: str) -> np.ndarray:
    """Array of a CSV's last column, indexed by its integer id columns.

    Each id column must use exactly the ids 0..K-1, every id tuple must
    appear exactly once, and every value must be finite and pass `valid`.
    A row breaking a rule raises ValueError naming its physical line.
    """
    rows = _parse_rows(path, header, np.dtype(
        [(h, np.int64) for h in header[:-1]] + [(header[-1], np.float64)]))
    value = rows[header[-1]]
    _reject_first(path, ~(valid(value) & (value < np.inf)),
                  lambda r: f"{rule}, got {value[r]}")
    ids = tuple(rows[h] for h in header[:-1])
    # The rules hold exactly when the ids are >= 0, their ranges span as
    # many cells as there are rows, and no cell repeats: then every cell is
    # filled once, so no id column has a gap.
    shape = tuple(int(col.max()) + 1 for col in ids)
    flat = None
    if min(int(col.min()) for col in ids) >= 0 and math.prod(shape) == rows.size:
        flat = np.ravel_multi_index(ids, shape)
    if flat is None or np.bincount(flat).max() > 1:
        _reject_ids(path, header, ids)
    out = np.empty(rows.size)
    out[flat] = value
    return out.reshape(shape)


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
    # Gap-free ids with no more cells than rows: some cell repeats.
    flat = np.ravel_multi_index(ids, shape)
    repeat = np.ones(flat.size, dtype=bool)
    repeat[np.unique(flat, return_index=True)[1]] = False
    _reject_first(path, repeat, lambda r: "duplicate "
                  + ", ".join(f"{h}={c[r]}" for h, c in zip(header, ids)))


# Rows per block of text the writers build before writing it out.
_WRITE_BLOCK_ROWS = 1 << 16


def _write_dense(path, header, values: np.ndarray, comment) -> None:
    """One CSV row per element of `values`: its ids, then the repr of the value.

    Rows end in CRLF, as csv.writer ends them. The text is built in blocks
    over the first axis: each row is four cells of one flat list, filled by
    slice assignment and joined once per block.
    """
    if values.ndim != len(header) - 1:
        raise ValueError(f"expected a {len(header) - 1}-d array for {','.join(header)}")
    # The ids of the other axes, in C order, as one "n,m," prefix per row.
    tails = ["".join(f"{i}," for i in ix)
             for ix in itertools.product(*map(range, values.shape[1:]))]
    step = max(1, _WRITE_BLOCK_ROWS // max(1, len(tails)))
    head = csv_text(comment, header, ())
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for start in range(0, len(values), step):
            block = values[start:start + step]
            cells = [""] * (4 * block.size)
            firsts = map("{},".format, range(start, start + len(block)))
            cells[0::4] = itertools.chain.from_iterable(
                map(itertools.repeat, firsts, itertools.repeat(len(tails))))
            cells[1::4] = tails * len(block)
            cells[2::4] = map(repr, block.ravel().tolist())
            cells[3::4] = itertools.repeat("\r\n", block.size)
            fh.write("".join(cells))


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
