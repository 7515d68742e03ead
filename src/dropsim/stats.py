"""Numerical kernels shared by every other module.

Standard normal CDF and quantile, addressable random number streams, and
the in-order sum that run and curve totals are added with.
The CDF routes through the standard library's erfc and the quantile through
its ``NormalDist``, so both are testable against independent quadrature and
bisection oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "RngStream",
    "StreamGenerator",
    "phi_cdf",
    "phi_inv",
    "add_in_order",
]

# Euler-Mascheroni constant, the double nearest to it.
EULER_GAMMA = 0.5772156649015329

_SQRT2 = math.sqrt(2.0)
_ERFC = np.vectorize(math.erfc, otypes=[float])

_MASK64 = (1 << 64) - 1


def add_in_order(totals: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """totals plus each row of rows, added one row at a time in order, so a
    sum taken block by block has the bits of one taken whole.

    numpy's reduction adds pairwise along the fast axis in memory and row by
    row across it (np.sum's notes), so it keeps the order when totals holds
    two or more values. A single column takes np.cumsum, which always adds
    in order but took about 7 times as long on a (1017, 257) block.
    """
    stacked = np.concatenate(([totals], rows))
    if totals.size < 2:
        return np.cumsum(stacked, axis=0)[-1]
    return np.add.reduce(stacked, axis=0)


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer; mixes a 64-bit value into a well-spread 64-bit value."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


_SM_GAMMA, _SM_MUL1, _SM_MUL2 = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB], dtype=np.uint64)
_SM_SHIFTS = np.array([30, 27, 31], dtype=np.uint64)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` elementwise on uint64 arrays, which wrap mod 2**64."""
    s1, s2, s3 = _SM_SHIFTS
    z = x + _SM_GAMMA
    z = (z ^ (z >> s1)) * _SM_MUL1
    z = (z ^ (z >> s2)) * _SM_MUL2
    return z ^ (z >> s3)


@dataclass(frozen=True)
class RngStream:
    """Addressable source of randomness.

    A stream is an address, not a stateful generator: the pair
    ``(seed, stream_id)`` is packed into a 128-bit Philox key, so the same
    address always yields the identical draw sequence and distinct addresses
    yield statistically independent sequences. Concurrent tasks must not
    share a generator; each derives its own child stream instead.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def derive(self, *indices: int) -> "RngStream":
        """Child stream obtained by folding integer indices into the stream id.

        The fold is order sensitive, so ``derive(1, 2)`` and ``derive(2, 1)``
        are distinct addresses.
        """
        sid = self.stream_id
        for ix in indices:
            sid = _splitmix64(sid ^ _splitmix64(int(ix) & _MASK64))
        return RngStream(self.seed, sid)

    def derive_ids(self, *indices) -> np.ndarray:
        """Stream ids of ``derive(*ix)`` for every element of the broadcast index arrays.

        ``derive_ids(i)[k] == derive(i[k]).stream_id``, computed for all
        elements at once in uint64 arithmetic.
        """
        shape = np.broadcast_shapes(*(np.shape(ix) for ix in indices))
        # At least 1-d: numpy warns on 0-d overflow, where arrays wrap silently.
        sid = np.full(1, self.stream_id, dtype=np.uint64)
        for ix in indices:
            ix = np.atleast_1d(np.asarray(ix).astype(np.uint64))
            sid = _splitmix64_array(sid ^ _splitmix64_array(ix))
        return sid.reshape(shape)

    def generator(self) -> np.random.Generator:
        """Fresh stateful generator positioned at the start of this stream:
        ``Philox(key=seed | stream_id << 64)`` at counter 0, so numpy alone
        reproduces any stream."""
        return np.random.Generator(np.random.Philox(key=self.seed | self.stream_id << 64))


class StreamGenerator:
    """One generator that can be moved to the start of any stream of a seed.

    ``at(stream_id)`` repositions the same generator at the start of stream
    ``(seed, stream_id)``, so that it draws exactly what
    ``RngStream(seed, stream_id).generator()`` draws, at a fraction of the
    cost of building a new one. Every call invalidates the generator the
    previous call returned; a task that runs concurrently with others needs
    its own instance.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=int(seed) & _MASK64)
        self._gen = np.random.Generator(self._bitgen)
        # A fresh Philox: counter 0, empty output buffer, no cached 32-bit half.
        # Its words are held as lists, which numpy's state setter reads
        # about twice as fast as uint64 arrays.
        self._state = self._bitgen.state
        self._state["state"] = {k: v.tolist() for k, v in self._state["state"].items()}
        self._state["buffer"] = self._state["buffer"].tolist()
        self._key = self._state["state"]["key"]  # [seed, stream_id]

    def at(self, stream_id: int) -> np.random.Generator:
        self._key[1] = stream_id
        self._bitgen.state = self._state
        return self._gen


def phi_cdf(x):
    """Standard normal CDF; scalar in, scalar out, arrays elementwise.

    Computed as ``erfc(-x / sqrt(2)) / 2`` with ``math.erfc`` applied to
    each element, which keeps full relative accuracy in the lower tail.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"phi_cdf requires finite input, got {x!r}")
    out = 0.5 * _ERFC(-arr / _SQRT2)
    return float(out) if arr.ndim == 0 else out


def phi_inv(p: float) -> float:
    """Inverse standard normal CDF (probit).

    Valid for p strictly inside (0, 1); the endpoints and nan are a domain
    error, and degenerate cases (e.g. a single worker in the expected-maximum
    formula) are the caller's responsibility. Computed by the standard
    library's ``NormalDist.inv_cdf`` (Wichura's AS241).
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"phi_inv requires 0 < p < 1, got {p!r}")
    # Imported here: statistics loads fractions and decimal, about 7 ms of
    # every CLI start, and no command calls phi_inv.
    import statistics
    return statistics.NormalDist().inv_cdf(p)
