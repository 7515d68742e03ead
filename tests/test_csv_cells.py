"""The numpy CSV cell builders against Python's own text: `float_cells` must
give repr(v) byte for byte and `int_cells` str(v), whatever the values.
Hypothesis draws a seed and numpy then draws a large array from it, so each
example checks thousands of values."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dropsim as ds
from dropsim.csvio import csv_rows, float_cells, int_cells


def _texts(cells) -> list:
    return csv_rows([cells]).split("\r\n")[:-1]


def _assert_repr(x):
    x = np.asarray(x, dtype=float).ravel()
    assert _texts(float_cells(x)) == [repr(v) for v in x.tolist()]


def _rng(seed):
    return np.random.default_rng(seed)


_seeds = st.integers(min_value=0, max_value=2**32)
_big = settings(max_examples=15, derandomize=True, deadline=None)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
                min_size=1, max_size=500))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_any_floats(values):
    _assert_repr(values)


@given(_seeds)
@_big
def test_raw_bit_patterns(seed):
    _assert_repr(_rng(seed).integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64))


@given(_seeds)
@_big
def test_wide_ranges_of_magnitude(seed):
    _assert_repr(10.0 ** _rng(seed).uniform(-8, 20, 20_000))


@given(_seeds)
@_big
def test_short_decimals_and_their_neighbours(seed):
    gen = _rng(seed)
    digits = gen.integers(1, 17, 4000)
    mantissa = gen.integers(1, 10**digits, dtype=np.int64)
    x = np.array([float(f"{m}e{k}") for m, k in
                  zip(mantissa.tolist(), gen.integers(-22, 14, 4000).tolist())])
    for values in (x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)):
        _assert_repr(values)


@given(_seeds)
@_big
def test_few_significant_bits(seed):
    # Dyadic values such as 8 + 2**-16, whose decimal expansion ends in 5
    # one digit past the 16th: both 16-digit neighbours read back, and repr
    # takes the even one.
    gen = _rng(seed)
    _assert_repr(gen.integers(1, 2**20, 20_000) * 2.0 ** gen.integers(-40, 40, 20_000))


@given(_seeds, st.integers(min_value=-4, max_value=15))
@_big
def test_blocks_of_one_decimal_exponent(seed, exponent):
    _assert_repr(_rng(seed).uniform(1.0, 10.0, 5000) * 10.0**exponent)


@given(_seeds)
@_big
def test_blocks_below_one(seed):
    _assert_repr(_rng(seed).uniform(1e-4, 1.0, 5000))
    _assert_repr(_rng(seed).uniform(0.5, 1.0, 5000))


def test_powers_of_two_and_ten():
    twos = 2.0 ** np.arange(-1074, 1024)
    tens = np.array([float(f"1e{k}") for k in range(-30, 31)])
    for x in (twos, tens):
        for values in (x, np.nextafter(x, np.inf), np.nextafter(x, 0.0), -x):
            _assert_repr(values)


def test_edges_of_the_fast_range():
    edges = np.array([1e-4, 1e16, 1e-3, 1e-1, 1.0, 10.0, 1e15, 2.0**53, 9007199254740993.0])
    near = [np.nextafter(edges, np.inf), np.nextafter(edges, 0.0)]
    _assert_repr(np.concatenate([edges, *near, near[1] * (1 - 1e-15), edges * (1 + 1e-15)]))


@pytest.mark.parametrize("shift", [1.0, -1.0], ids=["one-high", "one-low"])
def test_an_exponent_one_off_is_corrected(monkeypatch, shift):
    # Where np.log10 is exact at powers of ten, E is almost never off, so
    # log10 is shifted by one: E starts one too high or too low everywhere.
    gen = _rng(11)
    tens = 10.0 ** np.arange(-4, 16)
    x = np.concatenate([10.0 ** gen.uniform(-4, 16, 20_000), tens,
                        np.nextafter(tens, np.inf), np.nextafter(tens, 0.0)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda v: log10(v) + shift)
    _assert_repr(x)


def test_empty_and_one_value():
    assert float_cells(np.empty(0)).shape[1] == 0
    assert int_cells(np.empty(0, dtype=np.int64)).shape[1] == 0
    _assert_repr([0.1])
    _assert_repr([-0.0])


def _repr_calls(monkeypatch) -> list:
    """The values that float_cells passes to repr from here on, recorded by
    a repr patched into the module that defines float_cells."""
    calls = []
    monkeypatch.setattr(sys.modules[float_cells.__module__], "repr",
                        lambda v: calls.append(v) or repr(v), raising=False)
    return calls


def test_the_repr_patch_sees_the_calls_float_cells_makes(monkeypatch):
    # The tests below that expect no call would pass with a patch that
    # misses float_cells' module; a negative value takes one repr call.
    calls = _repr_calls(monkeypatch)
    assert _texts(float_cells([-1.0])) == ["-1.0"]
    assert calls == [-1.0]


def test_a_lognormal_latency_block_never_calls_repr(monkeypatch):
    model = ds.WorkerLatencyModel(1.0, ds.LogNormalNoise(-2.0, 0.5))
    trace = ds.run_detailed(ds.SimConfig(ds.FleetSpec.homogeneous(64, model), 12,
                                         iterations=20, seed=5)).trace
    want = [repr(v) for v in trace.ravel().tolist()]
    calls = _repr_calls(monkeypatch)
    assert _texts(float_cells(trace)) == want
    assert calls == []


def test_ties_above_2_to_the_49_round_half_even_without_repr(monkeypatch):
    # From 2**49 on, v's spacing is at least 1/8, and 12% of these values
    # lie exactly halfway between their two nearest 16- or 17-digit
    # decimals. repr breaks such a tie towards the even last digit.
    gen = _rng(13)
    x = np.concatenate([gen.uniform(2.0**49, 1e16, 1 << 19),
                        np.exp(gen.uniform(math.log(2.0**49), math.log(1e16), 1 << 19))])
    want = [repr(v) for v in x.tolist()]
    calls = _repr_calls(monkeypatch)
    assert _texts(float_cells(x)) == want
    assert calls == []


@pytest.mark.parametrize("values", [[0], [9, 10, 99, 100, 12345], list(range(1001)),
                                    [10**17 - 1, 5, 10**18]])
def test_int_cells(values):
    assert _texts(int_cells(values)) == [str(v) for v in values]
