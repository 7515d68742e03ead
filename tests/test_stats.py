"""Oracle checks for the probability kernel: phi routines against quadrature
and bisection, stream addressing, and the in-order block sum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from dropsim import RngStream, phi_cdf, phi_inv
from dropsim.stats import EULER_GAMMA, StreamGenerator, add_in_order


def _phi_quad(x: float) -> float:
    # Independent quadrature oracle: integrate the density, never erfc.
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    if x <= 0.0:
        val, _ = integrate.quad(density, -np.inf, x)
        return val
    val, _ = integrate.quad(density, x, np.inf)
    return 1.0 - val


def _probit_bisect(p: float, tol: float = 1e-13) -> float:
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPhiCdf:
    def test_median(self):
        assert phi_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [-8.0, -3.0, -1.0, -0.1, 0.3, 1.959964, 4.5, 8.0])
    def test_matches_quadrature(self, x):
        assert abs(phi_cdf(x) - _phi_quad(x)) < 1e-9

    def test_reflection(self):
        for x in np.linspace(-6, 6, 41):
            assert phi_cdf(x) + phi_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-5, 5, 101)
        out = phi_cdf(xs)
        assert out.shape == xs.shape
        assert np.all(out == [phi_cdf(float(x)) for x in xs])

    def test_monotone(self):
        xs = np.linspace(-10, 10, 2001)
        assert np.all(np.diff(phi_cdf(xs)) >= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            phi_cdf(float("nan"))
        with pytest.raises(ValueError):
            phi_cdf(np.array([0.0, np.inf]))


class TestPhiInv:
    def test_median(self):
        assert phi_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_known_quantile(self):
        # 97.5% point of the standard normal, classic 1.96 value.
        assert phi_inv(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    @pytest.mark.parametrize("p", [1e-6, 1e-4, 0.02425, 0.3, 0.5, 0.7, 0.97576, 0.9999, 1 - 1e-6])
    def test_matches_bisection_oracle(self, p):
        assert phi_inv(p) == pytest.approx(_probit_bisect(p), abs=1e-9)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=200, derandomize=True)
    def test_round_trip(self, p):
        assert abs(phi_cdf(phi_inv(p)) - p) < 1e-7

    @given(st.floats(min_value=-4.5, max_value=4.5))
    @settings(max_examples=200, derandomize=True)
    def test_round_trip_x(self, x):
        assert abs(phi_inv(phi_cdf(x)) - x) < 1e-7

    @pytest.mark.parametrize("k", [20, 30, 40, 50])
    def test_upper_tail_mirrors_lower_tail(self, k):
        # 1 - 2**-k is exact in binary, so phi_inv(1 - p) = -phi_inv(p) holds
        # with no rounding in the argument.
        lo = phi_inv(2.0**-k)
        assert phi_inv(1.0 - 2.0**-k) == pytest.approx(-lo, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            phi_inv(p)


def test_euler_gamma_value():
    # Euler-Mascheroni constant used by the expected-maximum blend: the double
    # nearest to 0.57721566490153286060651209...
    assert EULER_GAMMA == 0.5772156649015329


class TestRngStream:
    def test_same_address_same_draws(self):
        a = RngStream(123, 7).generator().standard_normal(16)
        b = RngStream(123, 7).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(16)
        b = RngStream(123, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(1).generator().standard_normal(16)
        b = RngStream(2).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic(self):
        root = RngStream(99)
        assert root.derive(3, 1, 4) == root.derive(3, 1, 4)

    def test_derive_order_sensitive(self):
        root = RngStream(99)
        assert root.derive(1, 2) != root.derive(2, 1)

    def test_derive_chain_matches_flat(self):
        root = RngStream(99)
        assert root.derive(5).derive(11) == root.derive(5, 11)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=4))
    @settings(max_examples=100, derandomize=True)
    def test_derive_never_collides_with_parent(self, seed, indices):
        root = RngStream(seed)
        assert root.derive(*indices) != root

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("stream_id", [0, 1, 2**64 - 1])
    def test_stream_is_numpys_philox_keyed_by_its_address(self, seed, stream_id):
        # The documented address: Philox(key=seed | stream_id << 64) at counter 0.
        want = np.random.Generator(np.random.Philox(key=seed | stream_id << 64))
        want = [want.random(5), want.integers(0, 2**63, 3), want.standard_normal(5)]
        for gen in (RngStream(seed, stream_id).generator(), StreamGenerator(seed).at(stream_id)):
            got = [gen.random(5), gen.integers(0, 2**63, 3), gen.standard_normal(5)]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=-2, max_value=2), st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=10, derandomize=True, deadline=None)
    def test_gaussian_sampler_ks_below_critical(self, seed, loc, scale):
        # Two-sided KS against scipy's normal law; 1.63/sqrt(n) is the 1% point.
        n = 100_000
        draws = loc + scale * RngStream(seed, 41).generator().standard_normal(n)
        stat = stats.kstest(draws, stats.norm(loc, scale).cdf).statistic
        assert stat <= 1.63 / math.sqrt(n)


@pytest.mark.parametrize("width", [1, 2, 4, 257])
def test_add_in_order_is_a_python_loop_over_rows(width):
    # Heavy-tailed values, so pairwise and in-order sums differ in their
    # last bits; blocks of 7 and 100 rows give the bits of one whole loop.
    rows = RngStream(8, width).generator().lognormal(0.0, 2.0, (700, width))
    want = np.zeros(width)
    for row in rows:
        want = want + row
    for block in (7, 100, 700):
        got = np.zeros(width)
        for lo in range(0, len(rows), block):
            got = add_in_order(got, rows[lo:lo + block])
        assert got.tobytes() == want.tobytes()
