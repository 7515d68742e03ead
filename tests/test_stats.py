"""Oracle checks for the probability kernel: phi routines against quadrature
and bisection, stream addressing, and the empirical CDF."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from dropsim import EmpiricalCdf, RngStream, phi_cdf, phi_inv, phi_pdf
from dropsim.stats import EULER_GAMMA


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


class TestPhiPdf:
    def test_peak(self):
        assert phi_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_integrates_to_one(self):
        val, _ = integrate.quad(phi_pdf, -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_is_cdf_derivative(self):
        h = 1e-6
        for x in (-2.0, -0.5, 0.0, 1.3, 3.0):
            num = (phi_cdf(x + h) - phi_cdf(x - h)) / (2 * h)
            assert num == pytest.approx(phi_pdf(x), rel=1e-4)


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

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            phi_inv(p)


def test_euler_gamma_value():
    # Euler-Mascheroni constant used by the expected-maximum blend.
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-12)


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


class TestEmpiricalCdf:
    def test_basic_steps(self):
        ecdf = EmpiricalCdf.from_samples([1.0, 2.0, 3.0, 4.0])
        assert ecdf(0.5) == 0.0
        assert ecdf(1.0) == 0.25
        assert ecdf(2.5) == 0.5
        assert ecdf(4.0) == 1.0
        assert ecdf(9.0) == 1.0

    def test_vectorized(self):
        ecdf = EmpiricalCdf.from_samples([1.0, 2.0])
        out = ecdf(np.array([0.0, 1.5, 3.0]))
        assert np.array_equal(out, [0.0, 0.5, 1.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([])
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([[1.0, 2.0]])
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([1.0, float("nan")])

    def test_ks_distance_to_self_is_small(self):
        samples = RngStream(11).generator().standard_normal(1000)
        ecdf = EmpiricalCdf.from_samples(samples)
        # ECDF vs itself as a step function differs by exactly one step.
        assert ecdf.ks_distance(ecdf) <= 1.0 / samples.size + 1e-12

    @pytest.mark.parametrize("cdf", ["self", "phi"])
    def test_ks_distance_matches_per_sample_oracle(self, cdf):
        # The reference CDF evaluated one sample at a time gives the same bits.
        ecdf = EmpiricalCdf.from_samples(RngStream(12).generator().standard_normal(2000))
        cdf = ecdf if cdf == "self" else phi_cdf
        x = ecdf.sorted_samples
        ref = np.array([cdf(v) for v in x])
        want = max(np.abs(np.arange(1, x.size + 1) / x.size - ref).max(),
                   np.abs(np.arange(x.size) / x.size - ref).max())
        assert ecdf.ks_distance(cdf) == want

    @given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=-2, max_value=2), st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=10, derandomize=True, deadline=None)
    def test_gaussian_sampler_ks_below_critical(self, seed, loc, scale):
        # Two-sided KS against the textbook CDF; 1.63/sqrt(n) is the 1% point.
        n = 100_000
        draws = loc + scale * RngStream(seed, 41).generator().standard_normal(n)
        ecdf = EmpiricalCdf.from_samples(draws)
        stat = ecdf.ks_distance(lambda x: phi_cdf((x - loc) / scale))
        assert stat <= 1.63 / math.sqrt(n)
