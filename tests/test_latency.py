"""Latency model checks: every parametric noise family against its analytic
moments at 10^6 draws, the bounded heavy-tail delay, trace round-trips."""

import math
import re
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from dropsim import (
    BernoulliNoise,
    BoundedLogNormalNoise,
    EmpiricalNoise,
    ExponentialNoise,
    FleetSpec,
    GammaNoise,
    LogNormalNoise,
    NoNoise,
    NormalNoise,
    RngStream,
    WorkerLatencyModel,
    read_comm_csv,
    read_trace_csv,
    simulated_delay_noise,
    write_comm_csv,
    write_trace_csv,
)
from dropsim.latency import POSITIVE_FLOOR_FRACTION

N_DRAWS = 1_000_000

# Matched-moment noise table: every family tuned to mean 0.225, variance 0.05
# (the bernoulli row's variance follows from p(1-p)*scale^2 = 0.0506).
FAMILIES = [
    NormalNoise(0.225, math.sqrt(0.05)),
    LogNormalNoise(-1.84, 0.83),
    BernoulliNoise(0.5, 0.45),
    ExponentialNoise(1.0 / 0.225),
    GammaNoise(0.225**2 / 0.05, 0.225 / 0.05),
]

_DELAY = simulated_delay_noise()
# Each continuous law next to the same law in scipy.stats, the independent
# oracle for its sampler.
CONTINUOUS_LAWS = [
    (FAMILIES[0], stats.norm(FAMILIES[0].loc, FAMILIES[0].std)),
    (FAMILIES[1], stats.lognorm(FAMILIES[1].log_std, scale=math.exp(FAMILIES[1].log_mean))),
    (FAMILIES[3], stats.expon(scale=1.0 / FAMILIES[3].rate)),
    (FAMILIES[4], stats.gamma(FAMILIES[4].shape, scale=1.0 / FAMILIES[4].rate)),
    (_DELAY, stats.lognorm(_DELAY.log_std,
                           scale=math.exp(_DELAY.log_mean) / _DELAY.scale_divisor)),
]


def _draws(spec, n=N_DRAWS, seed=17):
    return spec.sample(RngStream(seed, 3).generator(), n)


class TestNoiseMoments:
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
    def test_mc_matches_analytic_within_one_percent(self, spec):
        x = _draws(spec)
        assert np.mean(x) == pytest.approx(spec.mean(), rel=0.01, abs=1e-4)
        assert np.var(x) == pytest.approx(spec.variance(), rel=0.01)

    def test_lognormal_row_moments(self):
        # LogNormal(-1.84, 0.83) lands near (0.225, 0.05); the table rounds.
        spec = LogNormalNoise(-1.84, 0.83)
        assert spec.mean() == pytest.approx(0.225, abs=0.003)
        assert spec.variance() == pytest.approx(0.05, abs=0.002)

    def test_exponential_row_moments(self):
        spec = ExponentialNoise(4.47)
        assert spec.mean() == pytest.approx(0.2237, abs=5e-4)
        assert spec.variance() == pytest.approx(0.0500, abs=5e-4)

    def test_bernoulli_is_two_point(self):
        x = _draws(BernoulliNoise(0.5, 0.45), n=10_000)
        assert set(np.unique(x)) == {0.0, 0.45}
        assert BernoulliNoise(0.5, 0.45).mean() == pytest.approx(0.225)

    def test_gamma_shape_one_is_exponential(self):
        g = GammaNoise(1.0, 4.5)
        e = ExponentialNoise(4.5)
        assert g.mean() == pytest.approx(e.mean())
        assert g.variance() == pytest.approx(e.variance())

    def test_nonoise_degenerate(self):
        assert NoNoise().mean() == 0.0
        assert NoNoise().variance() == 0.0
        assert np.all(_draws(NoNoise(), n=100) == 0.0)

    @pytest.mark.parametrize("spec, law", CONTINUOUS_LAWS,
                             ids=[type(s).__name__ for s, _ in CONTINUOUS_LAWS])
    def test_cdf_matches_empirical(self, spec, law):
        # Continuous laws only; a two-point law has no quantile inverse. The
        # bounded law is checked below its bound, where it is the scaled
        # lognormal.
        x = _draws(spec, n=200_000)
        for q in (0.1, 0.3, 0.7, 0.9):
            point = float(np.quantile(x, q))
            assert point < getattr(spec, "bound", math.inf)
            assert law.cdf(point) == pytest.approx(q, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            NormalNoise(0.0, -1.0)
        with pytest.raises(ValueError):
            ExponentialNoise(0.0)
        with pytest.raises(ValueError):
            GammaNoise(-1.0, 1.0)
        with pytest.raises(ValueError):
            BernoulliNoise(1.5, 1.0)
        with pytest.raises(ValueError):
            EmpiricalNoise(())

    @pytest.mark.parametrize("samples", [((1.0,),), (0.1, math.nan), (math.inf,)])
    def test_empirical_samples_must_be_finite_numbers(self, samples):
        with pytest.raises(ValueError) as caught:
            EmpiricalNoise(samples)
        assert str(caught.value) == "EmpiricalNoise samples must be a list of finite numbers"


class TestBoundedDelay:
    def test_mean_near_half(self):
        # Scaled lognormal censored at 5.5: mean ~0.4959, so ~0.5 within 2%.
        spec = simulated_delay_noise()
        assert spec.mean() == pytest.approx(0.5, rel=0.02)
        assert spec.mean() == pytest.approx(0.4959, abs=5e-4)
        assert spec.variance() == pytest.approx(0.365, abs=5e-3)

    def test_mc_against_censored_quadrature(self):
        spec = simulated_delay_noise()
        x = _draws(spec)
        assert np.mean(x) == pytest.approx(spec.mean(), rel=0.01)
        assert np.var(x) == pytest.approx(spec.variance(), rel=0.01)

    @pytest.mark.parametrize("spec", [_DELAY] + [
        BoundedLogNormalNoise(log_mean, log_std, divisor, factor * math.exp(log_mean) / divisor)
        for log_mean, log_std, divisor in [(4.0, 1.0, 2.0 * math.exp(4.5)), (-1.0, 0.3, 1.0),
                                           (2.0, 2.5, 10.0)]
        for factor in (1e-3, 1.0, 1e3)], ids=repr)
    def test_moments_match_quadrature(self, spec):
        # The closed form against quadrature over z = (ln x - mu) / s below
        # the bound plus scipy's normal tail above it.
        mu = spec.log_mean - math.log(spec.scale_divisor)
        s = spec.log_std
        z = (math.log(spec.bound) - mu) / s
        tail = stats.norm.sf(z)

        def oracle(k):
            body, _ = integrate.quad(lambda t: math.exp(k * (mu + s * t)) * stats.norm.pdf(t),
                                     -np.inf, z, epsabs=0.0, epsrel=1e-13, limit=200)
            return body + spec.bound**k * tail

        for k in (1, 2):
            assert spec._censored_moment(k) == pytest.approx(oracle(k), rel=1e-9, abs=0.0)
        assert spec.mean() == spec._censored_moment(1)
        if spec is _DELAY:
            assert spec.variance() == pytest.approx(oracle(2) - oracle(1) ** 2, rel=1e-9)

    @pytest.mark.parametrize("factor", [1e-3, 1e-2, 0.5, 2.0, 1e3])
    @pytest.mark.parametrize("log_mean, log_std, divisor", [
        (4.0, 1.0, 2.0 * math.exp(4.5)), (-1.0, 0.3, 1.0), (0.5, 0.8, 3.0)])
    def test_variance_against_mpmath(self, log_mean, log_std, divisor, factor):
        # The closed form at 400 digits, where m2 - m1^2 keeps every digit
        # it needs even with nearly all the mass at the bound.
        spec = BoundedLogNormalNoise(log_mean, log_std, divisor,
                                     factor * math.exp(log_mean) / divisor)
        with mpmath.workdps(400):
            mu = mpmath.mpf(log_mean) - mpmath.log(divisor)
            b = mpmath.mpf(spec.bound)
            z = (mpmath.log(b) - mu) / log_std
            m1, m2 = (mpmath.exp(k * mu + (k * log_std) ** 2 / 2) * mpmath.ncdf(z - k * log_std)
                      + b**k * mpmath.ncdf(-z) for k in (1, 2))
            want = float(m2 - m1 * m1)
        assert spec.variance() == pytest.approx(want, rel=1e-9, abs=0.0)
        if factor > 1.0:  # above the median: m2 - m1^2, bit for bit
            m1 = spec._censored_moment(1)
            assert spec.variance() == spec._censored_moment(2) - m1 * m1

    @pytest.mark.parametrize("log_mean, log_std, divisor", [
        (4.0, 1.0, 2.0 * math.exp(4.5)), (-1.0, 0.3, 1.0), (0.5, 0.8, 3.0)])
    def test_far_bound_gives_the_lognormal_moments(self, log_mean, log_std, divisor):
        median = math.exp(log_mean) / divisor
        spec = BoundedLogNormalNoise(log_mean, log_std, divisor, 1e6 * median)
        free = LogNormalNoise(log_mean - math.log(divisor), log_std)
        assert spec.mean() == pytest.approx(free.mean(), rel=1e-12, abs=0.0)
        assert spec.variance() == pytest.approx(free.variance(), rel=1e-12, abs=0.0)

    def test_draws_respect_bound(self):
        spec = simulated_delay_noise()
        x = _draws(spec, n=200_000)
        assert np.max(x) <= 5.5
        assert np.min(x) >= 0.0
        # The censoring point carries positive mass.
        assert np.mean(x == 5.5) > 0.001


class TestWorkerLatencyModel:
    def test_noiseless_exact(self):
        model = WorkerLatencyModel(0.45, NoNoise())
        assert model.sample(RngStream(0).generator(), 1)[0] == 0.45
        assert model.moments() == (0.45, 0.0)

    def test_gamma_example_total_mean(self):
        # Gamma(shape 1, rate 4.5) on a 0.45 s base: total mean 0.675 +- 0.003.
        # The band holds for the model mean (0.45 + 1/4.5 = 0.6722); the MC
        # estimate is tied to the model mean at 4 standard errors.
        model = WorkerLatencyModel(0.45, GammaNoise(1.0, 4.5))
        mu, var = model.moments()
        assert abs(mu - 0.675) <= 0.003
        n = 400_000
        x = model.sample(RngStream(5).generator(), n)
        assert abs(np.mean(x) - mu) <= 4.0 * math.sqrt(var / n)

    def test_scaled_mode_multiplies_by_base(self):
        spec = simulated_delay_noise()
        model = WorkerLatencyModel(2.0, spec, noise_mode="additive_scaled_by_mean")
        mu, var = model.moments()
        assert mu == pytest.approx(2.0 * (1.0 + spec.mean()))
        assert var == pytest.approx(4.0 * spec.variance())
        x = model.sample(RngStream(6).generator(), 400_000)
        assert np.mean(x) == pytest.approx(mu, rel=0.02)
        assert np.max(x) <= 2.0 * 6.5

    def test_heavy_tail_mean_is_one_and_a_half_base(self):
        model = WorkerLatencyModel(1.0, simulated_delay_noise(), noise_mode="additive_scaled_by_mean")
        x = model.sample(RngStream(7).generator(), N_DRAWS)
        assert np.mean(x) == pytest.approx(1.5, rel=0.02)
        assert np.max(x) <= 6.5

    @pytest.mark.parametrize(
        "spec",
        FAMILIES + [simulated_delay_noise()],
        ids=lambda s: type(s).__name__,
    )
    def test_model_mc_matches_moments(self, spec):
        model = WorkerLatencyModel(0.45, spec)
        mu, var = model.moments()
        x = model.sample(RngStream(8).generator(), N_DRAWS)
        assert np.mean(x) == pytest.approx(mu, rel=0.01)
        if var > 0:
            assert np.var(x) == pytest.approx(var, rel=0.01)

    def test_positivity_floor(self):
        # A wildly negative noise cannot drive latency to zero or below.
        model = WorkerLatencyModel(1.0, NormalNoise(-5.0, 0.1))
        x = model.sample(RngStream(9).generator(), 10_000)
        assert np.min(x) >= POSITIVE_FLOOR_FRACTION * 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerLatencyModel(0.0, NoNoise())
        with pytest.raises(ValueError):
            WorkerLatencyModel(1.0, NoNoise(), noise_mode="bogus")


class TestFleetSpec:
    def test_homogeneous(self):
        model = WorkerLatencyModel(1.0, NoNoise())
        fleet = FleetSpec.homogeneous(4, model)
        assert fleet.n == 4
        assert fleet.is_homogeneous
        assert all(w == model for w in fleet.workers)

    def test_heterogeneous(self):
        fast = WorkerLatencyModel(1.0, NoNoise())
        slow = WorkerLatencyModel(2.0, NoNoise())
        fleet = FleetSpec((slow, fast, fast))
        assert fleet.n == 3
        assert not fleet.is_homogeneous

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(())

    @pytest.mark.parametrize("n", [0, -3])
    def test_homogeneous_of_no_workers_rejected(self, n):
        with pytest.raises(ValueError) as caught:
            FleetSpec.homogeneous(n, WorkerLatencyModel(1.0, NoNoise()))
        assert str(caught.value) == "fleet needs at least one worker"


def _from_trace(samples):
    """A model of recorded times: its base is their mean, its noise resamples
    their deviations from it."""
    arr = np.asarray(samples, dtype=float)
    base = float(arr.mean())
    return WorkerLatencyModel(base, EmpiricalNoise(tuple(arr - base)))


class TestFromTrace:
    def test_constant_trace(self):
        model = _from_trace([0.45, 0.45, 0.45])
        assert model.moments()[0] == pytest.approx(0.45)
        x = model.sample(RngStream(10).generator(), 1000)
        assert np.all(np.abs(x - 0.45) < 1e-12)

    def test_two_point_trace_mean(self):
        model = _from_trace([0.4, 0.5])
        x = model.sample(RngStream(11).generator(), N_DRAWS)
        assert abs(np.mean(x) - 0.45) <= 0.001
        assert set(np.round(np.unique(x), 12)) == {0.4, 0.5}

    def test_bootstrap_matches_sample_moments(self):
        gen = RngStream(12).generator()
        samples = 0.3 + gen.gamma(2.0, 0.1, size=5000)
        model = _from_trace(samples)
        mu, var = model.moments()
        assert mu == pytest.approx(float(np.mean(samples)), rel=1e-12)
        assert var == pytest.approx(float(np.var(samples)), rel=1e-9)

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=50))
    @settings(max_examples=50, derandomize=True)
    def test_resampling_stays_in_range(self, samples):
        model = _from_trace(samples)
        x = model.sample(RngStream(13).generator(), 256)
        assert np.min(x) >= min(samples) - 1e-9
        assert np.max(x) <= max(samples) + 1e-9


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        gen = RngStream(14).generator()
        tensor = 0.1 + gen.random((3, 4, 5))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, tensor)
        back = read_trace_csv(path)
        assert back.shape == (3, 4, 5)
        assert np.array_equal(back, tensor)

    def test_round_trip_with_comment(self, tmp_path):
        tensor = np.full((1, 2, 2), 0.45)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, tensor, comment="config_hash=abc")
        assert read_trace_csv(path).shape == (1, 2, 2)

    @given(st.tuples(*[st.integers(min_value=1, max_value=3)] * 3), st.data(),
           st.one_of(st.none(), st.text(st.characters(min_codepoint=32, max_codepoint=126),
                                        min_size=1, max_size=12)))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_round_trip_bit_identical(self, shape, data, comment):
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        values = data.draw(st.lists(positive, min_size=math.prod(shape),
                                    max_size=math.prod(shape)))
        tensor = np.reshape(values, shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace_csv(path, tensor, comment=comment)
            back = read_trace_csv(path)
        assert back.shape == shape
        assert np.array_equal(back.view(np.uint64), tensor.view(np.uint64))

    @pytest.mark.parametrize("body, message", [
        pytest.param("0,0,0,0.5\n-1,0,1,0.5\n",
                     ":3: iteration ids must run 0..K-1 without gaps, got -1", id="negative-id"),
        pytest.param("0,0,0,0.5\n0,0,1,0.5\n1000000000000000,0,0,0.5\n",
                     ":4: iteration ids must run", id="huge-id"),
        pytest.param("0,0,0,0.5\n\n# note\n0,0,0,0.25\n",
                     ":5: duplicate iteration=0, worker=0, micro_batch=0", id="duplicate"),
        pytest.param("0,0,0,0.5\n0,0,1,nan\n", ":3: latency must be finite and > 0",
                     id="nan-latency"),
        pytest.param("0,0,0,0.5\n \n", ":3: expected iteration,worker,micro_batch",
                     id="whitespace-line"),
        pytest.param("# only a comment\n", ": no data rows", id="no-rows"),
    ])
    def test_rejected_rows_name_their_line(self, tmp_path, body, message):
        path = tmp_path / "trace.csv"
        path.write_text("iteration,worker,micro_batch,latency_seconds\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}"):
            read_trace_csv(path)

    @pytest.mark.parametrize("body, message", [
        pytest.param("0,0.5\n1,0.5\n0,0.5\n", ":4: duplicate iteration=0", id="duplicate"),
        pytest.param("0,0.5\n1,inf\n", ":3: T_c must be finite and >= 0", id="inf"),
        pytest.param("1,0.5\n", ":2: iteration ids must run", id="gap"),
    ])
    def test_comm_rejected_rows_name_their_line(self, tmp_path, body, message):
        path = tmp_path / "comm.csv"
        path.write_text("iteration,T_c_seconds\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}"):
            read_comm_csv(path)

    def test_comm_rows_in_any_order(self, tmp_path):
        path = tmp_path / "comm.csv"
        path.write_text("iteration,T_c_seconds\n1,0.25\n0,0.5\n")
        assert np.array_equal(read_comm_csv(path), [0.5, 0.25])

    def test_rejects_nonpositive_entries(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "iteration,worker,micro_batch,latency_seconds\n0,0,0,0.5\n0,0,1,-0.1\n"
        )
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_rejects_ragged_tensor(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "iteration,worker,micro_batch,latency_seconds\n"
            "0,0,0,0.5\n0,0,1,0.5\n0,1,0,0.5\n"
        )
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c,d\n0,0,0,0.5\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_comm_round_trip(self, tmp_path):
        path = tmp_path / "comm.csv"
        write_comm_csv(path, [0.5, 0.25, 0.125])
        assert np.array_equal(read_comm_csv(path), [0.5, 0.25, 0.125])

    def test_comm_rejects_negative(self, tmp_path):
        path = tmp_path / "comm.csv"
        path.write_text("iteration,T_c_seconds\n0,-0.5\n")
        with pytest.raises(ValueError):
            read_comm_csv(path)
