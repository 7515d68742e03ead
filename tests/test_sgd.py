"""Stochastic-batch SGD testbed checks: exact noiseless descent, weighted
update identities, gradient-sampler unbiasedness and variance, both
convergence bounds with their step sizes, compensation arithmetic, and the
learning-rate corrections."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize
from scipy import stats as sps

import dropsim as ds
from dropsim import sgd, simulate
from dropsim.sgd import (
    _logistic_hessian,
    convex_bound_rhs,
    nonconvex_bound_rhs,
    run_many,
)

# perfbench's sgd-verify nonconvex problem at workload seed 1.
_PERFBENCH_NONCONVEX = {"sin_amplitude": 0.05, "seed": 30212171}


def _run_python(code: str, **env) -> str:
    src = Path(ds.__file__).resolve().parents[1]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def _bern(b_max=100, p=0.1, n_workers=10):
    kind = "per_worker_bernoulli" if p > 0 else "none"
    return ds.BatchSchedule(b_max, kind=kind, n_workers=n_workers, p_drop=p)


class TestProblems:
    def test_quadratic_constants(self):
        prob = ds.SgdProblem.quadratic(dimension=10, smoothness=1.0, sigma=1.0, distance=10.0)
        assert prob.smoothness == 1.0
        assert float(np.linalg.norm(prob.theta1 - prob.theta_star)) == pytest.approx(10.0)
        assert prob.loss(prob.theta_star) == 0.0
        assert np.max(prob.curvature) == pytest.approx(1.0)
        assert np.min(prob.curvature) == pytest.approx(0.1)

    def test_quadratic_loss_grad_consistency(self):
        prob = ds.SgdProblem.quadratic(dimension=4)
        theta = np.array([1.0, -2.0, 0.5, 3.0])
        g = prob.grad(theta)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            num = (prob.loss(theta + e) - prob.loss(theta - e)) / (2 * h)
            assert g[j] == pytest.approx(num, rel=1e-5)

    def test_logistic_loss_grad_consistency(self):
        prob = ds.SgdProblem.logistic_synthetic(dimension=6, n_samples=128, sin_amplitude=0.05)
        gen = ds.RngStream(3).generator()
        theta = gen.standard_normal(6)
        g = prob.grad(theta)
        h = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            num = (prob.loss(theta + e) - prob.loss(theta - e)) / (2 * h)
            assert g[j] == pytest.approx(num, rel=1e-4, abs=1e-8)

    def test_logistic_optimum_is_stationary(self):
        prob = ds.SgdProblem.logistic_synthetic()
        assert float(np.linalg.norm(prob.grad(prob.theta_star))) < 1e-6
        assert prob.loss(prob.theta1) > prob.loss_star

    def test_logistic_smoothness_dominates_hessian(self):
        # L is the top Hessian eigenvalue at theta1, the global
        # data-curvature peak; random probe Hessians must not exceed it.
        prob = ds.SgdProblem.logistic_synthetic(dimension=5, n_samples=64)
        gen = ds.RngStream(4).generator()
        x, y = prob.data_x, prob.data_y
        for _ in range(10):
            theta = gen.standard_normal(5)
            s = 1.0 / (1.0 + np.exp(-(x @ theta)))
            w = s * (1 - s)
            hess = (x.T * w) @ x / x.shape[0] + prob.l2_reg * np.eye(5)
            top = float(np.linalg.eigvalsh(hess)[-1])
            assert top <= prob.smoothness + 1e-9

    @pytest.mark.parametrize("seed", [7, 177, 195])
    def test_logistic_smoothness_is_the_top_hessian_eigenvalue(self, seed):
        # A smoothness below the top eigenvalue makes the theorem step size
        # too large and the bound too small; 200 power-iteration steps left
        # seed 195 1.5% low.
        prob = ds.SgdProblem.logistic_synthetic(seed=seed, sin_amplitude=0.05)
        top = float(np.linalg.eigvalsh(_logistic_hessian(prob, prob.theta1))[-1])
        assert prob.smoothness == pytest.approx(top + 0.05, rel=1e-12)

    def test_staged_mismatch_keeps_declared_sigma(self):
        # A staged mismatch keeps the declared sigma (used by bounds and step
        # sizes); the sampler injects actual_sigma, see TestGradSum.
        prob = ds.SgdProblem.quadratic(sigma=1.0, actual_sigma=10.0)
        assert prob.sigma == 1.0
        assert prob.actual_sigma == 10.0

    def test_negative_actual_sigma_rejected(self):
        # grad_sum would inject noise of scale |actual_sigma|.
        with pytest.raises(ValueError, match="actual_sigma"):
            ds.SgdProblem.quadratic(sigma=1.0, actual_sigma=-10.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["smoothness", "sigma", "distance", "actual_sigma"])
    def test_quadratic_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ds.SgdProblem.quadratic(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["l2_reg", "sin_amplitude"])
    def test_logistic_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ds.SgdProblem.logistic_synthetic(**{field: value})

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("prob", [
        ds.SgdProblem.quadratic(dimension=3),
        ds.SgdProblem.logistic_synthetic(dimension=3, n_samples=32, sin_amplitude=0.05),
    ], ids=["quadratic", "logistic"])
    def test_loss_shape_follows_the_input_ndim(self, prob, rows):
        # A one-row stack is a stack: its loss is a (1,) array, as its grad is (1, d).
        stack = prob.theta1 + np.arange(rows * 3).reshape(rows, 3) / 7.0
        losses = prob.loss(stack)
        assert isinstance(losses, np.ndarray) and losses.shape == (rows,)
        assert prob.grad(stack).shape == (rows, 3)
        per_row = [prob.loss(row) for row in stack]
        assert all(type(v) is float for v in per_row)
        if prob.kind == "quadratic" or rows == 1:
            assert losses.tolist() == per_row
        else:
            # A BLAS may sum the rows of a larger product in another order.
            assert losses.tolist() == pytest.approx(per_row, rel=1e-14)

    def test_one_dimensional_curvature_is_the_smoothness(self):
        assert ds.SgdProblem.quadratic(dimension=1, smoothness=2.0).curvature.tolist() == [2.0]

    @pytest.mark.parametrize("dimension", [1, 2, 10])
    def test_top_curvature_is_the_smoothness(self, dimension):
        prob = ds.SgdProblem.quadratic(dimension=dimension, smoothness=0.7)
        assert prob.curvature[-1] == 0.7
        assert prob.curvature.shape == (dimension,)

    def test_per_sample_gradients_need_a_dataset(self):
        prob = ds.SgdProblem.quadratic()
        with pytest.raises(ValueError, match="^per-sample enumeration applies to dataset losses$"):
            prob._per_sample_grads(prob.theta1)


# (dimension, n_samples, seed) x (sin_amplitude, l2_reg). The problem is
# convex where sin_amplitude <= l2_reg; the last three pairs are not.
_ORACLE_DATA = [(10, 512, 7), (5, 96, 4), (3, 32, 11), (10, 512, 30212171)]
_ORACLE_LANDSCAPES = [(0.0, 0.1), (0.05, 0.1), (0.1, 0.1), (1.0, 0.1), (3.0, 0.01),
                      (0.05, 1e-8)]


class TestLogisticOptimum:
    """The Newton optimum against scipy's L-BFGS-B, the optimizer it replaced."""

    @pytest.mark.parametrize("amplitude,l2_reg", _ORACLE_LANDSCAPES)
    @pytest.mark.parametrize("dimension,n_samples,seed", _ORACLE_DATA)
    def test_against_lbfgsb(self, dimension, n_samples, seed, amplitude, l2_reg):
        prob = ds.SgdProblem.logistic_synthetic(dimension, n_samples, l2_reg, amplitude, seed)
        res = optimize.minimize(prob.loss, prob.theta1, jac=prob.grad, method="L-BFGS-B",
                                options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-12})
        oracle_loss = float(prob.loss(res.x))
        g_norm = float(np.linalg.norm(prob.grad(prob.theta_star)))
        assert g_norm <= max(1e-12, float(np.linalg.norm(prob.grad(res.x))))
        assert np.linalg.eigvalsh(_logistic_hessian(prob, prob.theta_star))[0] >= 0.0
        assert prob.loss_star <= prob.loss(prob.theta1)
        if amplitude <= l2_reg:
            assert prob.loss_star <= oracle_loss + 4 * np.spacing(abs(oracle_loss))
            assert np.max(np.abs(prob.theta_star - res.x)) <= 1e-7

    def test_halved_newton_steps_reach_the_minimum(self):
        # Backtracking halves a step 8 times on the way; a solve that never
        # halves stops at a gradient norm of 0.83, where the Hessian is
        # indefinite.
        prob = ds.SgdProblem.logistic_synthetic(dimension=4, n_samples=64, l2_reg=0.01,
                                                sin_amplitude=0.5, seed=3)
        assert float(np.linalg.norm(prob.grad(prob.theta_star))) <= 1e-12
        assert np.linalg.eigvalsh(_logistic_hessian(prob, prob.theta_star))[0] > 0.0

    def test_hessian_matches_gradient_differences(self):
        prob = ds.SgdProblem.logistic_synthetic(dimension=4, n_samples=64,
                                                sin_amplitude=1.0, seed=5)
        theta = ds.RngStream(6).generator().standard_normal(4)
        h = 1e-6
        numeric = np.array([(prob.grad(theta + h * e) - prob.grad(theta - h * e)) / (2 * h)
                            for e in np.eye(4)])
        assert np.allclose(_logistic_hessian(prob, theta), numeric, rtol=1e-6, atol=1e-8)

    def test_build_leaves_scipy_optimize_unloaded(self):
        # Importing scipy.optimize costs about 49 MB of RSS and 0.4 s.
        out = _run_python("import sys, dropsim\n"
                          "dropsim.SgdProblem.logistic_synthetic()\n"
                          "print('scipy.optimize' in sys.modules)\n")
        assert out == "False\n"

    def test_bit_identical_at_any_blas_thread_count(self):
        code = ("import dropsim\n"
                f"for kw in ({{}}, {_PERFBENCH_NONCONVEX!r}):\n"
                "    p = dropsim.SgdProblem.logistic_synthetic(**kw)\n"
                "    print(p.theta_star.tobytes().hex(), repr(p.loss_star), repr(p.sigma),\n"
                "          repr(p.smoothness))\n")
        one, two = (_run_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert len(one.splitlines()) == 2
        assert one == two


class TestGradSum:
    def test_unbiased_quadratic(self):
        # Frozen point, 10^5 draws: mean of D - b * grad is 0 within 4 SE.
        prob = ds.SgdProblem.quadratic()
        r, b = 100_000, 8
        theta = np.tile(prob.theta1, (r, 1))
        gen = ds.RngStream(21).generator()
        d_sum = prob.grad_sum(theta, np.full(r, b), gen)
        dev = d_sum - b * prob.grad(theta)
        se = np.std(dev, axis=0, ddof=1) / math.sqrt(r)
        assert np.all(np.abs(dev.mean(axis=0)) <= 4.0 * se)

    def test_unbiased_logistic(self):
        prob = ds.SgdProblem.logistic_synthetic()
        r, b = 100_000, 4
        point = prob.theta_star + 0.3
        theta = np.tile(point, (r, 1))
        gen = ds.RngStream(22).generator()
        d_sum = prob.grad_sum(theta, np.full(r, b), gen)
        dev = d_sum - b * prob.grad(point)
        se = np.std(dev, axis=0, ddof=1) / math.sqrt(r)
        assert np.all(np.abs(dev.mean(axis=0)) <= 4.0 * se)

    def test_variance_matches_declared_sigma(self):
        # Per-sample second moment within 2% at 10^6 draws: sigma^2, or
        # actual_sigma^2 when a mismatch is staged.
        r = 1_000_000
        for actual_sigma, target in ((None, 1.0), (10.0, 100.0)):
            prob = ds.SgdProblem.quadratic(sigma=1.0, actual_sigma=actual_sigma)
            theta = np.tile(prob.theta1, (r, 1))
            gen = ds.RngStream(23).generator()
            d_sum = prob.grad_sum(theta, np.ones(r, dtype=int), gen)
            dev = d_sum - prob.grad(theta)
            measured = float(np.mean(np.sum(dev**2, axis=1)))
            assert measured == pytest.approx(target, rel=0.02), actual_sigma

    def test_logistic_sigma_covers_sampler(self):
        # Declared sigma bounds the measured per-sample deviation at probes.
        # The exact gradient is taken once per point and broadcast; measured
        # keeps the bits of subtracting it row by row.
        prob = ds.SgdProblem.logistic_synthetic()
        r = 200_000
        for point, bits in ((prob.theta1, 2.4174490511458453),
                            (prob.theta_star, 0.9350507138233233)):
            theta = np.tile(point, (r, 1))
            gen = ds.RngStream(24).generator()
            d_sum = prob.grad_sum(theta, np.ones(r, dtype=int), gen)
            dev = d_sum - prob.grad(point)
            measured = float(np.mean(np.sum(dev**2, axis=1)))
            assert measured == bits
            assert measured <= prob.sigma**2 * 1.05

    def test_zero_batch_rows_contribute_nothing(self):
        prob = ds.SgdProblem.logistic_synthetic()
        theta = np.tile(prob.theta1, (4, 1))
        gen = ds.RngStream(25).generator()
        out = prob.grad_sum(theta, np.array([0, 2, 0, 1]), gen)
        assert np.all(out[0] == 0.0)
        assert np.all(out[2] == 0.0)
        assert np.any(out[1] != 0.0)


class TestBatchSchedule:
    def test_none_is_constant(self):
        sched = ds.BatchSchedule(64)
        gen = ds.RngStream(0).generator()
        assert np.all(sched.draw(0, 5, gen, ds.RngStream(0)) == 64)

    def test_bernoulli_mean_keep_rate(self):
        sched = _bern(b_max=100, p=0.2, n_workers=10)
        gen = ds.RngStream(1).generator()
        draws = np.concatenate([sched.draw(s, 1000, gen, ds.RngStream(1)) for s in range(20)])
        assert float(draws.mean()) == pytest.approx(80.0, rel=0.01)
        assert set(np.unique(draws)) <= {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

    def test_timing_driven_deterministic_case(self):
        fleet = ds.FleetSpec.homogeneous(2, ds.WorkerLatencyModel(0.45, ds.NoNoise()))
        sim = ds.SimConfig(fleet, 2, tau=0.7)
        sched = ds.BatchSchedule(8, kind="timing_driven", sim=sim)
        gen = ds.RngStream(2).generator()
        # 0.45 < 0.7 <= 0.9: each worker keeps 1 of 2 micro-batches of 2.
        assert np.all(sched.draw(0, 4, gen, ds.RngStream(2)) == 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ds.BatchSchedule(0)
        with pytest.raises(ValueError):
            ds.BatchSchedule(100, kind="bogus")
        with pytest.raises(ValueError):
            ds.BatchSchedule(100, kind="per_worker_bernoulli", n_workers=3, p_drop=0.1)
        with pytest.raises(ValueError):
            ds.BatchSchedule(100, kind="per_worker_bernoulli", n_workers=10, p_drop=1.0)
        with pytest.raises(ValueError):
            ds.BatchSchedule(100, kind="timing_driven")

    def test_timing_driven_b_max_fills_whole_micro_batches(self):
        fleet = ds.FleetSpec.homogeneous(2, ds.WorkerLatencyModel(0.45, ds.NoNoise()))
        with pytest.raises(ValueError, match="^b_max must be a multiple of N \\* M micro-batches$"):
            ds.BatchSchedule(10, kind="timing_driven", sim=ds.SimConfig(fleet, 2, tau=0.7))


class TestRunMechanics:
    def test_noiseless_descent_contracts_exactly(self):
        # sigma = 0, no drops, manual rate: plain gradient descent; each
        # coordinate contracts by |1 - eta * lambda| per step.
        prob = ds.SgdProblem.quadratic(dimension=6, sigma=0.0, distance=5.0)
        eta = 0.5
        steps = 40
        sched = ds.BatchSchedule(10)
        res = run_many(prob, sched, 10 * steps, eta_mode=eta, rng=ds.RngStream(1),
                       n_runs=1)
        expected = prob.theta_star + (prob.theta1 - prob.theta_star) * (1 - eta * prob.curvature) ** steps
        assert res["steps"] == steps
        assert np.allclose(res["theta_final"][0], expected, rtol=0, atol=1e-12)

    def test_realized_k_is_exact(self):
        # The last batch is clipped so sum(alpha) = K even mid-step.
        prob = ds.SgdProblem.quadratic()
        for k in (100, 150, 1999, 20_000):
            res, _, weights = _run_with_history(prob, _bern(p=0.3), k, "convex_theorem",
                                                "fixed_bmax", ds.RngStream(2), 1)
            assert float(res["realized_k"][0]) == k
            assert float(weights[0].sum()) == k

    def test_weighted_average_identity(self):
        prob = ds.SgdProblem.quadratic()
        res, iterates, weights = _run_with_history(prob, _bern(p=0.2), 5000, "convex_theorem",
                                                   "fixed_bmax", ds.RngStream(3), 1)
        w = weights[0]
        assert float((w / w.sum()).sum()) == pytest.approx(1.0, abs=1e-12)
        manual = (w[:, None] * iterates[0]).sum(axis=0) / w.sum()
        assert np.allclose(res["theta_bar"][0], manual, atol=1e-12)

    def test_sampled_iterate_is_an_iterate(self):
        prob = ds.SgdProblem.quadratic()
        res, iterates, _ = _run_with_history(prob, _bern(p=0.2), 3000, "convex_theorem",
                                             "fixed_bmax", ds.RngStream(4), 1)
        matches = np.all(iterates[0] == res["theta_sampled"][0][None, :], axis=1)
        assert matches.any()

    def test_sampling_frequency_proportional_to_weight(self):
        # Two-step schedule with known weights: first step keeps the full
        # batch, second is clipped to half, so picks split 2:1. The first
        # iterate is theta1.
        prob = ds.SgdProblem.quadratic(sigma=0.0)
        sched = ds.BatchSchedule(100)
        res = run_many(prob, sched, 150, eta_mode=0.01, rng=ds.RngStream(5), n_runs=4000)
        first = np.all(res["theta_sampled"] == prob.theta1, axis=1)
        assert float(first.mean()) == pytest.approx(100.0 / 150.0, abs=0.02)

    def test_determinism(self):
        prob = ds.SgdProblem.quadratic()
        a = run_many(prob, _bern(p=0.1), 10_000, rng=ds.RngStream(6), n_runs=3)
        b = run_many(prob, _bern(p=0.1), 10_000, rng=ds.RngStream(6), n_runs=3)
        assert np.array_equal(a["theta_final"], b["theta_final"])
        assert np.array_equal(a["theta_sampled"], b["theta_sampled"])

    def test_k_smaller_than_bmax_rejected(self):
        prob = ds.SgdProblem.quadratic()
        with pytest.raises(ValueError):
            run_many(prob, ds.BatchSchedule(100), 50)

    def test_fractional_k_or_no_runs_rejected(self):
        # Batches sum to exactly K, so K must be whole; before this check a
        # K of 1000.5 stepped with empty batches up to the step budget.
        prob = ds.SgdProblem.quadratic()
        with pytest.raises(ValueError, match="whole number"):
            run_many(prob, ds.BatchSchedule(100), 1000.5)
        with pytest.raises(ValueError, match="n_runs"):
            run_many(prob, ds.BatchSchedule(100), 1000, n_runs=0)

    def test_eta_mode_validation(self):
        prob = ds.SgdProblem.quadratic()
        with pytest.raises(ValueError):
            run_many(prob, ds.BatchSchedule(100), 1000, eta_mode="bogus")
        with pytest.raises(ValueError):
            run_many(prob, ds.BatchSchedule(100), 1000, normalization="bogus")


class TestStepSizes:
    def test_convex_formula(self):
        prob = ds.SgdProblem.quadratic()
        sched = ds.BatchSchedule(100)
        k = 100_000
        expected = min(10.0 / (1.0 * math.sqrt(8 * k)), 1.0 / (8 * 1.0 * 100))
        assert ds.theorem_step_size(prob, sched, k, "convex_theorem") == pytest.approx(expected, rel=1e-12)

    def test_nonconvex_formula(self):
        prob = ds.SgdProblem.logistic_synthetic()
        sched = ds.BatchSchedule(100)
        k = 100_000
        gap = prob.loss(prob.theta1) - prob.loss_star
        expected = min(
            math.sqrt(gap) / (prob.sigma * math.sqrt(prob.smoothness * k)),
            1.0 / (2 * prob.smoothness * 100),
        )
        assert ds.theorem_step_size(prob, sched, k, "nonconvex_theorem") == pytest.approx(expected, rel=1e-12)

    def test_sigma_zero_uses_cap(self):
        prob = ds.SgdProblem.quadratic(sigma=0.0)
        sched = ds.BatchSchedule(50)
        assert ds.theorem_step_size(prob, sched, 1000, "convex_theorem") == 1.0 / (8 * 50)

    def test_unknown_mode_rejected(self):
        prob = ds.SgdProblem.quadratic()
        with pytest.raises(ValueError, match="^unknown step-size mode 'bogus'$"):
            ds.theorem_step_size(prob, ds.BatchSchedule(100), 1000, "bogus")


class TestConvexBound:
    @pytest.mark.parametrize("sin_amplitude", [0.5, 0.0])
    def test_needs_the_quadratic_problem(self, sin_amplitude):
        # Refused before anything runs: a k_total below b_max, which run_many
        # would reject, does not come first.
        prob = ds.SgdProblem.logistic_synthetic(dimension=3, n_samples=32,
                                                sin_amplitude=sin_amplitude)
        for k_total in (1000, 5):
            with pytest.raises(ValueError,
                               match="^the convex bound check needs the quadratic problem$"):
                ds.verify_convex_bound(prob, ds.BatchSchedule(10), k_total, seeds=2)

    def test_noiseless_trivial(self):
        prob = ds.SgdProblem.quadratic(sigma=0.0)
        rep = ds.verify_convex_bound(prob, ds.BatchSchedule(100), 10_000, seeds=3, seed=1)
        assert rep.passed
        assert rep.empirical < 0.2 * rep.bound
        # No noise: every seed lands on the same trajectory.
        assert len(set(rep.per_seed)) == 1

    def test_grid_of_drop_rates_and_budgets(self):
        prob = ds.SgdProblem.quadratic()
        for p in (0.0, 0.05, 0.1, 0.2):
            for k in (10_000, 100_000):
                rep = ds.verify_convex_bound(prob, _bern(p=p), k, seeds=25, seed=11)
                assert rep.passed, (p, k, rep.empirical, rep.bound)

    def test_halved_step_size_still_passes(self):
        # The guarantee is not tight; half the analyzed rate stays under it.
        prob = ds.SgdProblem.quadratic()
        sched = _bern(p=0.1)
        k = 50_000
        eta_half = ds.theorem_step_size(prob, sched, k, "convex_theorem") / 2.0
        res = run_many(prob, sched, k, eta_mode=eta_half * sched.b_max,
                       rng=ds.RngStream(7), n_runs=40)
        emp = float(np.mean(prob.loss(res["theta_bar"]) - prob.loss_star))
        assert emp <= convex_bound_rhs(prob, sched, k)

    def test_suboptimality_slope_in_sqrt_k_regime(self):
        # Noise-dominated configuration: the sigma branch of the step size
        # binds across the whole K range, giving the 1/sqrt(K)-to-1/K band.
        prob = ds.SgdProblem.quadratic(sigma=10.0)
        sched = ds.BatchSchedule(10, kind="per_worker_bernoulli", n_workers=5, p_drop=0.1)
        ks = [1000, 10_000, 100_000, 1_000_000]
        emp = []
        for k in ks:
            cap = 1.0 / (8 * prob.smoothness * sched.b_max)
            assert ds.theorem_step_size(prob, sched, k, "convex_theorem") < cap
            rep = ds.verify_convex_bound(prob, sched, k, seeds=30, seed=11)
            assert rep.passed
            emp.append(rep.empirical)
        slope = float(np.polyfit(np.log(ks), np.log(emp), 1)[0])
        assert -1.1 <= slope <= -0.4
        assert all(a > b for a, b in zip(emp, emp[1:]))

    def test_staged_sigma_mismatch_slips_past_convex_check(self):
        # The averaged iterate suppresses a 10x noise mismatch; the sampled
        # iterate check is the one that exposes it (see nonconvex test).
        prob = ds.SgdProblem.quadratic(sigma=1.0, actual_sigma=10.0)
        rep = ds.verify_convex_bound(prob, _bern(p=0.1), 100_000, seeds=10, seed=3)
        assert rep.passed


class TestNonconvexBound:
    def test_noiseless_trivial(self):
        prob = ds.SgdProblem.quadratic(sigma=0.0)
        rep = ds.verify_nonconvex_bound(prob, ds.BatchSchedule(100), 50_000, seeds=3, seed=1)
        assert rep.passed

    def test_grid_on_smooth_nonconvex_problem(self):
        prob = ds.SgdProblem.logistic_synthetic(sin_amplitude=0.05)
        for p in (0.0, 0.05, 0.1, 0.2):
            for k in (10_000, 100_000):
                rep = ds.verify_nonconvex_bound(prob, _bern(p=p), k, seeds=60, seed=11)
                assert rep.passed, (p, k, rep.empirical, rep.bound)

    def test_bmax_scaling_of_first_term(self):
        prob = ds.SgdProblem.logistic_synthetic(sin_amplitude=0.05)
        k = 100_000
        b1 = ds.BatchSchedule(100, kind="per_worker_bernoulli", n_workers=10, p_drop=0.1)
        b4 = ds.BatchSchedule(400, kind="per_worker_bernoulli", n_workers=10, p_drop=0.1)
        gap = prob.loss(prob.theta1) - prob.loss_star
        first1 = 2 * prob.smoothness * 100 * gap / k
        first4 = 2 * prob.smoothness * 400 * gap / k
        assert first4 == pytest.approx(4 * first1, rel=1e-12)
        assert nonconvex_bound_rhs(prob, b4, k) - nonconvex_bound_rhs(prob, b1, k) == pytest.approx(
            first4 - first1, rel=1e-12
        )
        rep = ds.verify_nonconvex_bound(prob, b4, k, seeds=60, seed=12)
        assert rep.passed

    def test_staged_sigma_mismatch_fails(self):
        # Negative control: noise delivered 10x the declared sigma must blow
        # through the declared-sigma bound at the sampled iterate.
        prob = ds.SgdProblem.quadratic(sigma=1.0, actual_sigma=10.0)
        rep = ds.verify_nonconvex_bound(prob, _bern(p=0.1), 100_000, seeds=20, seed=3)
        assert not rep.passed
        honest = ds.verify_nonconvex_bound(ds.SgdProblem.quadratic(), _bern(p=0.1), 100_000, seeds=20, seed=3)
        assert honest.passed


class TestEqualK:
    def test_drop_vs_no_drop_final_loss_indistinguishable(self):
        prob = ds.SgdProblem.quadratic()
        losses = {}
        for p in (0.0, 0.1):
            res = run_many(prob, _bern(p=p), 20_000, rng=ds.RngStream(5, 1), n_runs=50)
            losses[p] = prob.loss(res["theta_final"]) - prob.loss_star
        pval = sps.ttest_ind(losses[0.0], losses[0.1], equal_var=False).pvalue
        assert pval > 0.01


class TestCompensation:
    def test_extra_ratio_exact(self):
        plan = ds.TrainingPlan(1000, 100)
        out = ds.apply_compensation("extra_steps", plan, 0.9)
        assert abs(out.extra_ratio - 1.0 / 9.0) <= 1e-12
        assert out.plan.iterations == math.ceil(1000 * (1 + 1 / 9))
        assert out.plan.b_max == 100

    def test_no_drop_is_identity(self):
        plan = ds.TrainingPlan(1000, 100)
        for strategy in ("extra_steps", "increased_batch"):
            out = ds.apply_compensation(strategy, plan, 1.0)
            assert out.plan == plan
            assert out.extra_ratio == 0.0

    def test_increased_batch_restores_expectation(self):
        # 10% per-sample drops on the inflated batch: realized mean within
        # 1% of the original b_max over 10^4 steps.
        plan = ds.TrainingPlan(1000, 100)
        out = ds.apply_compensation("increased_batch", plan, 0.9)
        b_inflated = out.plan.b_max
        assert b_inflated == 111
        sched = ds.BatchSchedule(b_inflated, kind="per_worker_bernoulli",
                                 n_workers=b_inflated, p_drop=0.1)
        gen = ds.RngStream(9).generator()
        realized = np.concatenate([sched.draw(s, 2500, gen, ds.RngStream(9)) for s in range(4)])
        assert float(realized.mean()) == pytest.approx(100.0, rel=0.01)

    def test_validation(self):
        plan = ds.TrainingPlan(10, 100)
        with pytest.raises(ValueError):
            ds.apply_compensation("extra_steps", plan, 0.0)
        with pytest.raises(ValueError):
            ds.apply_compensation("bogus", plan, 0.9)


class TestLrCorrection:
    def test_three_modes_within_mc_resolution(self):
        # Equal K, 10% drops, noise-dominated rate: the mode differences sit
        # inside Monte-Carlo resolution, so the three mean final losses agree
        # within 2 combined standard errors pairwise. The sigma branch of the
        # step size must bind: at the cap rate the actual-batch arm takes a
        # visibly larger effective step and the floors separate.
        prob = ds.SgdProblem.quadratic(dimension=2, sigma=10.0)
        sched = ds.BatchSchedule(10, kind="per_worker_bernoulli", n_workers=10, p_drop=0.1)
        k = 20_000
        n_runs = 30
        eta = ds.theorem_step_size(prob, sched, k, "convex_theorem")
        assert eta < 1.0 / (8 * prob.smoothness * sched.b_max)
        runs = {}
        # none: fixed-denominator update at the analyzed rate.
        res = run_many(prob, sched, k, eta_mode=eta * sched.b_max,
                       rng=ds.RngStream(15, 0), n_runs=n_runs)
        runs["none"] = prob.loss(res["theta_final"]) - prob.loss_star
        # constant factor: the rate scaled by the keep rate, same normalization.
        res = run_many(prob, sched, k, eta_mode=eta * (1 - 0.1) * sched.b_max,
                       rng=ds.RngStream(15, 1), n_runs=n_runs)
        runs["constant"] = prob.loss(res["theta_final"]) - prob.loss_star
        # stochastic: divide by the realized batch instead.
        res = run_many(prob, sched, k, eta_mode=eta * sched.b_max,
                       normalization="actual_batch", rng=ds.RngStream(15, 2), n_runs=n_runs)
        runs["stochastic"] = prob.loss(res["theta_final"]) - prob.loss_star
        means = {m: float(np.mean(v)) for m, v in runs.items()}
        ses = {m: float(np.std(v, ddof=1) / math.sqrt(len(v))) for m, v in runs.items()}
        for a in runs:
            for b in runs:
                gap = abs(means[a] - means[b])
                assert gap <= 2.0 * math.hypot(ses[a], ses[b]) + 1e-12


class TestTimingDrivenSchedule:
    def test_end_to_end_with_simulator_batches(self):
        fleet = ds.FleetSpec.homogeneous(4, ds.WorkerLatencyModel(0.25, ds.NormalNoise(0.0, 0.05)))
        sim = ds.SimConfig(fleet, 5, tau=1.1, seed=3)
        sched = ds.BatchSchedule(200, kind="timing_driven", sim=sim)
        prob = ds.SgdProblem.quadratic()
        rep = ds.verify_convex_bound(prob, sched, 20_000, seeds=10, seed=2)
        assert rep.passed
        assert rep.schedule_kind == "timing_driven"


# ---------------------------------------------------------------------------
# Blocks of steps: run_many draws a block's batches and pick uniforms in one
# call each; these oracles draw and clip one step at a time.
# ---------------------------------------------------------------------------

def _draw_one_step(schedule, step, n_runs, gen, rng):
    """One step's batches, one call per step: a binomial per run, or run r's
    workers of iteration step of rng for n_runs copies of the fleet stacked
    in run order. The timing-driven oracle was rewritten when it came to
    draw so, in place of iteration 0 of one stream rng.derive(step, r) per run."""
    if schedule.kind == "none":
        return np.full(n_runs, schedule.b_max, dtype=np.int64)
    if schedule.kind == "per_worker_bernoulli":
        kept = gen.binomial(schedule.n_workers, 1.0 - schedule.p_drop, n_runs)
        return kept * (schedule.b_max // schedule.n_workers)
    sim = schedule.sim
    per_micro = schedule.b_max // (sim.fleet.n * sim.m_per_step)
    stacked = dataclasses.replace(sim, fleet=ds.FleetSpec(sim.fleet.workers * n_runs))
    block = simulate.simulate_block(stacked, rng, [step])
    return per_micro * block.completed[0].reshape(n_runs, sim.fleet.n).sum(axis=1)


def _run_many_per_step(problem, schedule, k_total, eta_mode, normalization, rng, n_runs):
    """run_many as one loop over steps that also keeps every iterate and its
    weight: each step draws its batches and pick uniforms and clips, sums and
    picks on its own."""
    if eta_mode in ("convex_theorem", "nonconvex_theorem"):
        eta = ds.theorem_step_size(problem, schedule, k_total, eta_mode)
        lr_internal = eta * schedule.b_max
    else:
        eta = lr_internal = float(eta_mode)
    theta = np.tile(np.asarray(problem.theta1, dtype=float), (n_runs, 1))
    batch_gen = rng.derive(1).generator()
    noise_gen = rng.derive(2).generator()
    pick_gen = rng.derive(3).generator()
    batch_rng = rng.derive(4)
    cum = np.zeros(n_runs)
    wsum = np.zeros(n_runs)
    wavg = np.zeros((n_runs, problem.dimension))
    pick = theta.copy()
    history, weights_hist = [], []
    max_steps = sgd._MAX_STEP_FACTOR * int(math.ceil(k_total / schedule.b_max)) + 8
    step = 0
    while (cum < k_total).any():
        if step >= max_steps:
            raise RuntimeError(f"step budget ran out at step {step}")
        b = np.minimum(_draw_one_step(schedule, step, n_runs, batch_gen, batch_rng),
                       (k_total - cum).astype(np.int64))
        w = b.astype(float)
        wavg += w[:, None] * theta
        wsum += w
        u = pick_gen.random(n_runs)
        np.copyto(pick, theta, where=((wsum > 0.0) & (u * wsum < w))[:, None])
        history.append(theta.copy())
        weights_hist.append(w)
        d_sum = problem.grad_sum(theta, b, noise_gen)
        if normalization == "fixed_bmax":
            d_sum *= lr_internal / float(schedule.b_max)
        else:
            d_sum *= lr_internal
            d_sum /= np.where(b > 0, b, 1).astype(float)[:, None]
        theta -= d_sum
        cum += b
        step += 1
    return dict(theta_bar=wavg / wsum[:, None], theta_sampled=pick, theta_final=theta,
                eta=eta, steps=step, realized_k=cum,
                iterates=np.stack(history, axis=1), weights=np.stack(weights_hist, axis=1))


_BLOCK_QUAD = ds.SgdProblem.quadratic(dimension=3, sigma=2.0, distance=4.0)
_BLOCK_LOGISTIC = ds.SgdProblem.logistic_synthetic(dimension=3, n_samples=32,
                                                   sin_amplitude=0.05)
_MIXED_FLEET = ds.FleetSpec((ds.WorkerLatencyModel(0.3, ds.NormalNoise(0.0, 0.1)),
                             ds.WorkerLatencyModel(0.2, ds.ExponentialNoise(0.2)),
                             ds.WorkerLatencyModel(0.25, ds.LogNormalNoise(-2.0, 0.5))))
_BLOCK_SCHEDULES = {
    "none": ds.BatchSchedule(12),
    "bernoulli": ds.BatchSchedule(12, kind="per_worker_bernoulli", n_workers=4, p_drop=0.3),
    "timing": ds.BatchSchedule(12, kind="timing_driven", sim=ds.SimConfig(
        ds.FleetSpec.homogeneous(2, ds.WorkerLatencyModel(
            0.25, ds.LogNormalNoise(-1.5, 0.6))), 2, 0.1, 0.6, 1, 4)),
    "timing-mixed": ds.BatchSchedule(18, kind="timing_driven", sim=ds.SimConfig(
        _MIXED_FLEET, 2, 0.1, 0.55, 1, 4)),
}


def _recording_draws(calls):
    """BatchSchedule.draw, appending each call's (step, count) to calls."""
    draw = ds.BatchSchedule.draw

    def recorded(self, step, n_runs, gen, rng, count=None):
        calls.append((step, count))
        return draw(self, step, n_runs, gen, rng, count)
    return recorded


def _assert_same_run(got, want):
    """Every result of run_many equals the per-step loop's, type and bits;
    only the loop keeps the iterates and their weights."""
    assert set(got) == set(want) - {"iterates", "weights"}
    for key, value in got.items():
        assert np.asarray(value).dtype == np.asarray(want[key]).dtype, key
        assert np.array_equal(value, want[key]), key


def _run_with_history(*args):
    """run_many(*args), checked against the per-step loop, with the loop's
    (n_runs, steps, d) iterates and (n_runs, steps) weights."""
    got, want = run_many(*args), _run_many_per_step(*args)
    _assert_same_run(got, want)
    return got, want["iterates"], want["weights"]


class TestBlocksOfSteps:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(sorted(_BLOCK_SCHEDULES)),
           logistic=st.booleans(),
           normalization=st.sampled_from(["fixed_bmax", "actual_batch"]),
           eta_mode=st.sampled_from(["convex_theorem", "nonconvex_theorem", 0.02]),
           n_runs=st.integers(1, 12),
           whole=st.integers(1, 30),
           part=st.integers(0, 17),
           block_samples=st.sampled_from([1, 24, 100, simulate._BLOCK_SAMPLES]),
           seed=st.integers(0, 2**32))
    def test_run_many_is_the_per_step_loop(self, kind, logistic, normalization, eta_mode,
                                           n_runs, whole, part, block_samples, seed):
        # block_samples scales the block length down to a step or a few, so
        # runs end mid-block and on block edges; the oracle draws step by step.
        schedule = _BLOCK_SCHEDULES[kind]
        problem = _BLOCK_LOGISTIC if logistic else _BLOCK_QUAD
        k_total = schedule.b_max * whole + part % schedule.b_max
        args = (problem, schedule, k_total, eta_mode, normalization,
                ds.RngStream(seed, 3), n_runs)
        want = _run_many_per_step(*args)
        calls = []
        with mock.patch.object(simulate, "_BLOCK_SAMPLES", block_samples), \
                mock.patch.object(ds.BatchSchedule, "draw", _recording_draws(calls)):
            got = run_many(*args)
        _assert_same_run(got, want)
        # The blocks tile the steps in order, and none is drawn past the end.
        assert [step for step, _ in calls] == np.cumsum([0] + [c for _, c in calls])[:-1].tolist()
        assert sum(count for _, count in calls) == want["steps"]

    @pytest.mark.parametrize("k_blocks, extra", [(3, 0), (2, 5)], ids=["edge", "mid-block"])
    def test_runs_end_on_a_block_edge_and_inside_one(self, k_blocks, extra):
        # 8 samples a block at 2 runs: 4 steps of b_max 12 a block, so
        # K = 12 * 12 ends on the third block's last step and K = 8 * 12 + 5
        # one step into the third block.
        schedule = _BLOCK_SCHEDULES["none"]
        k_total = schedule.b_max * 4 * k_blocks + extra
        args = (_BLOCK_QUAD, schedule, k_total, "convex_theorem", "fixed_bmax",
                ds.RngStream(8), 2)
        calls = []
        with mock.patch.object(simulate, "_BLOCK_SAMPLES", 8), \
                mock.patch.object(ds.BatchSchedule, "draw", _recording_draws(calls)):
            got = run_many(*args)
        _assert_same_run(got, _run_many_per_step(*args))
        assert calls == [(0, 4), (4, 4), (8, 4 if extra == 0 else 1)]

    @pytest.mark.parametrize("block_samples", [24, simulate._BLOCK_SAMPLES])
    def test_a_schedule_that_never_delivers_fails_at_the_same_step(self, block_samples):
        # Every micro-batch takes 1.0 and tau is 0.5: nothing ever completes.
        fleet = ds.FleetSpec.homogeneous(2, ds.WorkerLatencyModel(1.0, ds.NoNoise()))
        schedule = ds.BatchSchedule(4, kind="timing_driven",
                                    sim=ds.SimConfig(fleet, 2, 0.0, 0.5, 1, 0))
        args = (_BLOCK_QUAD, schedule, 40, "convex_theorem", "fixed_bmax",
                ds.RngStream(1), 3)
        budget = sgd._MAX_STEP_FACTOR * 10 + 8
        with pytest.raises(RuntimeError, match=f"at step {budget}$"):
            _run_many_per_step(*args)
        calls = []
        with mock.patch.object(simulate, "_BLOCK_SAMPLES", block_samples), \
                mock.patch.object(ds.BatchSchedule, "draw", _recording_draws(calls)):
            with pytest.raises(RuntimeError, match="step budget"):
                run_many(*args)
        assert sum(count for _, count in calls) == budget

    @pytest.mark.parametrize("kind", sorted(_BLOCK_SCHEDULES))
    @pytest.mark.parametrize("n_runs", [1, 5])
    def test_draw_count_is_that_many_single_draws(self, kind, n_runs):
        schedule = _BLOCK_SCHEDULES[kind]
        rng = ds.RngStream(11, 4)
        block_gen, single_gen, oracle_gen = (ds.RngStream(11, 1).generator() for _ in range(3))
        block = schedule.draw(3, n_runs, block_gen, rng, 7)
        assert block.shape == (7, n_runs) and block.dtype == np.int64
        for k in range(7):
            single = schedule.draw(3 + k, n_runs, single_gen, rng)
            assert single.shape == (n_runs,) and single.dtype == np.int64
            assert np.array_equal(block[k], single)
            assert np.array_equal(single, _draw_one_step(schedule, 3 + k, n_runs, oracle_gen, rng))
        # The next draw finds each generator at the same place.
        assert block_gen.random() == single_gen.random()

    @pytest.mark.parametrize("n_runs, steps_per_call", [(65, 1), (64, 1), (16, 4)])
    def test_a_timing_block_holds_at_most_the_engine_cap(self, monkeypatch, n_runs,
                                                         steps_per_call):
        # 16 workers x 64 micro-batches: 1024 latency samples a run and step,
        # so 64 or more runs take one step per engine call and 16 runs four.
        fleet = ds.FleetSpec.homogeneous(16, ds.WorkerLatencyModel(
            0.01, ds.LogNormalNoise(-6.0, 0.3)))
        schedule = ds.BatchSchedule(1024, kind="timing_driven",
                                    sim=ds.SimConfig(fleet, 64, 0.0, 0.6, 1, 2))
        rows = []
        engine = sgd.simulate_block

        # A row is one run's step: an engine call draws its steps for a
        # fleet of every run's 16 workers, stacked.
        def recorded(config, rng, iterations):
            assert config.fleet.n == 16 * n_runs
            rows.append(len(iterations) * n_runs)
            return engine(config, rng, iterations)
        monkeypatch.setattr(sgd, "simulate_block", recorded)
        res = run_many(_BLOCK_QUAD, schedule, 1024 * 9, rng=ds.RngStream(6), n_runs=n_runs)
        assert rows[0] == n_runs * steps_per_call
        assert all(r * 1024 <= simulate._BLOCK_SAMPLES or r == n_runs for r in rows)
        assert sum(rows) == n_runs * res["steps"]
