"""Stochastic-batch SGD testbed checks: exact noiseless descent, weighted
update identities, gradient-sampler unbiasedness and variance, both
convergence bounds with their step sizes, compensation arithmetic, and the
learning-rate corrections."""

import math

import numpy as np
import pytest
from scipy import stats as sps

import dropsim as ds
from dropsim.sgd import (
    convex_bound_rhs,
    nonconvex_bound_rhs,
    run_many,
)


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
        # Power-iteration L at theta1 is the global data-curvature peak;
        # random probe Hessians must not exceed it.
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

    def test_staged_mismatch_keeps_declared_sigma(self):
        # A staged mismatch keeps the declared sigma (used by bounds and step
        # sizes); the sampler injects actual_sigma, see TestGradSum.
        prob = ds.SgdProblem.quadratic(sigma=1.0, actual_sigma=10.0)
        assert prob.sigma == 1.0
        assert prob.actual_sigma == 10.0


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
        dev = d_sum - b * prob.grad(theta)
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
        prob = ds.SgdProblem.logistic_synthetic()
        r = 200_000
        for point in (prob.theta1, prob.theta_star):
            theta = np.tile(point, (r, 1))
            gen = ds.RngStream(24).generator()
            d_sum = prob.grad_sum(theta, np.ones(r, dtype=int), gen)
            dev = d_sum - prob.grad(theta)
            measured = float(np.mean(np.sum(dev**2, axis=1)))
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


class TestRunMechanics:
    def test_noiseless_descent_contracts_exactly(self):
        # sigma = 0, no drops, manual rate: plain gradient descent; each
        # coordinate contracts by |1 - eta * lambda| per step.
        prob = ds.SgdProblem.quadratic(dimension=6, sigma=0.0, distance=5.0)
        eta = 0.5
        steps = 40
        sched = ds.BatchSchedule(10)
        res = run_many(prob, sched, 10 * steps, eta_mode=eta, rng=ds.RngStream(1),
                       n_runs=1, store_iterates=True)
        expected = prob.theta_star + (prob.theta1 - prob.theta_star) * (1 - eta * prob.curvature) ** steps
        assert res["steps"] == steps
        assert np.allclose(res["theta_final"][0], expected, rtol=0, atol=1e-12)

    def test_realized_k_is_exact(self):
        # The last batch is clipped so sum(alpha) = K even mid-step.
        prob = ds.SgdProblem.quadratic()
        for k in (100, 150, 1999, 20_000):
            res = run_many(prob, _bern(p=0.3), k, rng=ds.RngStream(2), n_runs=1,
                           store_iterates=True)
            assert float(res["realized_k"][0]) == k
            assert float(res["weights"][0].sum()) == k

    def test_weighted_average_identity(self):
        prob = ds.SgdProblem.quadratic()
        res = run_many(prob, _bern(p=0.2), 5000, rng=ds.RngStream(3), n_runs=1,
                       store_iterates=True)
        w = res["weights"][0]
        assert float((w / w.sum()).sum()) == pytest.approx(1.0, abs=1e-12)
        manual = (w[:, None] * res["iterates"][0]).sum(axis=0) / w.sum()
        assert np.allclose(res["theta_bar"][0], manual, atol=1e-12)

    def test_sampled_iterate_is_an_iterate(self):
        prob = ds.SgdProblem.quadratic()
        res = run_many(prob, _bern(p=0.2), 3000, rng=ds.RngStream(4), n_runs=1,
                       store_iterates=True)
        matches = np.all(res["iterates"][0] == res["theta_sampled"][0][None, :], axis=1)
        assert matches.any()

    def test_sampling_frequency_proportional_to_weight(self):
        # Two-step schedule with known weights: first step keeps the full
        # batch, second is clipped to half, so picks split 2:1.
        prob = ds.SgdProblem.quadratic(sigma=0.0)
        sched = ds.BatchSchedule(100)
        res = run_many(prob, sched, 150, eta_mode=0.01, rng=ds.RngStream(5), n_runs=4000, store_iterates=True)
        first = np.all(res["theta_sampled"] == res["iterates"][:, 0, :], axis=1)
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


class TestConvexBound:
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

    def test_resample_queue(self):
        plan = ds.TrainingPlan(10, 100)
        out = ds.apply_compensation("resample_dropped", plan, 0.8, dropped_indices=[5, 3, 11])
        assert out.resample_queue == (5, 3, 11)
        assert out.plan == plan

    def test_validation(self):
        plan = ds.TrainingPlan(10, 100)
        with pytest.raises(ValueError):
            ds.apply_compensation("extra_steps", plan, 0.0)
        with pytest.raises(ValueError):
            ds.apply_compensation("bogus", plan, 0.9)


class TestLrCorrection:
    def test_no_drop_all_modes_identical(self):
        eta = 0.25
        assert ds.lr_correction("none", eta) == eta
        assert ds.lr_correction("constant_factor", eta, p_drop=0.0) == eta
        rates = ds.lr_correction("stochastic", eta, realized_b=np.array([8, 8]), b_max=8)
        assert np.all(rates == eta)

    def test_constant_factor(self):
        assert ds.lr_correction("constant_factor", 0.2, p_drop=0.1) == pytest.approx(0.18)

    def test_stochastic_equals_actual_batch_normalization(self):
        # eta * b_max / b_i applied to D / b_max reproduces D / b_i exactly.
        gen = ds.RngStream(10).generator()
        d_sum = gen.standard_normal((6, 3))
        b = np.array([10, 5, 0, 20, 10, 1])
        eta = 0.05
        rates = ds.lr_correction("stochastic", eta, realized_b=b, b_max=10)
        lhs = rates[:, None] * d_sum / 10.0
        safe_b = np.where(b > 0, b, 1)
        rhs = np.where((b > 0)[:, None], eta * d_sum / safe_b[:, None], 0.0)
        assert np.allclose(lhs, rhs, atol=1e-15)
        assert rates[2] == 0.0

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
        # constant factor: scaled-down rate, same normalization.
        res = run_many(prob, sched, k,
                       eta_mode=ds.lr_correction("constant_factor", eta, 0.1) * sched.b_max,
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

    def test_validation(self):
        with pytest.raises(ValueError):
            ds.lr_correction("stochastic", 0.1)
        with pytest.raises(ValueError):
            ds.lr_correction("bogus", 0.1)
        with pytest.raises(ValueError):
            ds.lr_correction("none", 0.1, p_drop=1.0)


class TestTimingDrivenSchedule:
    def test_end_to_end_with_simulator_batches(self):
        fleet = ds.FleetSpec.homogeneous(4, ds.WorkerLatencyModel(0.25, ds.NormalNoise(0.0, 0.05)))
        sim = ds.SimConfig(fleet, 5, tau=1.1, seed=3)
        sched = ds.BatchSchedule(200, kind="timing_driven", sim=sim)
        prob = ds.SgdProblem.quadratic()
        rep = ds.verify_convex_bound(prob, sched, 20_000, seeds=10, seed=2)
        assert rep.passed
        assert rep.schedule_kind == "timing_driven"
