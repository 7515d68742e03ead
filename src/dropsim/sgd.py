"""Small-scale SGD harness for stochastic batch sizes.

When workers drop part of their batch, the per-step total batch b_i becomes
a random variable. The analysis handles this by weighting each step by
alpha_i = b_i: the update is theta_{i+1} = theta_i - eta * alpha_i * g_i
with g_i the mean gradient over the b_i surviving samples, the averaged
output weights iterates by alpha_i, and the convergence guarantees hold with
b_max in place of the batch size. This module provides problems with exactly
known constants (smoothness, noise level, minimizer), batch-size schedules
(fixed, per-worker Bernoulli drops, timing-driven drops), the theorem step
sizes, empirical verification of both convergence bounds, and the
bookkeeping for dropped-sample compensation and learning-rate corrections.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simulate import SimConfig, simulate_block
from .stats import RngStream

__all__ = [
    "SgdProblem",
    "BatchSchedule",
    "MarginReport",
    "TrainingPlan",
    "CompensationResult",
    "theorem_step_size",
    "run_many",
    "verify_convex_bound",
    "verify_nonconvex_bound",
    "apply_compensation",
    "lr_correction",
]

# Hard ceiling on optimizer steps relative to the drop-free step count;
# protects against schedules that almost never deliver samples.
_MAX_STEP_FACTOR = 64


@dataclass(frozen=True)
class SgdProblem:
    """A loss with exactly known constants for sharp bound checks.

    kind "quadratic": L(theta) = 0.5 (theta - theta*)^T A (theta - theta*)
    with diagonal A; the per-sample gradient is the exact gradient plus
    isotropic Gaussian noise z with E||z||^2 = sigma^2 (actual_sigma when a
    mismatch is being staged deliberately).

    kind "logistic_synthetic": l2-regularized logistic regression on a fixed
    synthetic dataset, optionally plus sin_amplitude * sum_k sin(theta_k)
    for a nonconvex landscape; per-sample gradients come from uniformly
    sampled data points. Smoothness is taken from power iteration on the
    Hessian at theta_1 (exact there, since all logits vanish at theta_1 = 0)
    plus the sine term's curvature bound; sigma is the largest per-sample
    gradient deviation measured exactly on the dataset at probe points.
    """

    kind: str
    dimension: int
    smoothness: float
    sigma: float
    theta1: np.ndarray
    theta_star: np.ndarray
    loss_star: float
    curvature: Optional[np.ndarray] = None  # quadratic: diag(A)
    actual_sigma: Optional[float] = None  # quadratic: sampler noise if != sigma
    data_x: Optional[np.ndarray] = None  # logistic
    data_y: Optional[np.ndarray] = None
    l2_reg: float = 0.0
    sin_amplitude: float = 0.0

    # -- construction ------------------------------------------------------

    @classmethod
    def quadratic(cls, dimension: int = 10, smoothness: float = 1.0,
                  sigma: float = 1.0, distance: float = 10.0,
                  actual_sigma: Optional[float] = None,
                  seed: int = 0) -> "SgdProblem":
        """Diagonal quadratic with spectrum spanning [0.1, smoothness].

        The problem is deterministic: `seed` is accepted, so that existing
        callers and configs still run, and it seeds nothing."""
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not (smoothness > 0.0) or sigma < 0.0 or distance < 0.0:
            raise ValueError("smoothness > 0, sigma >= 0, distance >= 0 required")
        if dimension == 1:
            curv = np.array([smoothness])
        else:
            curv = np.linspace(0.1 * smoothness, smoothness, dimension)
        theta_star = np.zeros(dimension)
        theta1 = theta_star + distance / math.sqrt(dimension) * np.ones(dimension)
        return cls(kind="quadratic", dimension=dimension, smoothness=smoothness,
                   sigma=sigma, theta1=theta1, theta_star=theta_star,
                   loss_star=0.0, curvature=curv, actual_sigma=actual_sigma)

    @classmethod
    def logistic_synthetic(cls, dimension: int = 10, n_samples: int = 512,
                           l2_reg: float = 0.1, sin_amplitude: float = 0.0,
                           seed: int = 7) -> "SgdProblem":
        from scipy import optimize

        if dimension < 1 or n_samples < 2:
            raise ValueError("dimension >= 1 and n_samples >= 2 required")
        if l2_reg <= 0.0 or sin_amplitude < 0.0:
            raise ValueError("l2_reg > 0 and sin_amplitude >= 0 required")
        gen = RngStream(seed, 0).generator()
        x = gen.normal(0.0, 1.0, (n_samples, dimension))
        w_true = np.linspace(1.0, -1.0, dimension)
        margin = x @ w_true + 0.5 * gen.normal(0.0, 1.0, n_samples)
        y = np.where(margin >= 0.0, 1.0, -1.0)
        theta1 = np.zeros(dimension)

        # Smoothness: at theta1 every logit is zero, so the data curvature
        # weight sits at its global maximum 1/4 exactly; the sine term adds
        # at most sin_amplitude everywhere.
        hess = 0.25 * (x.T @ x) / n_samples + l2_reg * np.eye(dimension)
        smooth = _power_iteration(hess) + sin_amplitude

        prob = cls(kind="logistic_synthetic", dimension=dimension,
                   smoothness=smooth, sigma=0.0, theta1=theta1,
                   theta_star=theta1, loss_star=0.0, data_x=x, data_y=y,
                   l2_reg=l2_reg, sin_amplitude=sin_amplitude)

        res = optimize.minimize(prob.loss, theta1, jac=prob.grad,
                                method="L-BFGS-B",
                                options={"maxiter": 20000, "ftol": 1e-16,
                                         "gtol": 1e-12})
        theta_star = res.x
        loss_star = float(prob.loss(theta_star))

        # Noise constant: exact per-sample deviation over the dataset, taken
        # at probe points spanning start, optimum, and beyond.
        probes = [theta1, theta_star, 0.5 * (theta1 + theta_star),
                  2.0 * theta_star - theta1]
        sig = 0.0
        for p in probes:
            g_all = prob._per_sample_grads(p)
            dev = g_all - g_all.mean(axis=0)
            sig = max(sig, float(np.mean(np.sum(dev**2, axis=1))))
        return cls(kind="logistic_synthetic", dimension=dimension,
                   smoothness=smooth, sigma=math.sqrt(sig), theta1=theta1,
                   theta_star=theta_star, loss_star=loss_star, data_x=x,
                   data_y=y, l2_reg=l2_reg, sin_amplitude=sin_amplitude)

    # -- loss and gradients -------------------------------------------------

    def loss(self, theta: np.ndarray) -> np.ndarray:
        """Full loss; accepts (d,) or a stack (R, d)."""
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        if self.kind == "quadratic":
            diff = theta - self.theta_star
            out = 0.5 * np.sum(self.curvature * diff**2, axis=1)
        else:
            logits = theta @ self.data_x.T  # (R, n)
            out = np.mean(np.logaddexp(0.0, -self.data_y * logits), axis=1)
            out = out + 0.5 * self.l2_reg * np.sum(theta**2, axis=1)
            out = out + self.sin_amplitude * np.sum(np.sin(theta), axis=1)
        return out if out.size > 1 else float(out[0])

    def grad(self, theta: np.ndarray) -> np.ndarray:
        """Exact full gradient; accepts (d,) or (R, d), returns same shape."""
        arr = np.atleast_2d(np.asarray(theta, dtype=float))
        if self.kind == "quadratic":
            out = self.curvature * (arr - self.theta_star)
        else:
            logits = arr @ self.data_x.T
            w = _sigmoid(-self.data_y * logits) * self.data_y  # (R, n)
            out = -(w @ self.data_x) / self.data_x.shape[0]
            out = out + self.l2_reg * arr + self.sin_amplitude * np.cos(arr)
        return out if np.asarray(theta).ndim > 1 else out[0]

    def _per_sample_grads(self, theta: np.ndarray) -> np.ndarray:
        """(n_samples, d) gradient of each sample's loss at one point."""
        if self.kind != "logistic_synthetic":
            raise ValueError("per-sample enumeration applies to dataset losses")
        logits = self.data_x @ theta
        w = _sigmoid(-self.data_y * logits) * self.data_y
        data_term = -w[:, None] * self.data_x
        return data_term + self.l2_reg * theta + self.sin_amplitude * np.cos(theta)

    def grad_sum(self, theta: np.ndarray, batch: np.ndarray, gen) -> np.ndarray:
        """Sum of b_r per-sample gradients at each row's point.

        theta: (R, d); batch: (R,) nonnegative ints; rows with b_r = 0 get a
        zero vector. The quadratic noise takes a fixed amount from the
        generator per call, whatever the batch sizes; the dataset sampler
        draws R * max(b_r) sample indices.
        """
        theta = np.asarray(theta, dtype=float)
        batch = np.asarray(batch)
        r, d = theta.shape
        if self.kind == "quadratic":
            noise_sigma = self.sigma if self.actual_sigma is None else self.actual_sigma
            xi = gen.standard_normal((r, d))
            scale = noise_sigma * np.sqrt(batch / d)
            return batch[:, None] * self.grad(theta) + scale[:, None] * xi
        b_cap = int(batch.max()) if batch.size else 0
        if b_cap == 0:
            return np.zeros((r, d))
        idx = gen.integers(0, self.data_x.shape[0], (r, b_cap))
        xs = np.take(self.data_x, idx, axis=0)  # (R, b_cap, d)
        neg_y = np.take(-self.data_y, idx)  # (R, b_cap)
        # A sample's data gradient is -y sigmoid(-y x.theta) x. The sign
        # rides on the (R, b_cap) weights, not on the samples; each product
        # is the same float either way, so the einsum sums the same terms.
        w = _sigmoid(neg_y * np.einsum("rbd,rd->rb", xs, theta))
        w *= neg_y
        w *= np.arange(b_cap) < batch[:, None]  # row r keeps its first b_r draws
        data_term = np.einsum("rb,rbd->rd", w, xs)
        common = self.l2_reg * theta + self.sin_amplitude * np.cos(theta)
        return data_term + batch[:, None] * common


def _sigmoid(u):
    """1 / (1 + exp(-u)) for u >= 0 and exp(u) / (1 + exp(u)) below, so exp
    never overflows. With e = exp(-|u|) in [0, 1], max(e, u >= 0) is the
    numerator of either branch (1 or e; nan stays nan)."""
    e = np.exp(-np.abs(u))
    return np.maximum(e, u >= 0) / (1.0 + e)


def _power_iteration(mat: np.ndarray, iters: int = 200) -> float:
    v = np.ones(mat.shape[0]) / math.sqrt(mat.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = mat @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return lam


@dataclass(frozen=True)
class BatchSchedule:
    """How the per-step total batch b_i is realized.

    kind "none": b_i = b_max every step. kind "per_worker_bernoulli": each
    of n_workers drops its whole local batch (b_max / n_workers samples)
    independently with probability p_drop. kind "timing_driven": a timing
    simulation iteration decides how many micro-batches each worker
    completes under sim.tau; b_i counts the surviving samples.
    """

    b_max: int
    kind: str = "none"
    n_workers: int = 1
    p_drop: float = 0.0
    sim: Optional[SimConfig] = None

    def __post_init__(self):
        if self.b_max < 1:
            raise ValueError("b_max must be >= 1")
        if self.kind not in ("none", "per_worker_bernoulli", "timing_driven"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "per_worker_bernoulli":
            if not (0.0 <= self.p_drop < 1.0):
                raise ValueError("p_drop must be in [0, 1)")
            if self.n_workers < 1 or self.b_max % self.n_workers != 0:
                raise ValueError("b_max must divide evenly across n_workers")
        if self.kind == "timing_driven":
            if self.sim is None:
                raise ValueError("timing_driven schedule needs a SimConfig")
            grains = self.sim.fleet.n * self.sim.m_per_step
            if self.b_max % grains != 0:
                raise ValueError("b_max must be a multiple of N * M micro-batches")

    def draw(self, step: int, n_runs: int, gen, rng: RngStream) -> np.ndarray:
        """Batch sizes for one step across n_runs independent runs."""
        if self.kind == "none":
            return np.full(n_runs, self.b_max, dtype=np.int64)
        if self.kind == "per_worker_bernoulli":
            kept = gen.binomial(self.n_workers, 1.0 - self.p_drop, n_runs)
            return kept * (self.b_max // self.n_workers)
        # Run r's step is iteration 0 of stream rng.derive(step, r).
        per_micro = self.b_max // (self.sim.fleet.n * self.sim.m_per_step)
        block = simulate_block(self.sim, rng, step, np.arange(n_runs), 0)
        return per_micro * block.completed.sum(axis=1)


@dataclass(frozen=True)
class MarginReport:
    """Empirical check of a convergence bound across seeds."""

    theorem: str
    problem_kind: str
    schedule_kind: str
    k_total: float
    n_seeds: int
    eta: float
    empirical: float
    empirical_stderr: float
    bound: float
    margin: float  # bound - empirical
    passed: bool
    per_seed: tuple


def theorem_step_size(problem: SgdProblem, schedule: BatchSchedule, k_total: float,
                      mode: str) -> float:
    """The analyzed step sizes; the sigma term is skipped when sigma = 0."""
    lsm, bmax, sig = problem.smoothness, schedule.b_max, problem.sigma
    if mode == "convex_theorem":
        cap = 1.0 / (8.0 * lsm * bmax)
        if sig == 0.0:
            return cap
        dist = float(np.linalg.norm(problem.theta1 - problem.theta_star))
        return min(dist / (sig * math.sqrt(8.0 * k_total)), cap)
    if mode == "nonconvex_theorem":
        cap = 1.0 / (2.0 * lsm * bmax)
        if sig == 0.0:
            return cap
        gap = float(problem.loss(problem.theta1)) - problem.loss_star
        return min(math.sqrt(max(gap, 0.0)) / (sig * math.sqrt(lsm * k_total)), cap)
    raise ValueError(f"unknown step-size mode {mode!r}")


def run_many(problem: SgdProblem, schedule: BatchSchedule, k_total: float,
             eta_mode: str = "convex_theorem", normalization: str = "fixed_bmax",
             rng: Optional[RngStream] = None, n_runs: int = 1,
             store_iterates: bool = False):
    """Run n_runs independent trajectories in lockstep.

    Every run performs steps until its cumulative batch reaches k_total
    exactly (the final batch is clipped), so sum(alpha_i) = K holds per run.
    Returns (theta_bar, theta_sampled, theta_final, eta, steps), each array
    (n_runs, d), plus the per-run iterate history when store_iterates.
    """
    if k_total < schedule.b_max:
        raise ValueError("k_total must be at least b_max")
    if not float(k_total).is_integer():
        raise ValueError(f"k_total must be a whole number of samples, got {k_total!r}")
    if n_runs < 1:
        raise ValueError(f"n_runs (the number of seeds) must be >= 1, got {n_runs}")
    if normalization not in ("fixed_bmax", "actual_batch"):
        raise ValueError(f"unknown normalization {normalization!r}")
    root = rng if rng is not None else RngStream(0, 0)

    if eta_mode in ("convex_theorem", "nonconvex_theorem"):
        eta = theorem_step_size(problem, schedule, k_total, eta_mode)
        # The analyzed update subtracts eta * alpha_i * g_i = eta * D_i;
        # internally the update divides the gradient sum D_i by the
        # normalization denominator, so scale by b_max to compensate.
        lr_internal = eta * schedule.b_max
    elif isinstance(eta_mode, (int, float)):
        eta = float(eta_mode)  # manual: rate applied to the mean gradient
        lr_internal = eta
    else:
        raise ValueError("eta_mode must be a theorem name or a numeric rate")

    d = problem.dimension
    # theta and pick are updated in place, so both must be float arrays.
    theta = np.tile(np.asarray(problem.theta1, dtype=float), (n_runs, 1))
    batch_gen = root.derive(1).generator()
    noise_gen = root.derive(2).generator()
    pick_gen = root.derive(3).generator()
    batch_rng = root.derive(4)  # timing_driven sub-streams

    cum = np.zeros(n_runs)
    wsum = np.zeros(n_runs)
    wavg = np.zeros((n_runs, d))
    pick = theta.copy()
    history = [] if store_iterates else None
    weights_hist = [] if store_iterates else None

    max_steps = _MAX_STEP_FACTOR * int(math.ceil(k_total / schedule.b_max)) + 8
    fixed_rate = lr_internal / float(schedule.b_max)
    step = 0
    while (cum < k_total).any():
        if step >= max_steps:
            raise RuntimeError("schedule failed to deliver K samples in the step budget")
        # Batches are clipped to what is left of K, so a finished run has
        # cum == k_total exactly and its clip is 0.
        b = np.minimum(schedule.draw(step, n_runs, batch_gen, batch_rng),
                       (k_total - cum).astype(np.int64))

        w = b.astype(float)
        wavg += w[:, None] * theta
        wsum += w
        u = pick_gen.random(n_runs)
        np.copyto(pick, theta, where=((wsum > 0.0) & (u * wsum < w))[:, None])
        if store_iterates:
            history.append(theta.copy())
            weights_hist.append(w)

        d_sum = problem.grad_sum(theta, b, noise_gen)
        if normalization == "fixed_bmax":
            d_sum *= fixed_rate
        else:
            d_sum *= lr_internal
            d_sum /= np.where(b > 0, b, 1).astype(float)[:, None]
        theta -= d_sum
        cum += b
        step += 1

    theta_bar = wavg / wsum[:, None]
    out = dict(theta_bar=theta_bar, theta_sampled=pick, theta_final=theta,
               eta=eta, steps=step, realized_k=cum)
    if store_iterates:
        out["iterates"] = np.stack(history, axis=1)  # (n_runs, steps, d)
        out["weights"] = np.stack(weights_hist, axis=1)  # (n_runs, steps)
    return out


def convex_bound_rhs(problem: SgdProblem, schedule: BatchSchedule,
                     k_total: float) -> float:
    dist = float(np.linalg.norm(problem.theta1 - problem.theta_star))
    return (8.0 * problem.smoothness * schedule.b_max * dist**2 / k_total
            + 6.0 * problem.sigma * dist / math.sqrt(k_total))


def nonconvex_bound_rhs(problem: SgdProblem, schedule: BatchSchedule,
                        k_total: float) -> float:
    gap = float(problem.loss(problem.theta1)) - problem.loss_star
    lsm = problem.smoothness
    return (2.0 * lsm * schedule.b_max * gap / k_total
            + 2.0 * problem.sigma * math.sqrt(lsm * max(gap, 0.0) / k_total))


def _report(theorem, problem, schedule, k_total, eta, per_seed, bound) -> MarginReport:
    per_seed = np.asarray(per_seed, dtype=float)
    emp = float(per_seed.mean())
    stderr = float(per_seed.std(ddof=1) / math.sqrt(per_seed.size)) if per_seed.size > 1 else 0.0
    # inf <= inf would pass, so a run that overflowed must not get a verdict.
    if not all(map(math.isfinite, (emp, stderr, bound))):
        raise ValueError(f"the {theorem} check overflowed: empirical {emp!r}, "
                         f"stderr {stderr!r}, bound {bound!r}")
    return MarginReport(
        theorem=theorem,
        problem_kind=problem.kind,
        schedule_kind=schedule.kind,
        k_total=float(k_total),
        n_seeds=int(per_seed.size),
        eta=float(eta),
        empirical=emp,
        empirical_stderr=stderr,
        bound=float(bound),
        margin=float(bound - emp),
        passed=bool(emp <= bound),
        per_seed=tuple(per_seed.tolist()),
    )


def verify_convex_bound(problem: SgdProblem, schedule: BatchSchedule,
                        k_total: float, seeds: int = 100,
                        seed: int = 0) -> MarginReport:
    """Check E[L(theta_bar) - L*] against the convex guarantee.

    Runs `seeds` independent trajectories at the convex-theorem step size,
    evaluates the weighted-average iterate per run, and compares the mean
    suboptimality to 8 L b_max ||theta1 - theta*||^2 / K
    + 6 sigma ||theta1 - theta*|| / sqrt(K).
    """
    res = run_many(problem, schedule, k_total, "convex_theorem", "fixed_bmax",
                   RngStream(seed, 0), n_runs=seeds)
    losses = np.atleast_1d(problem.loss(res["theta_bar"])) - problem.loss_star
    bound = convex_bound_rhs(problem, schedule, k_total)
    return _report("convex", problem, schedule, k_total, res["eta"], losses, bound)


def verify_nonconvex_bound(problem: SgdProblem, schedule: BatchSchedule,
                           k_total: float, seeds: int = 100,
                           seed: int = 0) -> MarginReport:
    """Check E||grad L(theta_bar)||^2 against the smooth nonconvex guarantee.

    theta_bar here is an iterate sampled with probability proportional to
    its batch weight; the bound is 2 L b_max (L(theta1) - L*) / K
    + 2 sigma sqrt(L (L(theta1) - L*)) / sqrt(K).
    """
    res = run_many(problem, schedule, k_total, "nonconvex_theorem", "fixed_bmax",
                   RngStream(seed, 0), n_runs=seeds)
    grads = np.atleast_2d(problem.grad(res["theta_sampled"]))
    sq = np.sum(grads**2, axis=1)
    bound = nonconvex_bound_rhs(problem, schedule, k_total)
    return _report("nonconvex", problem, schedule, k_total, res["eta"], sq, bound)


@dataclass(frozen=True)
class TrainingPlan:
    iterations: int
    b_max: int


@dataclass(frozen=True)
class CompensationResult:
    strategy: str
    extra_ratio: float  # R = M / M_completed - 1
    plan: TrainingPlan
    resample_queue: Optional[tuple] = None


def apply_compensation(strategy: str, base_plan: TrainingPlan,
                       completed_ratio: float,
                       dropped_indices=None) -> CompensationResult:
    """Adjust a training plan to recover compute lost to drops.

    completed_ratio is mean completed / M. "extra_steps" stretches the step
    count by 1 + R with R = 1/ratio - 1; "increased_batch" scales b_max by
    the same factor so the expected realized batch matches the original;
    "resample_dropped" re-enqueues the given dropped sample indices for the
    next epoch, leaving the plan untouched.
    """
    if not (0.0 < completed_ratio <= 1.0):
        raise ValueError("completed_ratio must be in (0, 1]; "
                         "a zero completion rate cannot be compensated")
    if strategy not in ("extra_steps", "increased_batch", "resample_dropped"):
        raise ValueError(f"unknown compensation strategy {strategy!r}")
    extra = 1.0 / completed_ratio - 1.0
    if strategy == "extra_steps":
        plan = TrainingPlan(int(math.ceil(base_plan.iterations * (1.0 + extra))),
                            base_plan.b_max)
        return CompensationResult(strategy, extra, plan)
    if strategy == "increased_batch":
        plan = TrainingPlan(base_plan.iterations,
                            int(round(base_plan.b_max * (1.0 + extra))))
        return CompensationResult(strategy, extra, plan)
    queue = tuple(dropped_indices) if dropped_indices is not None else ()
    return CompensationResult(strategy, extra, base_plan, resample_queue=queue)


def lr_correction(mode: str, eta: float, p_drop: float = 0.0,
                  realized_b=None, b_max: Optional[int] = None):
    """Learning-rate adjustments for dropped samples.

    "none" returns eta unchanged; "constant_factor" scales by the expected
    keep rate 1 - p_drop; "stochastic" returns the per-step rates
    eta * b_max / b_i, the rates that make the fixed-denominator update
    equal to dividing each gradient sum by its realized batch.
    """
    if not (0.0 <= p_drop < 1.0):
        raise ValueError("p_drop must be in [0, 1)")
    if mode == "none":
        return eta
    if mode == "constant_factor":
        return eta * (1.0 - p_drop)
    if mode == "stochastic":
        if realized_b is None or b_max is None:
            raise ValueError("stochastic correction needs realized_b and b_max")
        b = np.asarray(realized_b, dtype=float)
        return np.where(b > 0.0, eta * b_max / np.where(b > 0.0, b, 1.0), 0.0)
    raise ValueError(f"unknown lr correction mode {mode!r}")
