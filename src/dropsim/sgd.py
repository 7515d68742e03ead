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
bookkeeping for dropped-sample compensation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .simulate import SimConfig, _block_len, simulate_block
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
    sampled data points. Smoothness is the top eigenvalue of the Hessian at
    theta_1 (the peak data curvature, since every logit is zero there)
    plus the sine term's curvature bound; sigma is the largest per-sample
    gradient deviation measured exactly on the dataset at probe points.
    theta_star is reached from theta_1 by damped Newton steps, to roundoff;
    where the sine term makes the loss nonconvex it is a local minimum.
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
        if not (_finite(smoothness, sigma, distance) and smoothness > 0.0
                and sigma >= 0.0 and distance >= 0.0):
            raise ValueError("finite smoothness > 0, sigma >= 0, distance >= 0 required")
        if actual_sigma is not None and not (_finite(actual_sigma) and actual_sigma >= 0.0):
            raise ValueError("finite actual_sigma >= 0 required")
        curv = np.linspace(0.1 * smoothness, smoothness, dimension)
        curv[-1] = smoothness  # a one-point linspace holds only its start
        theta_star = np.zeros(dimension)
        theta1 = theta_star + distance / math.sqrt(dimension) * np.ones(dimension)
        return cls(kind="quadratic", dimension=dimension, smoothness=smoothness,
                   sigma=sigma, theta1=theta1, theta_star=theta_star,
                   loss_star=0.0, curvature=curv, actual_sigma=actual_sigma)

    @classmethod
    def logistic_synthetic(cls, dimension: int = 10, n_samples: int = 512,
                           l2_reg: float = 0.1, sin_amplitude: float = 0.0,
                           seed: int = 7) -> "SgdProblem":
        if dimension < 1 or n_samples < 2:
            raise ValueError("dimension >= 1 and n_samples >= 2 required")
        if not (_finite(l2_reg, sin_amplitude) and l2_reg > 0.0 and sin_amplitude >= 0.0):
            raise ValueError("finite l2_reg > 0 and sin_amplitude >= 0 required")
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
        smooth = float(np.linalg.eigvalsh(hess)[-1]) + sin_amplitude

        prob = cls(kind="logistic_synthetic", dimension=dimension,
                   smoothness=smooth, sigma=0.0, theta1=theta1,
                   theta_star=theta1, loss_star=0.0, data_x=x, data_y=y,
                   l2_reg=l2_reg, sin_amplitude=sin_amplitude)
        theta_star = _newton_minimum(prob, theta1)
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
        return replace(prob, sigma=math.sqrt(sig), theta_star=theta_star, loss_star=loss_star)

    # -- loss and gradients -------------------------------------------------

    def loss(self, theta: np.ndarray) -> float | np.ndarray:
        """Full loss. The input's ndim picks the shape, as in grad: a float
        for a point (d,), an (R,) array for a stack (R, d), R = 1 included."""
        arr = np.atleast_2d(np.asarray(theta, dtype=float))
        if self.kind == "quadratic":
            diff = arr - self.theta_star
            out = 0.5 * np.sum(self.curvature * diff**2, axis=1)
        else:
            logits = arr @ self.data_x.T  # (R, n)
            out = np.mean(np.logaddexp(0.0, -self.data_y * logits), axis=1)
            out = out + 0.5 * self.l2_reg * np.sum(arr**2, axis=1)
            out = out + self.sin_amplitude * np.sum(np.sin(arr), axis=1)
        return out if np.ndim(theta) > 1 else float(out[0])

    def grad(self, theta: np.ndarray) -> np.ndarray:
        """Exact full gradient, in the input's shape: (d,) or (R, d)."""
        arr = np.atleast_2d(np.asarray(theta, dtype=float))
        if self.kind == "quadratic":
            out = self.curvature * (arr - self.theta_star)
        else:
            logits = arr @ self.data_x.T
            w = _sigmoid(-self.data_y * logits) * self.data_y  # (R, n)
            out = -(w @ self.data_x) / self.data_x.shape[0]
            out = out + self.l2_reg * arr + self.sin_amplitude * np.cos(arr)
        return out if np.ndim(theta) > 1 else out[0]

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


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# The logistic optimum: damped Newton steps through a Cholesky factorisation.
# Where the Hessian is not positive definite (the sine term can make it
# indefinite), the smallest shift of this ladder, times the Hessian's
# infinity norm, that lets the factorisation succeed is added to its
# diagonal; the last entry makes H + shift I strictly diagonally dominant,
# so it always succeeds.
_SHIFT_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 2.0)
_NEWTON_MAX_ITER = 200
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-40
# The loss's rounding error, relative to max(|loss|, 1).
_LOSS_ROUNDOFF = 64 * np.finfo(float).eps


def _logistic_hessian(prob: SgdProblem, theta: np.ndarray) -> np.ndarray:
    """Exact Hessian of a logistic_synthetic loss at one point. The data
    weight s(1 - s) is taken as s(m) s(-m), which keeps its precision where
    s is near 1; einsum sums in a fixed order, whatever the BLAS threads."""
    x = prob.data_x
    margin = prob.data_y * (x @ theta)
    weight = _sigmoid(margin) * _sigmoid(-margin)
    hess = np.einsum("nd,ne->de", weight[:, None] * x, x) / x.shape[0]
    hess[np.diag_indices_from(hess)] += prob.l2_reg - prob.sin_amplitude * np.sin(theta)
    return hess


def _newton_direction(hess: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, bool]:
    """-(H + shift I)^-1 g for the smallest shift of the ladder at which the
    Cholesky factorisation succeeds, and whether that shift was 0."""
    scale = float(np.abs(hess).sum(axis=1).max()) or 1.0
    eye = np.eye(hess.shape[0])
    for shift in _SHIFT_LADDER:
        try:
            low = np.linalg.cholesky(hess + shift * scale * eye)
        except np.linalg.LinAlgError:
            continue
        return -np.linalg.solve(low.T, np.linalg.solve(low, g)), shift == 0.0
    raise AssertionError("a diagonally dominant matrix failed to factorise")


def _newton_minimum(prob: SgdProblem, theta: np.ndarray) -> np.ndarray:
    """A local minimum of prob's loss, reached from theta by damped Newton
    steps with Armijo backtracking on the loss.

    Once the step's predicted decrease falls below the loss's rounding
    error, the loss can no longer rank points, so an unshifted full step is
    kept while it lowers the gradient norm. The search stops where a full
    step lowers neither the loss nor the gradient norm, where backtracking
    finds no decrease, or after _NEWTON_MAX_ITER steps; it always returns
    the last point it accepted.
    """
    f = prob.loss(theta)
    g = prob.grad(theta)
    g_norm = float(np.linalg.norm(g))
    for _ in range(_NEWTON_MAX_ITER):
        if g_norm == 0.0:
            break
        step, unshifted = _newton_direction(_logistic_hessian(prob, theta), g)
        slope = float(g @ step)
        resolvable = -slope > _LOSS_ROUNDOFF * max(abs(f), 1.0)
        t = 1.0
        while True:
            cand = theta + t * step
            f_cand = prob.loss(cand)
            if f_cand <= f + _ARMIJO * t * slope or (unshifted and not resolvable):
                break
            t *= 0.5
            if t < _MIN_STEP:
                return theta
        g_cand = prob.grad(cand)
        g_cand_norm = float(np.linalg.norm(g_cand))
        if not (f_cand < f or g_cand_norm < g_norm):
            break
        theta, f, g, g_norm = cand, f_cand, g_cand, g_cand_norm
    return theta


@dataclass(frozen=True)
class BatchSchedule:
    """How the per-step total batch b_i is realized.

    kind "none": b_i = b_max every step. kind "per_worker_bernoulli": each
    of n_workers drops its whole local batch (b_max / n_workers samples)
    independently with probability p_drop. kind "timing_driven": a timing
    simulation iteration decides how many micro-batches each worker
    completes under sim.tau; b_i counts the surviving samples. It reads only
    sim.fleet, sim.m_per_step and sim.tau, and draws from run_many's stream
    root.derive(4). _evaluate counts completed before its stop-mode branch
    and without T_c, so sim.seed, sim.iterations, sim.t_comm and the stop
    mode change no batch.
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

    def draw(self, step: int, n_runs: int, gen, rng: RngStream,
             count: Optional[int] = None) -> np.ndarray:
        """Batch sizes for one step across n_runs independent runs, shape
        (n_runs,); with count, for steps step .. step + count - 1, shape
        (count, n_runs).

        Row k of a count-step draw equals draw(step + k, ...) called in
        order, bit for bit: gen is read in the same order either way, and
        timing-driven step s is iteration s of rng for n_runs copies of
        sim.fleet stacked in run order, so one engine call draws the block
        (run r's workers draw first, so its batches do not depend on n_runs).
        """
        rows = 1 if count is None else count
        if self.kind == "none":
            out = np.full((rows, n_runs), self.b_max, dtype=np.int64)
        elif self.kind == "per_worker_bernoulli":
            kept = gen.binomial(self.n_workers, 1.0 - self.p_drop, (rows, n_runs))
            out = kept * (self.b_max // self.n_workers)
        else:
            per_micro = self.b_max // (self.sim.fleet.n * self.sim.m_per_step)
            fleet = replace(self.sim.fleet, workers=self.sim.fleet.workers * n_runs)
            block = simulate_block(replace(self.sim, fleet=fleet), rng, np.arange(step, step + rows))
            out = per_micro * block.completed.reshape(rows, n_runs, -1).sum(axis=2)
        return out[0] if count is None else out


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
             rng: Optional[RngStream] = None, n_runs: int = 1):
    """Run n_runs independent trajectories in lockstep.

    Every run performs steps until its cumulative batch reaches k_total
    exactly (the final batch is clipped), so sum(alpha_i) = K holds per run.
    Returns a dict of six: theta_bar (the iterates averaged by batch
    weight), theta_sampled (one iterate picked with probability proportional
    to its batch) and theta_final, each (n_runs, d); realized_k, each run's
    batch total, (n_runs,); the step size eta; and steps, the step count of
    the slowest run.

    Steps run in blocks: one schedule draw and one call for the pick
    uniforms per block, with the clipped batches, the cumulative batch and
    the pick mask taken as array ops, so only the theta-dependent work runs
    step by step. No block runs past the step where the slowest run could
    first reach K, and each stream is read in step order whatever the block
    length, so the results are those of drawing one step at a time, bit for
    bit.
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
    batch_rng = root.derive(4)  # timing_driven: step s is iteration s

    k_int = int(k_total)
    cum = np.zeros(n_runs, dtype=np.int64)
    wavg = np.zeros((n_runs, d))
    pick = theta.copy()

    max_steps = _MAX_STEP_FACTOR * int(math.ceil(k_total / schedule.b_max)) + 8
    # Steps per draw call, at least one: the engine's cap on one block's
    # samples, where a timing-driven step draws n_runs * N * M latencies.
    grains = (schedule.sim.fleet.n * schedule.sim.m_per_step
              if schedule.kind == "timing_driven" else 1)
    max_block = _block_len(n_runs, grains)
    fixed_rate = lr_internal / float(schedule.b_max)
    step = 0
    while (cum < k_int).any():
        if step >= max_steps:
            raise RuntimeError("schedule failed to deliver K samples in the step budget")
        # The slowest run needs at least this many more steps, so the loop
        # takes every step of the block: none is drawn and thrown away.
        count = min(-(-(k_int - int(cum.min())) // schedule.b_max), max_block,
                    max_steps - step)
        # Batches are clipped to what is left of K, so a finished run has
        # cum == K exactly and its batch is 0.
        cums = schedule.draw(step, n_runs, batch_gen, batch_rng, count)
        np.cumsum(cums, axis=0, out=cums)
        cums += cum
        np.minimum(cums, k_int, out=cums)
        b = np.diff(cums, axis=0, prepend=cum[None])
        cum = cums[-1].copy()
        w = b.astype(float)
        # The weights are whole numbers, so cums is their running sum, exactly,
        # in float too; where it is 0 so is w, and no pick is taken.
        picked = (pick_gen.random((count, n_runs)) * cums < w)[:, :, None]
        if normalization == "actual_batch":
            denom = np.where(b > 0, b, 1).astype(float)[:, :, None]
        for s in range(count):
            wavg += w[s, :, None] * theta
            np.copyto(pick, theta, where=picked[s])
            d_sum = problem.grad_sum(theta, b[s], noise_gen)
            if normalization == "fixed_bmax":
                d_sum *= fixed_rate
            else:
                d_sum *= lr_internal
                d_sum /= denom[s]
            theta -= d_sum
        step += count

    realized_k = cum.astype(float)
    theta_bar = wavg / realized_k[:, None]
    return dict(theta_bar=theta_bar, theta_sampled=pick, theta_final=theta,
                eta=eta, steps=step, realized_k=realized_k)


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
    losses = problem.loss(res["theta_bar"]) - problem.loss_star
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
    grads = problem.grad(res["theta_sampled"])
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


def apply_compensation(strategy: str, base_plan: TrainingPlan,
                       completed_ratio: float) -> CompensationResult:
    """Adjust a training plan to recover compute lost to drops.

    completed_ratio is mean completed / M. "extra_steps" stretches the step
    count by 1 + R with R = 1/ratio - 1; "increased_batch" scales b_max by
    the same factor so the expected realized batch matches the original.
    """
    if not (0.0 < completed_ratio <= 1.0):
        raise ValueError("completed_ratio must be in (0, 1]; "
                         "a zero completion rate cannot be compensated")
    extra = 1.0 / completed_ratio - 1.0
    if strategy == "extra_steps":
        plan = TrainingPlan(int(math.ceil(base_plan.iterations * (1.0 + extra))),
                            base_plan.b_max)
    elif strategy == "increased_batch":
        plan = TrainingPlan(base_plan.iterations,
                            int(round(base_plan.b_max * (1.0 + extra))))
    else:
        raise ValueError(f"unknown compensation strategy {strategy!r}")
    return CompensationResult(strategy, extra, plan)

