"""Per-worker, per-micro-batch compute-time models.

A worker's micro-batch time is a deterministic base plus random noise. Noise
comes from one of several parametric families or from an empirical trace
(resampled with replacement). Parametric specs expose analytic moments; the
bounded-lognormal spec used for the simulated-delay environment has its
censored moments in closed form through the normal CDF.
"""
from __future__ import annotations

import math
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
]

# Additive noise can drive a sampled time to zero or below; physical times
# are positive, so draws are floored at this fraction of the base mean.
POSITIVE_FLOOR_FRACTION = 1e-6


class NoiseSpec:
    """Base class for additive noise distributions (seconds or multipliers).

    The simulator fills a block of streams' draws in place: `fill` writes
    one stream's draws into a row of the block, and `finish` then maps the
    whole block once. Together they give the bits `sample` gives for each
    row's stream.
    """

    def sample(self, gen: np.random.Generator, size) -> np.ndarray:
        """An array of `size` draws from the numpy generator `gen`."""
        raise NotImplementedError

    def fill(self, gen: np.random.Generator, out: np.ndarray) -> None:
        """Write the draws of gen into the array out, before `finish`."""
        out[...] = self.sample(gen, out.shape)

    def finish(self, eps: np.ndarray) -> None:
        """Map rows that `fill` wrote, in place, to `sample`'s draws."""

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

    # numpy draws normal(loc, std) as loc + std * standard_normal(): the
    # standard draws fill the rows, and finish scales and shifts them.
    def fill(self, gen, out):
        gen.standard_normal(out=out)

    def finish(self, eps):
        eps *= self.std
        eps += self.loc

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

    def _z(self) -> float:
        """(ln b - mu) / s: where the bound sits in X's log scale."""
        mu, s = self._scaled_params()
        return (math.log(self.bound) - mu) / s

    def _partial_moment(self, k: int) -> float:
        """E[X^k; X < b] = exp(k mu + k^2 s^2 / 2) Phi(z - k s)."""
        mu, s = self._scaled_params()
        return math.exp(k * mu + 0.5 * (k * s) ** 2) * phi_cdf(self._z() - k * s)

    def _censored_moment(self, k: int) -> float:
        """E[min(X, b)^k] = E[X^k; X < b] + b^k Phi(-z); the tail is Phi(-z),
        not 1 - Phi(z), so that it keeps its precision where the bound sits
        far above the median."""
        return self._partial_moment(k) + self.bound**k * phi_cdf(-self._z())

    def mean(self):
        return self._censored_moment(1)

    def variance(self):
        z = self._z()
        if z >= 0.0:
            m1 = self._censored_moment(1)
            return self._censored_moment(2) - m1 * m1
        # Below the median min(X, b) = b - W with W = (b - X)+, which is
        # mostly 0: E[W]^2 is small next to E[W^2], so Var W does not cancel
        # as m2 - m1^2 does when nearly all the mass sits at b.
        b, below = self.bound, phi_cdf(z)
        w1 = b * below - self._partial_moment(1)
        w2 = b * (b * below - 2.0 * self._partial_moment(1)) + self._partial_moment(2)
        return w2 - w1 * w1


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
        """Micro-batch times for an array of noise draws, as `sample` maps them.

        base + scale * eps is computed in out, or else in one new array,
        without temporaries: on block-sized arrays their allocation cost
        more than the arithmetic."""
        t = np.multiply(eps, self._noise_scale(), out=out)
        if isinstance(t, np.ndarray):
            out = t
        t = np.add(t, self.base_mean, out=out)
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
