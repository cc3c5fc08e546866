"""Link and channel delay models.

All durations are integer nanoseconds. Every model has a hard upper bound
(``bound()``): constant and uniform by construction, exponential by
truncation, empirical by its largest sample. Lower bounds are always zero.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

DEFAULT_EXP_CAP_FACTOR = 10.0


class DelayModel(NamedTuple):
    """A sampleable non-negative delay distribution with a known upper bound.

    kind is one of "constant", "uniform", "exponential", "empirical".
    Use the factory classmethods instead of the constructor.
    """

    kind: str
    value: int = 0                 # constant value
    hi: int = 0                    # uniform upper bound
    mean: int = 0                  # exponential mean
    cap: int = 0                   # exponential truncation point
    samples: tuple = ()            # empirical pool

    @classmethod
    def constant(cls, value: int) -> "DelayModel":
        if value < 0:
            raise ValueError("constant delay must be >= 0")
        return cls("constant", value=int(value))

    @classmethod
    def uniform(cls, hi: int) -> "DelayModel":
        """Uniform on the integers [0, hi]."""
        if hi < 0:
            raise ValueError("uniform upper bound must be >= 0")
        return cls("uniform", hi=int(hi))

    @classmethod
    def exponential(cls, mean: int, cap: int | None = None) -> "DelayModel":
        """Exponential with the given mean, truncated at ``cap``.

        Truncation is done by conditioning (inverse CDF restricted to
        [0, cap]), not by clamping, so the cap is never actually attained
        and no probability mass piles up at the bound.
        """
        if mean < 0:
            raise ValueError("exponential mean must be >= 0")
        if cap is None:
            cap = int(round(mean * DEFAULT_EXP_CAP_FACTOR))
        if mean > 0 and cap <= 0:
            raise ValueError("exponential cap must be positive")
        return cls("exponential", mean=int(mean), cap=int(cap))

    @classmethod
    def empirical(cls, samples) -> "DelayModel":
        pool = tuple(int(s) for s in samples)
        if not pool:
            raise ValueError("empirical pool must be non-empty")
        if any(s < 0 for s in pool):
            raise ValueError("empirical samples must be >= 0")
        return cls("empirical", samples=pool)

    def bound(self) -> int:
        """Hard upper bound on any value sample() can return."""
        if self.kind == "constant":
            return self.value
        if self.kind == "uniform":
            return self.hi
        if self.kind == "exponential":
            return self.cap
        return max(self.samples)

    def mean_value(self) -> float:
        """Analytic (or pool) mean of the model."""
        if self.kind == "constant":
            return float(self.value)
        if self.kind == "uniform":
            return self.hi / 2.0
        if self.kind == "exponential":
            if self.mean == 0:
                return 0.0
            r = self.cap / self.mean
            # mean of an exponential conditioned on X <= cap
            return self.mean * (1.0 - math.exp(-r) * (r + 1.0)) / (1.0 - math.exp(-r))
        return sum(self.samples) / len(self.samples)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF: the int64 delays for uniforms u in [0, 1), elementwise.

        The data plane maps one uniform per (packet, hop) through this, in
        bulk and one at a time alike, so every path calls the same numpy
        functions and gets the same bits.
        """
        if self.kind == "constant":
            return np.full(u.shape, self.value, dtype=np.int64)
        if self.kind == "uniform":
            return np.minimum(np.floor(u * (self.hi + 1)).astype(np.int64), self.hi)
        if self.kind == "exponential":
            if self.mean == 0:
                return np.zeros(u.shape, dtype=np.int64)
            x = np.log1p(u * (math.exp(-self.cap / self.mean) - 1.0)) * -self.mean
            return np.minimum(np.rint(x, out=x).astype(np.int64), self.cap)
        pool = np.asarray(self.samples, dtype=np.int64)
        return pool[np.minimum(np.floor(u * len(pool)).astype(np.int64), len(pool) - 1)]

    def sample(self, rng: np.random.Generator) -> int:
        if self.kind == "constant":
            return self.value
        if self.kind == "uniform":
            return int(rng.integers(0, self.hi, endpoint=True)) if self.hi else 0
        if self.kind == "exponential":
            if self.mean == 0:
                return 0
            u = rng.random()
            # inverse CDF of the truncated exponential on [0, cap]
            x = -self.mean * math.log1p(-u * (1.0 - math.exp(-self.cap / self.mean)))
            return min(int(round(x)), self.cap)
        return int(self.samples[int(rng.integers(0, len(self.samples)))])
