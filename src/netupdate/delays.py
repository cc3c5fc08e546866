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
MAX_DELAY_NS = 2**63 - 1  # the largest delay quantile can return as an int64


def _delay_ns(value, what: str) -> int:
    """value as an int, if it is a delay in [0, MAX_DELAY_NS]."""
    if not 0 <= value <= MAX_DELAY_NS:
        raise ValueError(f"{what} must be in [0, 2**63 - 1] ns, got {value}")
    return int(value)


class DelayModel(NamedTuple):
    """A non-negative delay distribution with a known upper bound.

    kind is one of "constant", "uniform", "exponential", "empirical".
    Use the factory classmethods, which reject values outside [0, MAX_DELAY_NS].
    """

    kind: str
    value: int = 0                 # constant value
    hi: int = 0                    # uniform upper bound
    mean: int = 0                  # exponential mean
    cap: int = 0                   # exponential truncation point
    samples: tuple = ()            # empirical pool

    @classmethod
    def constant(cls, value: int) -> "DelayModel":
        return cls("constant", value=_delay_ns(value, "constant delay"))

    @classmethod
    def uniform(cls, hi: int) -> "DelayModel":
        """Uniform on the integers [0, hi]."""
        return cls("uniform", hi=_delay_ns(hi, "uniform upper bound"))

    @classmethod
    def exponential(cls, mean: int, cap: int | None = None) -> "DelayModel":
        """Exponential with the given mean, truncated at ``cap``.

        Truncation is done by conditioning (inverse CDF restricted to
        [0, cap]), not by clamping, so the cap is never actually attained
        and no probability mass piles up at the bound.
        """
        if cap is None:
            cap = int(round(mean * DEFAULT_EXP_CAP_FACTOR))
        mean, cap = _delay_ns(mean, "exponential mean"), _delay_ns(cap, "exponential cap")
        if mean > 0 and cap <= 0:
            raise ValueError("exponential cap must be positive")
        return cls("exponential", mean=mean, cap=cap)

    @classmethod
    def empirical(cls, samples) -> "DelayModel":
        pool = tuple(_delay_ns(int(s), "empirical sample") for s in samples)
        if not pool:
            raise ValueError("empirical pool must be non-empty")
        return cls("empirical", samples=pool)

    def bound(self) -> int:
        """Hard upper bound on any value quantile() can return."""
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

        The only sampler: control-plane gaps, delays and jitters and data-plane
        link delays all map uniforms through it, in bulk and one at a time
        alike, so every path calls the same numpy functions and gets the same bits.
        """
        if self.kind == "constant":
            return np.full(u.shape, self.value, dtype=np.int64)
        if self.kind == "uniform":
            return np.minimum(np.floor(u * (self.hi + 1)).astype(np.int64), self.hi)
        if self.kind == "exponential":
            if self.mean == 0:
                return np.zeros(u.shape, dtype=np.int64)
            x = np.log1p(u * (math.exp(-self.cap / self.mean) - 1.0)) * -self.mean
            # near a cap of 2**63 - 1, x can round to 2.0**63, past int64: clamp
            # it to the float64 just below, which moves no smaller value
            np.minimum(np.rint(x, out=x), 2**63 - 1024, out=x)
            return np.minimum(x.astype(np.int64), self.cap)
        pool = np.asarray(self.samples, dtype=np.int64)
        return pool[np.minimum(np.floor(u * len(pool)).astype(np.int64), len(pool) - 1)]
