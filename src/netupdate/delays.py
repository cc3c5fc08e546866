"""Link and channel delay models.

All durations are integer nanoseconds. Every model has a hard upper bound
(``bound()``): constant and uniform by construction, exponential by
truncation, empirical by its largest sample. Lower bounds are always zero.

quantile_block draws the control plane's uniforms with numpy's generator or,
while numpy is not loaded, with a pure-Python twin of its stream, same bits.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EXP_CAP_FACTOR = 10.0
MAX_DELAY_NS = 2**63 - 1  # the largest delay quantile can return as an int64
# Uniforms a process may draw in Python, at about 0.7 us each, before it imports
# numpy and numpy.random (about 0.15 s) for the rest: at most 0.05 s lost.
PY_UNIFORMS = 2**16
_py_uniforms_left = PY_UNIFORMS   # of this process


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
        alike, so every path calls the same numpy functions and gets the same
        bits; quantile_block's Python path reproduces them (_quantiles).
        """
        import numpy as np

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


def quantile_block(seed: int, rows: int, models) -> list:
    """Column j of default_rng(seed).random((rows, len(models))) through
    models[j].quantile, as a list of ints, for each j.

    While numpy is not loaded, blocks that fit in what is left of the
    process's PY_UNIFORMS come from _pcg64_uniforms, whose bits are numpy's,
    unless a model is exponential: the bits of numpy's log1p depend on the
    CPU kernel it dispatches to, so math.log1p cannot stand in for it.
    """
    global _py_uniforms_left
    count = rows * len(models)
    if (count <= _py_uniforms_left and "numpy" not in sys.modules
            and all(m.kind != "exponential" for m in models)):
        _py_uniforms_left -= count
        u = _pcg64_uniforms(seed, count)
        return [_quantiles(m, u[j::len(models)]) for j, m in enumerate(models)]
    import numpy as np

    u = np.random.default_rng(seed).random((rows, len(models)))
    return [m.quantile(col).tolist() for m, col in zip(models, u.T)]


def _quantiles(model: DelayModel, u: list) -> list:
    """model.quantile(np.array(u)).tolist() of a constant, uniform or empirical
    model, bit for bit: the same float products, floored by int()."""
    if model.kind == "constant":
        return [model.value] * len(u)
    last = model.hi if model.kind == "uniform" else len(model.samples) - 1
    scale = float(last + 1)   # the float numpy multiplies by
    at = [min(int(x * scale), last) for x in u]
    return at if model.kind == "uniform" else [model.samples[k] for k in at]


_M32, _M53, _M64, _M128 = 2**32 - 1, 2**53 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_uniforms(seed: int, count: int) -> list:
    """numpy's default_rng(seed).random(count), bit for bit: SeedSequence(seed)
    hashes the seed's 32-bit words into a pool of four and draws PCG64's
    state and increment from it; PCG64 steps its 128-bit LCG and outputs
    XSL-RR, and a uniform is the top 53 bits of an output times 2^-53."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]

    def hasher(h, mult):   # SeedSequence's hash, with its running constant
        def hashmix(value):
            nonlocal h
            value = (value ^ h) * (h := h * mult & _M32) & _M32
            return value ^ value >> 16
        return hashmix

    mixin = hasher(0x43B0D7E5, 0x931E8875)
    pool = [mixin(word) for word in (words + [0] * 4)[:4]]

    def mix(dst, value):
        value = (0xCA01F9DD * pool[dst] - 0x4973F715 * mixin(value)) & _M32
        pool[dst] = value ^ value >> 16

    for src, dst in ((src, dst) for src in range(4) for dst in range(4) if dst != src):
        mix(dst, pool[src])
    for word, dst in ((word, dst) for word in words[4:] for dst in range(4)):
        mix(dst, word)
    state = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool * 2))   # 4 uint64s, little-endian
    s, inc = (state[k] << 64 | state[k + 1] << 96 | state[k + 2] | state[k + 3] << 32
              for k in (0, 4))
    inc = (inc << 1 | 1) & _M128
    lcg = ((inc + s) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(count):
        lcg = (lcg * _PCG_MULT + inc) & _M128
        x = (lcg >> 64 ^ lcg) & _M64
        # x rotated right by the state's top 6 bits, then its top 53 bits
        out.append(((x << 64 | x) >> (lcg >> 122) + 11 & _M53) * 2.0**-53)
    return out
