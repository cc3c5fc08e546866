"""Link and channel delay models.

All durations are integer nanoseconds. Every model has a hard upper bound
(``bound()``): constant and uniform by construction, exponential by
truncation, empirical by its largest sample. Lower bounds are always zero.

quantile_block and the data plane draw with numpy's generator or, while numpy
is not loaded, with a pure-Python twin of its stream and quantiles, same bits.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EXP_CAP_FACTOR = 10.0
MAX_DELAY_NS = 2**63 - 1  # the largest delay quantile can return as an int64
# Uniforms (rows counted whole) a process may draw in Python, at up to 1.5 us each more
# than numpy's, before it imports numpy.random (about 0.15 s): 0.05 s lost at most.
PY_UNIFORMS = 2**15
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

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF: the int64 delays for uniforms u in [0, 1), an array or list.

        The only sampler: control-plane gaps, delays and jitters and data-plane
        link delays all map uniforms through it, in bulk and one at a time
        alike, with the same numpy functions and bits; _quantile's reproduce them.

        Exponential delays go through np.log1p, whose bits depend on the CPU
        kernel: the AVX-512 and baseline x86 kernels differ from means of 10^11
        ns on (2 of 10^6 draws). _quantile's guard assumes np.log1p within an
        ulp of math.log1p, as both are here; other architectures are not covered.
        """
        import numpy as np

        u = np.asarray(u)
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
    models[j].quantile, as a list of ints, for each j: by the Python twin
    while numpy is not loaded and the block fits in PY_UNIFORMS."""
    if (block := _python_rows([seed], rows * len(models), [(0, 1)])) is not None:
        u = list(next(block))
        return [list(map(_quantile(m), u[j::len(models)])) for j, m in enumerate(models)]
    import numpy as np

    u = np.random.default_rng(seed).random((rows, len(models)))
    return [m.quantile(col).tolist() for m, col in zip(models, u.T)]


def _python_rows(entropy, width: int, spans):
    """_pcg64_rows(entropy, width, spans) if numpy is not loaded and they fit in
    what is left of PY_UNIFORMS, which they use up, or hold none; else None."""
    global _py_uniforms_left
    count = width * sum(b - a for a, b in spans)
    if count and (count > _py_uniforms_left or "numpy" in sys.modules):
        return None
    _py_uniforms_left -= count
    return _pcg64_rows(entropy, width, spans)


def _quantile(model: DelayModel):
    """u -> int(model.quantile([u])[0]), bit for bit: the same float products,
    floored by int() or rounded half to even by round(). An exponential takes
    math.log1p for np.log1p, at most an ulp off, so x, the float it rounds, is
    within |x|·2^-50 of numpy's: a draw whose x lies farther than |x|·2^-44 from
    a half-integer rounds as numpy's does; the rest (x past 2^43) go to numpy."""
    if model.kind == "exponential" and model.mean:
        factor, mean = math.exp(-model.cap / model.mean) - 1.0, -model.mean

        def exponential(u):
            x = math.log1p(u * factor) * mean
            if 0.5 - abs(x - (r := round(x))) > x * 2**-44:
                return min(r, model.cap)
            return int(model.quantile([u])[0])
        return exponential
    if model.kind in ("constant", "exponential"):
        return lambda u: model.value   # 0 for an exponential
    last = model.hi if model.kind == "uniform" else len(model.samples) - 1
    scale = float(last + 1)   # the float numpy multiplies by
    if model.kind == "uniform":
        return lambda u: min(int(u * scale), last)
    return lambda u: model.samples[min(int(u * scale), last)]


_M32, _M53, _M64, _M128 = 2**32 - 1, 2**53 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_rows(entropy, width: int, spans):
    """Row k of numpy's default_rng(entropy).random((rows, width)) for each k
    in spans, ascending [a, b) ranges, bit for bit, each an iterator drawing on
    demand; entropy is a list of ints (default_rng([seed]) is default_rng(seed)).
    SeedSequence hashes their 32-bit words into a pool of four, which gives
    PCG64's state and increment; PCG64 steps its LCG, n steps in O(log n)
    squarings as advance() does, and outputs XSL-RR."""
    if min(entropy) < 0:
        raise ValueError(f"seed must be non-negative, got {entropy}")
    for (a, b), at in zip(spans, [0, *(b for _, b in spans)]):
        if not at <= a <= b:   # else the LCG would be stepped back, and never stop
            raise ValueError(f"span {(a, b)} is not an ascending [a, b) range from row {at}")
    words = [s >> k & _M32 for s in entropy for k in range(0, max(s.bit_length(), 1), 32)]

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

    def steps(n):   # (m, c): n steps at once, lcg -> lcg * m + c
        m, c, mult, add = 1, 0, _PCG_MULT, inc
        while n:
            if n & 1:
                m, c = m * mult & _M128, (c * mult + add) & _M128
            mult, add, n = mult * mult & _M128, (mult + 1) * add & _M128, n >> 1
        return m, c

    def row(lcg):
        for _ in range(width):
            lcg = (lcg * _PCG_MULT + inc) & _M128
            x = (lcg >> 64 ^ lcg) & _M64
            # x rotated right by the state's top 6 bits, its top 53 bits x 2^-53
            yield ((x << 64 | x) >> (lcg >> 122) + 11 & _M53) * 2.0**-53

    (row_m, row_c), at = steps(width), 0
    for a, b in spans:
        m, c = steps((a - at) * width)
        lcg, at = (lcg * m + c) & _M128, b
        for _ in range(a, b):
            yield row(lcg)
            lcg = (lcg * row_m + row_c) & _M128
