"""Delay-trace analysis: nearest-rank percentiles and tail-to-mean ratios.

Production RTT traces are long-tailed, so planning against a hard delay
bound really means planning against a sufficiently high percentile. These
helpers quantify how far a tail percentile sits above the mean for a given
trace, which is exactly the margin a bound-based planner gives away.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from .model import MAX_DURATION_NS

NS_PER_MS = 1_000_000
MAX_DELAY_MS = MAX_DURATION_NS // NS_PER_MS  # 10^12 ms
# ASCII characters that str.splitlines treats as line breaks and np.loadtxt as
# spaces: after a '#' the two parsers would disagree about where a comment ends.
_SPLITLINES_ONLY = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


class DelayTrace:
    """A labelled array of non-negative delay samples (integer nanoseconds).

    samples is a read-only one-dimensional int64 array; any sequence of
    integers is converted on construction.
    """

    __slots__ = ("samples", "label")

    def __init__(self, samples, label: str = ""):
        samples = np.asarray(samples, dtype=np.int64).view()
        if samples.ndim != 1:
            raise ValueError("delay samples must be one-dimensional")
        if (samples < 0).any():
            raise ValueError("delay samples must be >= 0")
        samples.flags.writeable = False
        self.samples, self.label = samples, label


def percentile(trace: DelayTrace, p: float) -> int:
    """Nearest-rank percentile: the value at 1-based index ceil(p * n) in sorted order.

    No interpolation; the result is always one of the samples.
    """
    return percentiles(trace, [p])[0]


def percentiles(trace: DelayTrace, ps) -> list:
    """Nearest-rank percentile for each p in ps, from one partition of the trace."""
    n = len(trace.samples)
    if not n:
        raise ValueError("cannot take a percentile of an empty trace")
    if any(not 0.0 < p <= 1.0 for p in ps):
        raise ValueError("p must be in (0, 1]")
    ranks = [math.ceil(p * n) - 1 for p in ps]
    if not ranks:
        return []
    return np.partition(trace.samples, sorted(set(ranks)))[ranks].tolist()


def mean(trace: DelayTrace) -> float:
    """The exact integer sum over n, rounded once, as sum(samples) / n on Python ints.

    The high and low 32-bit halves are summed apart, so neither sum can leave
    int64 for fewer than 2^31 samples.
    """
    a = trace.samples
    if not len(a):
        raise ValueError("cannot take the mean of an empty trace")
    total = (int((a >> 32).sum()) << 32) + int((a & 0xFFFFFFFF).sum())
    return total / len(a)


def tail_ratio(trace: DelayTrace, p: float) -> float:
    """percentile(trace, p) divided by the trace mean."""
    m = mean(trace)
    if m <= 0:
        raise ValueError("tail ratio undefined for zero-mean trace")
    return percentile(trace, p) / m


def read_trace(path) -> DelayTrace:
    """Parse a trace file: one decimal milliseconds value per line, '#' comments allowed.

    A regular ASCII file is read by np.loadtxt. Anything that path does not
    take as one column of values in [0, MAX_DELAY_MS] goes to parse_trace,
    the line-by-line oracle, which also writes every error message.
    """
    path = Path(path)
    data = path.read_bytes()
    # loadtxt opens the file again, which a pipe could not give twice
    if path.is_file() and data.isascii() and not any(c in data for c in _SPLITLINES_ONLY):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns about a file without data
                ms = np.loadtxt(path, comments="#", dtype=np.float64, ndmin=2)
        except ValueError:
            ms = None
        # NaN and both infinities fail the range test too
        if ms is not None and ms.shape[1:] == (1,) and len(ms) \
                and ((0 <= ms) & (ms <= MAX_DELAY_MS)).all():
            # rint is round-half-even, as round() in parse_trace
            return DelayTrace(np.rint(ms[:, 0] * NS_PER_MS).astype(np.int64), label=path.name)
    return parse_trace(data.decode(), path)


def parse_trace(text: str, path) -> DelayTrace:
    """The line-by-line trace parser: the oracle of read_trace's fast path.

    path names the trace in error messages and labels it.
    """
    path = Path(path)
    samples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ms = float(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
        if not math.isfinite(ms):
            raise ValueError(f"{path}:{lineno}: delay must be finite: {line!r}")
        if ms < 0:
            raise ValueError(f"{path}:{lineno}: negative delay")
        ns = int(round(ms * NS_PER_MS))
        if ns > MAX_DURATION_NS:
            raise ValueError(f"{path}:{lineno}: delay above {MAX_DELAY_MS} ms: {line!r}")
        samples.append(ns)
    if not samples:
        raise ValueError(f"{path}: no samples found")
    return DelayTrace(samples, label=path.name)
