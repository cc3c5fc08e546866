"""Delay-trace analysis: nearest-rank percentiles and tail-to-mean ratios.

Production RTT traces are long-tailed, so planning against a hard delay
bound really means planning against a sufficiently high percentile. These
helpers quantify how far a tail percentile sits above the mean for a given
trace, which is exactly the margin a bound-based planner gives away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class DelayTrace:
    """A labelled list of non-negative delay samples (integer nanoseconds)."""

    samples: tuple
    label: str = ""

    def __post_init__(self):
        if any(s < 0 for s in self.samples):
            raise ValueError("delay samples must be >= 0")


def percentile(trace: DelayTrace, p: float) -> int:
    """Nearest-rank percentile: the value at 1-based index ceil(p * n) in sorted order.

    No interpolation; the result is always one of the samples.
    """
    return percentiles(trace, [p])[0]


def percentiles(trace: DelayTrace, ps) -> list:
    """Nearest-rank percentile for each p in ps, from a single sort of the trace."""
    if not trace.samples:
        raise ValueError("cannot take a percentile of an empty trace")
    if any(not 0.0 < p <= 1.0 for p in ps):
        raise ValueError("p must be in (0, 1]")
    ordered = sorted(trace.samples)
    return [ordered[math.ceil(p * len(ordered)) - 1] for p in ps]


def mean(trace: DelayTrace) -> float:
    if not trace.samples:
        raise ValueError("cannot take the mean of an empty trace")
    return sum(trace.samples) / len(trace.samples)


def tail_ratio(trace: DelayTrace, p: float) -> float:
    """percentile(trace, p) divided by the trace mean."""
    m = mean(trace)
    if m <= 0:
        raise ValueError("tail ratio undefined for zero-mean trace")
    return percentile(trace, p) / m


def read_trace(path) -> DelayTrace:
    """Parse a trace file: one decimal milliseconds value per line, '#' comments allowed."""
    path = Path(path)
    samples = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ms = float(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
        if ms < 0:
            raise ValueError(f"{path}:{lineno}: negative delay")
        samples.append(int(round(ms * 1_000_000)))
    if not samples:
        raise ValueError(f"{path}: no samples found")
    return DelayTrace(tuple(samples), label=path.name)
