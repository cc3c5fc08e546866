"""Per-packet consistency classification and the inconsistency metric.

A packet is consistently forwarded when every hop's realized action agrees
with the full old configuration, or every hop agrees with the full new one.
Anything mixed (including drops during the transition, which match neither
configuration end to end) is inconsistent. The inconsistency of a flow is
the inconsistent-packet count divided by the flow rate: the time-equivalent
length of the disruption the update caused.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import MAX_DURATION_NS, ForwardingState, Schedule, SystemParameters, validated

CONSISTENT_OLD = "consistent_old"
CONSISTENT_NEW = "consistent_new"
INCONSISTENT = "inconsistent"
_CLASSES = np.array([CONSISTENT_OLD, CONSISTENT_NEW, INCONSISTENT], dtype=object)


@validated
class TestFlow(NamedTuple):
    """Identical packets at a constant rate from one ingress port.

    Packets enter untagged; the ingress switch stamps the version tag.
    """

    __test__ = False  # probe-traffic type, not a pytest case

    flow_id: str
    ingress_switch: str
    ingress_port: int
    rate_pps: float

    def _validate(self):
        # NaN fails every comparison, so test for the valid range
        if not 0 < self.rate_pps < math.inf:
            raise ValueError("flow rate must be positive and finite")
        if not 1 <= self.spacing_ns <= MAX_DURATION_NS:
            raise ValueError(f"flow rate {self.rate_pps:g} pps spaces packets "
                             f"{self.spacing_ns} ns apart, outside [1, 10^18]")

    @property
    def spacing_ns(self) -> int:
        return int(round(1e9 / self.rate_pps))

    @classmethod
    def from_bitrate(cls, flow_id: str, ingress_switch: str, ingress_port: int,
                     mbps: float, packet_bytes: int = 1000) -> "TestFlow":
        """Rate conversion helper: bits/s over the packet size gives packets/s."""
        return cls(flow_id, ingress_switch, ingress_port,
                   mbps * 1e6 / (packet_bytes * 8))


class InconsistencyReport(NamedTuple):
    flow_id: str
    n_inconsistent: int
    rate_pps: float
    inconsistency_ns: int
    classes: tuple  # per-packet class, in trace order

    def __repr__(self) -> str:  # every field but classes, which has one entry per packet
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:-1], self))
        return f"{type(self).__name__}({shown})"

    def csv_row(self) -> str:
        rate = int(self.rate_pps) if float(self.rate_pps).is_integer() else self.rate_pps
        return f"{self.flow_id},{self.n_inconsistent},{rate},{self.inconsistency_ns}"


def classify_packet(trace, old_config: ForwardingState,
                    new_config: ForwardingState) -> str:
    """Classify one packet trace against the two full configurations.

    The comparison at each hop uses the packet as it actually arrived there
    (tags may have been rewritten upstream), so a packet stamped with the
    old tag is judged against what the old configuration does with an
    old-tagged packet, and likewise for the new one.
    """
    for config in (old_config, new_config):
        for hop in trace.hops:
            if hop.switch not in config.tables:
                raise ValueError(
                    f"trace visits switch {hop.switch!r} absent from the configuration")

    def matches(config):
        for hop in trace.hops:
            action, _ = config.lookup(hop.switch, trace.flow_id, hop.tag, hop.in_port)
            if action != hop.action:
                return False
        return True

    if matches(old_config):
        return CONSISTENT_OLD
    if matches(new_config):
        return CONSISTENT_NEW
    return INCONSISTENT


def measure_inconsistency(run, flow: TestFlow) -> InconsistencyReport:
    """Count the flow's inconsistently forwarded packets and divide by its rate.

    Requires the flow to have been simulated against the run (see
    simulator.run_flows) over a window covering the whole update plus drain
    margins; otherwise the count undershoots. The walk already compared
    every hop with both configurations, so this reads its agreement flags;
    classify_packet is the per-trace oracle for the same classes.
    """
    packets = run.flow_traces.get(flow.flow_id)
    if packets is None:
        raise ValueError(f"flow {flow.flow_id!r} was not simulated against this run")
    codes = np.where(packets.agrees_old, 0, np.where(packets.agrees_new, 1, 2))
    n = int(np.count_nonzero(codes == 2))
    classes = tuple(_CLASSES[codes].tolist())
    return InconsistencyReport(flow.flow_id, n, flow.rate_pps, n * flow.spacing_ns, classes)


def knob_schedule(t1: int, d: int, params: SystemParameters) -> Schedule:
    """Schedule for a two-phase + garbage-collection procedure where the gap
    between the ingress switchover and garbage collection is an explicit
    knob d instead of the full network-drain bound.

    d >= d_n reproduces the fully consistent worst-case schedule; smaller d
    trades a shorter update for a bounded, predictable inconsistency.
    """
    if d < 0:
        raise ValueError("knob d must be >= 0")
    t2 = t1 + params.delta_sched
    tg = t2 + params.delta_sched + d
    return Schedule.build({1: t1, 2: t2, 3: tg})


def simultaneous_schedule(t: int) -> Schedule:
    """All three phases of a two-phase + GC procedure at the same instant.

    No rule duplication interval at all, at the cost of an inconsistency
    equal to the network traversal time.
    """
    return Schedule.build({1: t, 2: t, 3: t})
