"""Consistency classes, the inconsistency metric and the timed modes' schedules.

A packet is consistently forwarded when every hop's realized action agrees
with the full old configuration, or every hop agrees with the full new one.
Anything mixed (including drops during the transition, which match neither
configuration end to end) is inconsistent. The inconsistency of a flow is
the inconsistent-packet count divided by the flow rate: the time-equivalent
length of the disruption the update caused. A packet's verdict lives in the
walk's agreement code, and CLASS_OF_AGREES[code] names its class.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

from .model import MAX_DURATION_NS, Schedule, SystemParameters, UpdateProcedure, validated

CONSISTENT_OLD = "consistent_old"
CONSISTENT_NEW = "consistent_new"
INCONSISTENT = "inconsistent"
# by agreement code: bit 0 set if every hop agreed with the old configuration, bit
# 1 if with the new one; old wins a tie
CLASS_OF_AGREES = (INCONSISTENT, CONSISTENT_OLD, CONSISTENT_NEW, CONSISTENT_OLD)


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

    def csv_row(self) -> str:
        rate = int(self.rate_pps) if float(self.rate_pps).is_integer() else self.rate_pps
        return f"{self.flow_id},{self.n_inconsistent},{rate},{self.inconsistency_ns}"


def measure_inconsistency(run, flow: TestFlow) -> InconsistencyReport:
    """Count the flow's inconsistently forwarded packets and divide by its rate.

    Requires this very flow to have been simulated against the run (see
    simulator.run_flows) over a window covering the whole update plus drain
    margins; otherwise the count undershoots. Another flow of the same id is
    an error, since its rate would scale the count wrongly. The walk already
    compared every hop with both configurations, so this sums the runs of
    packets that agreed with neither.
    """
    packets = run.flow_traces.get(flow.flow_id)
    if packets is None:
        raise ValueError(f"flow {flow.flow_id!r} was not simulated against this run")
    if packets.flow != flow:
        raise ValueError(f"flow {flow.flow_id!r} was simulated as {packets.flow}, not {flow}")
    n = sum(count for count, _, _, agrees in packets.runs if not agrees)
    return InconsistencyReport(flow.flow_id, n, flow.rate_pps, n * flow.spacing_ns)


def _chain(t1: int, gaps) -> Schedule:
    """Phase 1 at t1 and each later phase one gap after the phase before."""
    return Schedule.build(dict(enumerate(accumulate(gaps, initial=t1), start=1)))


def worst_case_schedule(proc: UpdateProcedure, t1: int, params: SystemParameters) -> Schedule:
    """Tightest schedule that still guarantees consistency under the bounds.

    Consecutive phases are delta_sched apart; a phase of proc.gc_phases()
    waits d_n more, so that en-route packets of the superseded tag drain
    before their rules disappear.
    """
    gc_phases = proc.gc_phases()
    return _chain(t1, (params.delta_sched + (params.d_n if j in gc_phases else 0)
                       for j in range(2, proc.num_phases + 1)))


def knob_schedule(t1: int, d: int, params: SystemParameters) -> Schedule:
    """Schedule for a two-phase + garbage-collection procedure where the gap
    between the ingress switchover and garbage collection is an explicit
    knob d instead of the full network-drain bound.

    d >= d_n reproduces the fully consistent worst-case schedule; smaller d
    trades a shorter update for a bounded, predictable inconsistency.
    """
    if d < 0:
        raise ValueError("knob d must be >= 0")
    return _chain(t1, (params.delta_sched, params.delta_sched + d))


def simultaneous_schedule(t: int, num_phases: int = 3) -> Schedule:
    """All phases of a procedure at the same instant; by default the three
    of a two-phase + GC procedure.

    No rule duplication interval at all, at the cost of an inconsistency
    equal to the network traversal time.
    """
    return _chain(t, [0] * (num_phases - 1))
