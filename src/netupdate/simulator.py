"""Deterministic discrete-event execution of update procedures.

A run is two stages. The control-plane stage executes the controller and
switch behaviors (greedy untimed, or scheduled timed), orders the
executions by (time, message index) and produces a state timeline: every
switch's rule table as a function of real time. Packets never influence
switch state, so the split loses nothing and keeps both stages
reproducible from a single seed.

The data-plane stage walks injected test-flow packets through that
timeline. Each flow's generator draws one uniform per (packet, hop slot),
an n x |switches| matrix drawn WALK_BLOCK rows at a time, and a link's
delay for packet k leaving hop h is the link model's inverse CDF at
u[k, h]; a packet's delays therefore do not depend on the packets before
it. run_flows walks a block of a flow's packets in step, hop by hop: it
groups the live packets by (switch, in_port, tag), finds each packet's
table version by binary search on the switch's change times, and resolves
and classifies each (group, version) pair once against the timeline and
both full configurations. It keeps per-packet vectors only.
forward_packet is the one-packet oracle: it draws the same row of
uniforms and walks the packet alone; it alone builds PacketTraces, and a
differential test holds the walk's vectors to its traces and verdicts.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from .delays import DelayModel
from .model import (
    ENGINE_VERSION,  # noqa: F401 - part of this module's API
    ForwardingState,
    Network,
    SystemParameters,
    TimedUpdateProcedure,
    UpdateProcedure,
    apply_update,
    lookup_rule,
)

# Packets the data plane walks at a time: a walk's uniforms are WALK_BLOCK x
# |switches| and its grouping scratch O(WALK_BLOCK), whatever the flow's rate.
WALK_BLOCK = 2**16
# Most packets a run's flows may inject in all (injection window / spacing,
# summed over flows); the per-packet arrays of run_flows are O(MAX_PACKETS).
MAX_PACKETS = 2**22


class PacketCapError(ValueError):
    """A run's flows would inject more than MAX_PACKETS packets; flow_id
    names the flow with the most."""

    def __init__(self, flow_id, message: str):
        super().__init__(message)
        self.flow_id = flow_id


class TimeRangeError(ValueError):
    """A flow's packet times could leave the int64 nanosecond range."""


class RunDelays(NamedTuple):
    """Delay models for the controller channel and the inter-message gap."""

    ctrl: DelayModel
    gap: DelayModel

    @classmethod
    def default(cls, params: SystemParameters) -> "RunDelays":
        return cls(DelayModel.uniform(params.d_c), DelayModel.uniform(params.delta_msg))


class ExecRecord(NamedTuple):
    """One singleton update taking effect on a switch."""

    time_ns: int
    switch: str
    phase: int
    mode: str
    msg_index: int


class LogLine(NamedTuple):
    time_ns: int
    kind: str
    src: str
    dst: str
    phase: int
    detail: str

    def format(self) -> str:
        return f"{self.time_ns} {self.kind} {self.src} {self.dst} {self.phase} {self.detail}"


class Fault(NamedTuple):
    time_ns: int
    kind: str   # "missed_schedule" | "bound_violation"
    where: str
    detail: str


class StateTimeline:
    """Per-switch rule tables as a step function of real time.

    Version 0 of a switch's table is its initial table; version v is the
    table after the switch's v-th executed update. The executions are folded
    in order, per switch: each copies its target's latest table, not the
    whole switch map, and applies itself through apply_update, the step
    ForwardingState.apply takes, so each absent rule is warned of in
    execution order, as a fold through ForwardingState.apply would.
    """

    def __init__(self, net: Network, initial: ForwardingState, execs):
        self._times = {s: [] for s in net.switches}
        self._tables = {s: [initial.tables[s]] for s in net.switches}
        for time_ns, update in execs:
            versions = self._tables.get(update.target)
            if versions is None:
                raise ValueError(f"update targets unknown switch {update.target!r}")
            table = dict(versions[-1])
            apply_update(table, update)
            versions.append(table)
            self._times[update.target].append(time_ns)

    def versions(self, switch: str, times: np.ndarray) -> np.ndarray:
        """Table version in force at each of the given instants (bulk lookup)."""
        return np.searchsorted(self._times[switch], times, side="right")

    def table_version(self, switch: str, version: int) -> dict:
        return self._tables[switch][version]

    def lookup(self, switch: str, time_ns: int, flow_id: str, tag, port: int):
        """Action seen by a packet at this switch and instant.

        A rule change at time t is visible to a packet arriving exactly at t.
        """
        if switch not in self._tables:
            raise ValueError(f"unknown switch {switch!r}")
        table = self._tables[switch][bisect_right(self._times[switch], time_ns)]
        return lookup_rule(table, flow_id, tag, port)


class RunResult:
    """Everything observable about one simulated update."""

    def __init__(self, mode: str, seed: int, params: SystemParameters, first_send_ns: int,
                 exec_log: list, messages: list, faults: list, old_config: ForwardingState,
                 new_config: ForwardingState, timeline: StateTimeline,
                 sched_first_ns: int | None = None, flow_traces: dict | None = None):
        self.mode, self.seed, self.params, self.first_send_ns = mode, seed, params, first_send_ns
        self.exec_log, self.messages, self.faults = exec_log, messages, faults
        self.old_config, self.new_config, self.timeline = old_config, new_config, timeline
        self.sched_first_ns = sched_first_ns
        self.flow_traces = {} if flow_traces is None else flow_traces  # flow_id -> FlowPackets

    @property
    def first_exec_ns(self) -> int:
        return min(e.time_ns for e in self.exec_log)

    @property
    def last_exec_ns(self) -> int:
        return max(e.time_ns for e in self.exec_log)

    @property
    def update_duration_ns(self) -> int:
        """Time from the first rule taking effect to the last one."""
        return self.last_exec_ns - self.first_exec_ns


def _ordered_messages(proc: UpdateProcedure):
    """(message index, phase, update) in send order: phase by phase, and in
    procedure order within a phase (the sort is stable)."""
    return [(idx, j, u) for idx, (u, j) in enumerate(sorted(proc.items, key=lambda it: it[1]))]


def _control_plane(mode, net, proc, params, delays, seed, initial_state, pin_worst_case,
                   first_send, guards, first_ctrl, execute, sched_first=None) -> RunResult:
    """Send proc's messages in _ordered_messages order, the first at
    first_send, and fold the executions they cause into a RunResult.

    Consecutive sends are a sampled gap apart, and the first send of phase j
    waits at least guards.get(j, 0) after the send before it. Each message
    reaches its switch after a sampled controller delay. pin_worst_case
    takes every gap at delta_msg and every controller delay at d_c, except
    message 0's, which is first_ctrl. A gap or delay beyond its bound is a
    bound_violation fault. execute(arrival, rng, idx, phase, target, faults)
    returns when the update takes effect and a note for its send line.

    Executions at equal times take effect in message order, which pins down
    the run; the new configuration folds the whole procedure in message order,
    quietly, since the timeline's fold already warns of each absent rule.
    """
    delays = delays or RunDelays.default(params)
    initial = initial_state or ForwardingState.empty(net)
    rng = np.random.default_rng(seed)
    execs, messages, faults = [], [], []
    t, prev_phase = first_send, None
    switches = set(net.switches)
    for idx, phase, update in _ordered_messages(proc):
        if update.target not in switches:
            raise ValueError(f"procedure targets unknown switch {update.target!r}")
        if idx > 0:
            gap = params.delta_msg if pin_worst_case else delays.gap.sample(rng)
            if gap > params.delta_msg:
                faults.append(Fault(t, "bound_violation", "ctrl",
                                    f"gap {gap} > delta_msg {params.delta_msg}"))
            t += max(gap, guards.get(phase, 0) if phase != prev_phase else 0)
        if pin_worst_case:
            ctrl = params.d_c if idx > 0 else first_ctrl
        else:
            ctrl = delays.ctrl.sample(rng)
        if ctrl > params.d_c:
            faults.append(Fault(t, "bound_violation", update.target,
                                f"ctrl delay {ctrl} > d_c {params.d_c}"))
        exec_time, note = execute(t + ctrl, rng, idx, phase, update.target, faults)
        messages.append(LogLine(t, "send", "ctrl", update.target, phase,
                                f"msg={idx} mode={update.mode}{note}"))
        execs.append((exec_time, idx, phase, update))
        prev_phase = phase

    execs.sort(key=lambda e: e[:2])
    exec_log = [ExecRecord(t, u.target, phase, u.mode, idx) for t, idx, phase, u in execs]
    messages += [LogLine(t, "exec", u.target, "-", phase, f"msg={idx} mode={u.mode}")
                 for t, idx, phase, u in execs]
    messages.sort(key=lambda m: (m.time_ns, 0 if m.kind == "send" else 1))
    return RunResult(
        mode=mode, seed=seed, params=params, first_send_ns=first_send,
        exec_log=exec_log, messages=messages, faults=faults, old_config=initial,
        new_config=initial.apply(*(u for _, _, u in _ordered_messages(proc)), warn=False),
        timeline=StateTimeline(net, initial, [(t, u) for t, _, _, u in execs]),
        sched_first_ns=sched_first)


def run_untimed(net: Network, proc: UpdateProcedure, params: SystemParameters,
                delays: RunDelays | None = None, seed: int = 0,
                initial_state: ForwardingState | None = None,
                start_time: int = 0, pin_worst_case: bool = False) -> RunResult:
    """Greedy untimed execution: each message goes out at the earliest time
    that still guarantees phase ordering under the declared bounds.

    Consecutive sends are separated by a sampled gap; at a phase boundary the
    controller additionally waits until d_c (or d_c + d_n when the next phase
    is garbage collection) has elapsed since the last send of the finished
    phase. A switch completes its update when the message arrives; the
    controller-to-switch delay bound already includes install time.

    pin_worst_case realizes the worst-case corner exactly: every gap at its
    bound, every controller delay at its bound except the very first message,
    which takes the zero lower bound so the duration measurement starts at
    the earliest possible instant.
    """
    gc_phases = proc.gc_phases()
    guards = {j: params.d_c + (params.d_n if j in gc_phases else 0)
              for j in range(1, proc.num_phases + 1)}
    return _control_plane("untimed", net, proc, params, delays, seed, initial_state,
                          pin_worst_case, start_time, guards, 0,
                          lambda arrival, *_: (arrival, ""))


def run_timed(net: Network, tproc: TimedUpdateProcedure, params: SystemParameters,
              delays: RunDelays | None = None, seed: int = 0,
              initial_state: ForwardingState | None = None,
              pin_worst_case: bool = False) -> RunResult:
    """Timed execution: the controller ships every message t_su before the
    first scheduled time; each switch runs its update when its clock
    reaches the scheduled time.

    Real execution time is scheduled time + execution jitter, always within
    [T, T + delta_sched]. A message that arrives after its planned execution
    instant is executed immediately on arrival and recorded as a
    missed_schedule fault.

    pin_worst_case stretches every jitter to the bound except the
    earliest-scheduled update, message 0 (schedules are non-decreasing in
    phase order), which executes exactly on time.
    """
    proc, schedule = tproc.procedure, tproc.schedule
    t_su = params.t_su if params.t_su is not None else (
        params.d_c + params.delta_msg * len(proc.items))
    sched_first = schedule.first_time()

    def execute(arrival, rng, idx, phase, target, faults):
        sched_t = schedule.time_for_phase(phase)
        if pin_worst_case:
            jitter = params.delta_sched if idx > 0 else 0
        else:
            jitter = int(rng.integers(0, params.delta_sched, endpoint=True))
        planned = sched_t + jitter
        if arrival > planned:
            faults.append(Fault(arrival, "missed_schedule", target,
                                f"arrival {arrival} > planned exec {planned}"))
        return max(arrival, planned), f" sched={sched_t}"

    return _control_plane("timed", net, proc, params, delays, seed, initial_state,
                          pin_worst_case, sched_first - t_su, {}, params.d_c, execute,
                          sched_first=sched_first)


# ---------------------------------------------------------------------------
# data plane


class Hop(NamedTuple):
    time_ns: int
    switch: str
    in_port: int
    tag: str | None   # packet tag on arrival at this hop
    action: object


class PacketTrace(NamedTuple):
    flow_id: str
    t_in: int
    hops: tuple
    delivered: bool
    truncated: bool = False
    stranded: bool = False


def _packet_count(window, spacing_ns: int) -> int:
    """Packets over [t0, t1) at spacing_ns, ceil((t1 - t0) / spacing_ns),
    but at least one."""
    t0, t1 = window
    return max(1, -((t0 - t1) // spacing_ns))


def inject_flow(net: Network, flow, window) -> np.ndarray:
    """Arrival times (int64) of a test flow's packets over [t0, t1) at exact
    1/R spacing; a window shorter than one spacing still carries one packet."""
    if (flow.ingress_switch, flow.ingress_port) not in net.ingress_ports:
        raise ValueError(f"flow {flow.flow_id}: ingress is not an ingress port")
    n = _packet_count(window, flow.spacing_ns)
    return window[0] + flow.spacing_ns * np.arange(n, dtype=np.int64)


def forward_packet(net: Network, timeline: StateTimeline, flow, t_in: int,
                   rng: np.random.Generator) -> PacketTrace:
    """Walk one packet of a flow, entering untagged at the flow's ingress at
    t_in, through the network, resolving each hop against the switch state
    as of the packet's arrival there.

    The packet draws one row of len(net.switches) uniforms up front; the
    link it leaves hop h by delays it by the link's inverse CDF at row[h].
    Hops beyond the switch count indicate a forwarding loop (possible in
    states that mix old and new rules); the trace is truncated and flagged.

    This is the one-packet-at-a-time oracle of run_flows.
    """
    sw, port = flow.ingress_switch, flow.ingress_port
    t, tag, flow_id = t_in, None, flow.flow_id
    row = rng.random(len(net.switches))
    hops = []
    delivered = truncated = stranded = False
    for h in range(len(net.switches)):
        action = timeline.lookup(sw, t, flow_id, tag, port)
        hops.append(Hop(t, sw, port, tag, action))
        if action.kind == "deliver":
            delivered = True
            break
        if action.kind == "drop":
            break
        if action.kind == "forward_tagged":
            tag = action.new_tag
        peer = net.peer(sw, action.out_port)
        if peer is None:
            stranded = True
            break
        t += int(peer[2].quantile(row[h:h + 1])[0])
        sw, port = peer[0], peer[1]
    else:
        truncated = True
    return PacketTrace(flow_id, t_in, tuple(hops), delivered, truncated, stranded)


class FlowPackets:
    """Per-packet results of one test flow, as arrays of length n in
    injection order (the names in ARRAYS); nothing is kept per hop.

    hops, t_last (the arrival time at the last hop), delivered, truncated
    and stranded describe each packet's walk; agrees_old / agrees_new say
    whether every realized hop action equals the old / new configuration's
    action for the packet as it arrived there. Iterating re-walks the
    packets with the oracle forward_packet on a fresh copy of the flow's
    generator, from net, timeline, flow, seed and index (the flow's
    position in flow-id order), and yields their PacketTraces.
    """

    ARRAYS = ("t_in", "hops", "t_last", "delivered", "truncated", "stranded",
              "agrees_old", "agrees_new")

    def __init__(self, net: Network, timeline: StateTimeline, flow, seed: int, index: int,
                 t_in: np.ndarray, hops: np.ndarray, t_last: np.ndarray,
                 delivered: np.ndarray, truncated: np.ndarray, stranded: np.ndarray,
                 agrees_old: np.ndarray, agrees_new: np.ndarray):
        self.net, self.timeline, self.flow, self.seed, self.index = (
            net, timeline, flow, seed, index)
        self.t_in, self.hops, self.t_last = t_in, hops, t_last
        self.delivered, self.truncated, self.stranded = delivered, truncated, stranded
        self.agrees_old, self.agrees_new = agrees_old, agrees_new

    @property
    def dropped(self) -> np.ndarray:
        """Packets that ended on a drop action (a rule or a table miss)."""
        return ~(self.delivered | self.truncated | self.stranded)

    def __len__(self) -> int:
        return len(self.t_in)

    def __iter__(self):
        rng = _flow_rng(self.seed, self.index)
        return (forward_packet(self.net, self.timeline, self.flow, t_in, rng)
                for t_in in self.t_in.tolist())

    def __eq__(self, other):
        if not isinstance(other, FlowPackets):
            return NotImplemented
        return self.flow == other.flow and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.ARRAYS)

    __hash__ = None


def _flow_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of the flow at this position in flow-id order."""
    return np.random.default_rng([seed, 7919 + index])


def _walk_flow(net: Network, run: RunResult, flow, index: int,
               t_in: np.ndarray) -> FlowPackets:
    """Forward all packets of a flow hop by hop in step, WALK_BLOCK packets
    at a time; packet k's hop h link delay is the link's inverse CDF at
    u[k, h], row k of the packets x switches uniforms that the flow's
    generator draws block by block.

    At each hop a block's live packets are grouped by (switch, in_port,
    tag); a group's packets find their table version by binary search on
    the switch's change times, and each (group, version) pair is resolved
    and compared against both configurations once.
    """
    n, n_hops = len(t_in), len(net.switches)
    flow_id = flow.flow_id
    timeline = run.timeline
    old_tables, new_tables = run.old_config.tables, run.new_config.tables
    rng = _flow_rng(run.seed, index)
    t = t_in.copy()
    hops = np.zeros(n, dtype=np.int64)
    delivered = np.zeros(n, dtype=bool)
    stranded = np.zeros(n, dtype=bool)
    truncated = np.zeros(n, dtype=bool)
    agrees_old = np.ones(n, dtype=bool)
    agrees_new = np.ones(n, dtype=bool)
    # each packet's (switch, in_port, tag), numbered in order of first sight;
    # packets enter untagged
    node_ids = {(flow.ingress_switch, flow.ingress_port, None): 0}
    node = np.zeros(n, dtype=np.int64)
    for start in range(0, n, WALK_BLOCK):
        # successive draws continue the stream, so this is rows start.. of one matrix
        u = rng.random((min(WALK_BLOCK, n - start), n_hops))
        live = np.arange(start, start + len(u))
        for h in range(n_hops):
            if not live.size:
                break
            hops[live] += 1
            nodes = list(node_ids)
            onward = []
            groups, group_of = np.unique(node[live], return_inverse=True)
            for g, node_id in enumerate(groups.tolist()):
                sw, port, tag = nodes[node_id]
                members = live[group_of == g]
                old_action = lookup_rule(old_tables[sw], flow_id, tag, port)
                new_action = lookup_rule(new_tables[sw], flow_id, tag, port)
                versions, version_of = np.unique(timeline.versions(sw, t[members]),
                                                  return_inverse=True)
                for v, version in enumerate(versions.tolist()):
                    ks = members[version_of == v] if len(versions) > 1 else members
                    action = lookup_rule(timeline.table_version(sw, version), flow_id, tag, port)
                    if action != old_action:
                        agrees_old[ks] = False
                    if action != new_action:
                        agrees_new[ks] = False
                    if action.kind == "deliver":
                        delivered[ks] = True
                        continue
                    if action.kind == "drop":
                        continue
                    peer = net.peer(sw, action.out_port)
                    if peer is None:
                        stranded[ks] = True
                        continue
                    if h + 1 < n_hops:   # past the last hop the packet is truncated
                        t[ks] += peer[2].quantile(u[ks - start, h])
                    out_tag = action.new_tag if action.kind == "forward_tagged" else tag
                    node[ks] = node_ids.setdefault((peer[0], peer[1], out_tag), len(node_ids))
                    onward.append(ks)
            live = np.concatenate(onward) if onward else live[:0]
        truncated[live] = True
    return FlowPackets(net, timeline, flow, run.seed, index, t_in, hops, t, delivered,
                       truncated, stranded, agrees_old, agrees_new)


def default_flow_window(run: RunResult, spacing_ns: int):
    """Injection window covering the whole update plus drain margins."""
    start_anchor = run.first_exec_ns
    if run.sched_first_ns is not None:
        start_anchor = min(start_anchor, run.sched_first_ns)
    margin = 2 * spacing_ns
    return (start_anchor - run.params.d_n - margin,
            run.last_exec_ns + run.params.d_n + margin)


def run_flows(net: Network, run: RunResult, flows, window=None) -> None:
    """Inject and forward every test flow, attaching a FlowPackets per flow
    to run.flow_traces.

    Each flow gets an independent generator derived from the run seed and
    the flow's position in flow-id order, so adding a flow never perturbs
    the packets of another. The generator draws one packets x switches
    matrix of uniforms, WALK_BLOCK rows at a time, row k for packet k:
    exactly the rows forward_packet draws when it walks the same packets
    one by one on the same generator.

    Before anything is drawn or allocated, a flow whose packet times could
    leave the int64 range raises TimeRangeError, and flows that would
    inject more than MAX_PACKETS packets in all raise PacketCapError.
    """
    flows = sorted(flows, key=lambda f: f.flow_id)
    windows = [window or default_flow_window(run, f.spacing_ns) for f in flows]
    bound = max((link.delay.bound() for link in net.links), default=0)
    for flow, (t0, t1) in zip(flows, windows):
        # hop times are int64 here, where the control plane's Python ints never overflow
        if max(-t0, t1 + len(net.switches) * bound) >= 2**63:
            raise TimeRangeError(
                f"flow {flow.flow_id}: packet times leave the int64 nanosecond range "
                f"(injected over [{t0}, {t1}) ns, then up to {len(net.switches)} hops "
                f"of up to {bound} ns each)")
    counts = [_packet_count(w, f.spacing_ns) for f, w in zip(flows, windows)]
    if sum(counts) > MAX_PACKETS:
        most = max(range(len(flows)), key=counts.__getitem__)
        raise PacketCapError(flows[most].flow_id, (
            f"flow {flows[most].flow_id} would inject {counts[most]} packets, and the run's "
            f"flows {sum(counts)} in all, more than the cap of {MAX_PACKETS}"))
    for index, (flow, w) in enumerate(zip(flows, windows)):
        run.flow_traces[flow.flow_id] = _walk_flow(net, run, flow, index,
                                                   inject_flow(net, flow, w))
