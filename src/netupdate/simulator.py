"""Deterministic discrete-event execution of update procedures.

A run is two stages. The control-plane stage executes the controller and
switch behaviors (greedy untimed, or scheduled timed), orders the
executions by (time, message index) and produces a state timeline: every
switch's rule table as a function of real time. Packets never influence
switch state, so the split loses nothing and keeps both stages
reproducible from a single seed.

The data-plane stage, run_flows, walks every test-flow packet of a run
through that timeline, flow by flow: as entry-time windows when every link
delay is constant, else as groups of packets split by the table versions they
see. Differential tests hold the windows to the table-driven walk and that to
forward_packet, the one-packet oracle that alone builds PacketTraces.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .delays import DelayModel, quantile_block
from .model import (
    ForwardingState,
    Network,
    SystemParameters,
    TimedUpdateProcedure,
    UpdateProcedure,
    apply_update,
    lookup_rule,
)

if TYPE_CHECKING:
    import numpy as np

# Uniforms the table-driven walk draws at a time, whole rows of one per switch:
# a block is max(1, WALK_BLOCK // switches) packets, so its scratch is
# O(WALK_BLOCK) whatever the flow's rate or the network's size.
WALK_BLOCK = 2**20
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

    tables[switch] lists the switch's table versions: version 0 is its initial
    table, version v the table after its v-th executed update, which took effect
    at times[switch][v - 1]. Each execution applies itself, through apply_update
    (ForwardingState.apply's step), to a copy of its target's latest table only,
    and warns of nothing: a run warns of each absent rule in its own fold
    (_control_plane).
    """

    def __init__(self, net: Network, initial: ForwardingState, execs):
        self.times = {s: [] for s in net.switches}
        self.tables = {s: [initial.tables[s]] for s in net.switches}
        for time_ns, update in execs:
            versions = self.tables.get(update.target)
            if versions is None:
                raise ValueError(f"update targets unknown switch {update.target!r}")
            table = dict(versions[-1])
            apply_update(table, update, warn=False)
            versions.append(table)
            self.times[update.target].append(time_ns)

    def lookup(self, switch: str, time_ns: int, flow_id: str, tag, port: int):
        """Action seen by a packet at this switch and instant; a rule change
        at time t is visible to a packet arriving exactly at t."""
        if switch not in self.tables:
            raise ValueError(f"unknown switch {switch!r}")
        table = self.tables[switch][bisect_right(self.times[switch], time_ns)]
        return lookup_rule(table, flow_id, tag, port)


class RunResult:
    """Everything observable about one simulated update.

    exec_log lists the executions sorted by (time, message index), updates the
    procedure's updates in message order and sends the send lines of the
    message log. The state timeline, the new configuration and the message
    log derive from them on first use, since a run without flows or a log
    reads none of them; the run itself warned of each absent rule.
    """

    def __init__(self, mode: str, seed: int, params: SystemParameters, first_send_ns: int,
                 net: Network, exec_log: list, updates: list, sends: list, faults: list,
                 old_config: ForwardingState, sched_first_ns: int | None = None,
                 flow_traces: dict | None = None):
        self.mode, self.seed, self.params, self.first_send_ns = mode, seed, params, first_send_ns
        self._net, self.exec_log, self._updates, self._sends = net, exec_log, updates, sends
        self.faults, self.old_config, self.sched_first_ns = faults, old_config, sched_first_ns
        self.flow_traces = {} if flow_traces is None else flow_traces  # flow_id -> FlowPackets

    @cached_property
    def timeline(self) -> StateTimeline:
        return StateTimeline(self._net, self.old_config, [
            (e.time_ns, self._updates[e.msg_index]) for e in self.exec_log])

    @cached_property
    def new_config(self) -> ForwardingState:
        """The whole procedure folded in message order."""
        return self.old_config.apply(*self._updates, warn=False)

    @cached_property
    def messages(self) -> list:
        """Send and exec lines by time, sends first at equal times."""
        execs = [LogLine(e.time_ns, "exec", e.switch, "-", e.phase,
                         f"msg={e.msg_index} mode={e.mode}") for e in self.exec_log]
        return sorted(self._sends + execs,
                      key=lambda m: (m.time_ns, 0 if m.kind == "send" else 1))

    @property
    def first_exec_ns(self) -> int:
        return self.exec_log[0].time_ns

    @property
    def last_exec_ns(self) -> int:
        return self.exec_log[-1].time_ns

    @property
    def update_duration_ns(self) -> int:
        """Time from the first rule taking effect to the last one."""
        return self.last_exec_ns - self.first_exec_ns


def _control_plane(mode, net, proc, params, delays, seed, initial_state, pin_worst_case,
                   first_send, guards, first_ctrl, execute, sched_first=None) -> RunResult:
    """Send proc's messages phase by phase, in procedure order within a
    phase, the first at first_send, and fold the executions they cause into
    a RunResult. Message i is the i-th send.

    Consecutive sends are a gap apart, and the first send of phase j waits
    at least guards.get(j, 0) after the send before it. Message i's gap,
    controller delay (send to arrival) and jitter are the quantiles of
    delays.gap, delays.ctrl and uniform(delta_sched) at row i of one
    default_rng(seed).random((messages, 3)) draw (delays.quantile_block,
    which draws it in Python while numpy is not loaded and no model is
    exponential) or, under pin_worst_case, their bounds, but message 0's
    delay is first_ctrl and its jitter 0. A gap or delay beyond its bound
    is a bound_violation fault.
    execute(arrival, jitter, phase, target, faults) returns when the update
    takes effect and a note for its send line.

    Executions at equal times take effect in message order, which pins down
    the run; one fold of them in that order warns of each absent rule.
    """
    delays = delays or RunDelays.default(params)
    initial = initial_state or ForwardingState.empty(net)
    ordered = sorted(proc.items, key=lambda item: item[1])  # stable: procedure order
    if pin_worst_case:
        n = len(ordered)
        gaps, ctrls = [params.delta_msg] * n, [first_ctrl] + [params.d_c] * (n - 1)
        jitters = [0] + [params.delta_sched] * (n - 1)
    else:
        gaps, ctrls, jitters = quantile_block(seed, len(ordered), (
            delays.gap, delays.ctrl, DelayModel.uniform(params.delta_sched)))
    execs, sends, faults = [], [], []
    t, prev_phase = first_send, None
    for idx, ((update, phase), gap, ctrl, jitter) in enumerate(
            zip(ordered, gaps, ctrls, jitters)):
        if update.target not in net.ports:
            raise ValueError(f"procedure targets unknown switch {update.target!r}")
        if idx > 0:
            if gap > params.delta_msg:
                faults.append(Fault(t, "bound_violation", "ctrl",
                                    f"gap {gap} > delta_msg {params.delta_msg}"))
            t += max(gap, guards.get(phase, 0) if phase != prev_phase else 0)
        if ctrl > params.d_c:
            faults.append(Fault(t, "bound_violation", update.target,
                                f"ctrl delay {ctrl} > d_c {params.d_c}"))
        exec_time, note = execute(t + ctrl, jitter, phase, update.target, faults)
        sends.append(LogLine(t, "send", "ctrl", update.target, phase,
                             f"msg={idx} mode={update.mode}{note}"))
        execs.append((exec_time, idx, phase, update))
        prev_phase = phase

    execs.sort(key=lambda e: e[:2])
    initial.apply(*(u for *_, u in execs))   # for its warnings only
    return RunResult(
        mode=mode, seed=seed, params=params, first_send_ns=first_send, net=net,
        exec_log=[ExecRecord(t, u.target, phase, u.mode, idx) for t, idx, phase, u in execs],
        updates=[u for u, _ in ordered], sends=sends, faults=faults, old_config=initial,
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

    def execute(arrival, jitter, phase, target, faults):
        sched_t = schedule.time_for_phase(phase)
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


def forward_packet(net: Network, timeline: StateTimeline, flow, t_in: int,
                   rng: np.random.Generator) -> PacketTrace:
    """The one-packet oracle of run_flows: walk one packet of a flow,
    entering untagged at the flow's ingress at t_in, resolving each hop
    against the switch state as of the packet's arrival there.

    The packet draws one row of len(net.switches) uniforms up front; the
    link it leaves hop h by delays it by the link's inverse CDF at row[h].
    Hops beyond the switch count indicate a forwarding loop (possible in
    states that mix old and new rules); the trace is truncated and flagged.
    """
    sw, port = flow.ingress_switch, flow.ingress_port
    t, tag, flow_id = t_in, None, flow.flow_id
    row = rng.random(len(net.switches))
    hops = []
    delivered = truncated = stranded = False
    for h in range(len(net.switches)):
        action = timeline.lookup(sw, t, flow_id, tag, port)
        hops.append(Hop(t, sw, port, tag, action))
        if action.kind in ("deliver", "drop"):
            delivered = action.kind == "deliver"
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
    """Per-packet results of one test flow, one array.array of length n per
    name in ARRAYS, in injection order, typecodes as _column_codes gives
    them; nothing is kept per hop, and nothing the arrays or the flow
    determine.

    hops (in the walk's count type) and t_last (the arrival time at the
    last hop) describe each packet's walk, end indexes END_KINDS with how it
    ended, and bit 0 / bit 1 of agrees say whether every realized hop action
    equals the old / new configuration's action there. Packet k entered at
    t0 + k x the flow's spacing (t_in). Iterating re-walks the packets with
    forward_packet on a fresh copy of the flow's generator (seed, and index:
    the flow's position in flow-id order) and yields their PacketTraces.
    """

    ARRAYS = ("hops", "t_last", "end", "agrees")

    def __init__(self, net: Network, timeline: StateTimeline, flow, seed, index, t0, *arrays):
        self.net, self.timeline, self.flow, self.seed, self.index, self.t0 = (
            net, timeline, flow, seed, index, t0)
        for name, values in zip(self.ARRAYS, arrays, strict=True):
            setattr(self, name, values)

    @property
    def t_in(self) -> range:
        spacing = self.flow.spacing_ns
        return range(self.t0, self.t0 + len(self) * spacing, spacing)

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self):
        rng = _flow_rng(self.seed, self.index)
        return (forward_packet(self.net, self.timeline, self.flow, t_in, rng)
                for t_in in self.t_in)

    def __eq__(self, other):
        if not isinstance(other, FlowPackets):
            return NotImplemented
        return (self.flow, self.t0) == (other.flow, other.t0) and all(
            getattr(self, name) == getattr(other, name) for name in self.ARRAYS)

    __hash__ = None


def _flow_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of the flow at this position in flow-id order."""
    import numpy as np

    return np.random.default_rng([seed, 7919 + index])


def default_flow_window(run: RunResult, spacing_ns: int):
    """Injection window covering the whole update plus drain margins."""
    anchor = min(t for t in (run.first_exec_ns, run.sched_first_ns) if t is not None)
    margin = run.params.d_n + 2 * spacing_ns
    return anchor - margin, run.last_exec_ns + margin


# How a packet's walk ended, FlowPackets.end's codes: _steps gives the first three,
# and a packet still forwarding after the last hop is truncated
END_KINDS = ("delivered", "dropped", "stranded", "truncated")
_SINK = {"deliver": 0, "drop": 1}
_STRANDED, _TRUNCATED = 2, 3


def _column_codes(n_hops: int) -> tuple:
    """The typecodes of FlowPackets.ARRAYS, array.array's and numpy's alike:
    hops in the walk's count type (B, H or I), t_last q, end b, agrees B."""
    return "BHI"[(n_hops > 0xFF) + (n_hops > 0xFFFF)], "q", "b", "B"


def _steps(net: Network, run: RunResult, flow_id, switch: str, port: int, tag) -> list:
    """What a packet of the flow arriving at (switch, port) with tag does under
    each table version of the switch: (end code or None, next (switch, port,
    tag), DelayModel of the link crossed, agreement bits: 1 if the action is
    the old configuration's there, 2 if the new one's), next and link None
    when the packet ends there."""
    old = lookup_rule(run.old_config.tables[switch], flow_id, tag, port)
    new = lookup_rule(run.new_config.tables[switch], flow_id, tag, port)
    steps = []
    for table in run.timeline.tables[switch]:
        action = lookup_rule(table, flow_id, tag, port)
        agree = (action == old) | (action == new) << 1
        peer = None if action.kind in _SINK else net.peer(switch, action.out_port)
        if peer is None:
            steps.append((_SINK.get(action.kind, _STRANDED), None, None, agree))
        else:
            tagged = action.new_tag if action.kind == "forward_tagged" else tag
            steps.append((None, (peer[0], peer[1], tagged), peer[2], agree))
    return steps


def run_flows(net: Network, run: RunResult, flows, window=None) -> None:
    """Inject and walk every test flow; run.flow_traces[flow_id] gets its FlowPackets.

    Before anything is drawn or allocated, a flow whose ingress is not an
    ingress port raises ValueError, one whose packet times could leave the
    int64 range TimeRangeError, and flows that would inject more than
    MAX_PACKETS packets in all PacketCapError.

    When every link delay in net.links is constant, no draw matters: each
    flow is walked alone as entry-time windows (_walk_windows), without
    numpy, and any subset of the flows gives each the same arrays. Otherwise
    the table-driven walk (_walk_tables), the windows' oracle, walks them:
    flow i in flow-id order draws, from a generator seeded with the run seed
    and i, a packets x switches matrix of uniforms, whole rows in packet
    order, row k for packet k, as forward_packet draws them. A flow added
    after all others in flow-id order leaves their packets unchanged; one
    added before a flow moves that flow's stream.
    """
    flows = sorted(flows, key=lambda f: f.flow_id)
    if not flows:
        return
    windows = [window or default_flow_window(run, f.spacing_ns) for f in flows]
    bound = max((link.delay.bound() for link in net.links), default=0)
    for flow, (t0, t1) in zip(flows, windows):
        if (flow.ingress_switch, flow.ingress_port) not in net.ingress_ports:
            raise ValueError(f"flow {flow.flow_id}: ingress is not an ingress port")
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
    if all(link.delay.kind == "constant" for link in net.links):
        columns = [_walk_windows(net, run, f, t0, n)
                   for f, (t0, _), n in zip(flows, windows, counts)]
    else:
        columns = _walk_tables(net, run, flows, windows, counts)
    for i, (flow, (t0, _), arrays) in enumerate(zip(flows, windows, columns)):
        run.flow_traces[flow.flow_id] = FlowPackets(net, run.timeline, flow, run.seed, i, t0,
                                                    *arrays)


def _walk_windows(net: Network, run: RunResult, flow, t0: int, n: int) -> tuple:
    """FlowPackets.ARRAYS of a flow's n packets under constant link delays.

    A piece is packets k0..k1-1 at one (switch, in_port, tag) node that all
    left the ingress by the same links, so packet k arrives t0 + k x spacing
    + D, D the delays summed. The switch's change times split it where
    packets start to see another version, and each part takes that version's
    step (_steps, once per node): it ends, or becomes the next hop's piece.
    Pieces are disjoint, so they never outnumber the packets, and the walk
    keeps a stack of them.
    """
    times, spacing, n_hops, steps = run.timeline.times, flow.spacing_ns, len(net.switches), {}
    hops, t_last, end, agrees = (array(code, [0]) * n for code in _column_codes(n_hops))
    pieces = [(0, n, (flow.ingress_switch, flow.ingress_port, None), 0, 1, 3)]
    while pieces:
        k0, k1, node, delay, hop, bits = pieces.pop()
        if node not in steps:
            steps[node] = _steps(net, run, flow.flow_id, *node)
        changes, base = times[node[0]], t0 + delay   # packet k arrives at base + k x spacing
        # a change at c is seen from packet ceil((c - base) / spacing) on
        first, last = (bisect_right(changes, base + k * spacing) for k in (k0, k1 - 1))
        cuts = sorted({-((base - c) // spacing) for c in changes[first:last]})
        for a, b in zip([k0, *cuts], [*cuts, k1]):
            kind, to, link, agree = steps[node][bisect_right(changes, base + a * spacing)]
            agree &= bits
            if kind is None and hop < n_hops:
                pieces.append((a, b, to, delay + link.value, hop + 1, agree))
                continue
            for out, value in ((hops, hop), (end, _TRUNCATED if kind is None else kind),
                               (agrees, agree)):
                out[a:b] = array(out.typecode, [value]) * (b - a)
            t_last[a:b] = array("q", range(base + a * spacing, base + b * spacing, spacing))
    return hops, t_last, end, agrees


def _walk_tables(net: Network, run: RunResult, flows, windows, counts) -> list:
    """FlowPackets.ARRAYS of each flow, in order, under random link delays.

    Flow i draws from _flow_rng(run.seed, i) rows of len(net.switches)
    uniforms, row k for packet k as forward_packet draws it, about WALK_BLOCK
    uniforms a block. A group is a block's packets at one node that came by
    one path. It splits by the version each packet sees there, versions with
    equal steps (_steps) in one part, and a part ends or moves on as the next
    hop's group, each packet delayed by the link's quantile of its uniform.
    """
    import numpy as np

    n_hops, columns = len(net.switches), []
    rows = max(1, WALK_BLOCK // n_hops)
    # each switch's change times as int64, a later time capped at 2**63 - 1
    times = {s: np.array([min(t, 2**63 - 1) for t in ts], np.int64)
             for s, ts in run.timeline.times.items()}
    for i, (flow, (t0, _), n) in enumerate(zip(flows, windows, counts)):
        rng, steps, u = _flow_rng(run.seed, i), {}, np.empty((min(rows, n), n_hops))
        arrays = tuple(array(code, [0]) * n for code in _column_codes(n_hops))
        hops, t_last, end, agrees = (np.frombuffer(a, a.typecode) for a in arrays)
        for a in range(0, n, rows):
            k = np.arange(a, min(a + rows, n))
            rng.random(out=u[:len(k)])
            groups = [(k, (flow.ingress_switch, flow.ingress_port, None), t0 + k * flow.spacing_ns,
                       1, 3)]
            while groups:
                pos, node, t, hop, bits = groups.pop()
                if node not in steps:   # its steps, and per version the first with its step
                    step = _steps(net, run, flow.flow_id, *node)
                    steps[node] = step, np.array([step.index(s) for s in step])
                step, first = steps[node]
                version = first[times[node[0]].searchsorted(t, side="right")]
                seen = np.flatnonzero(np.bincount(version)).tolist()
                for v in seen:
                    kind, to, link, agree = step[v]
                    at = version == v if len(seen) > 1 else slice(None)
                    if kind is None and hop < n_hops:
                        groups.append((pos[at], to, t[at] + link.quantile(u[pos[at] - a, hop - 1]),
                                       hop + 1, agree & bits))
                    else:
                        hops[pos[at]], t_last[pos[at]], agrees[pos[at]] = hop, t[at], agree & bits
                        end[pos[at]] = _TRUNCATED if kind is None else kind
        columns.append(arrays)
    return columns
