"""Deterministic discrete-event execution of update procedures.

A run is two stages. The control-plane stage executes the controller and
switch behaviors (greedy untimed, or scheduled timed), orders the
executions by (time, message index) and produces a state timeline: every
switch's rule table as a function of real time. Packets never influence
switch state, so the split loses nothing and keeps both stages
reproducible from a single seed.

The data-plane stage, run_flows, walks each test flow's packets through that
timeline, read per node as a step function of time (_steps), as pieces whose
arrival envelopes fit in one step; it draws only for the packets whose envelope
straddles a change. Differential tests hold it to the table-driven walk, and
that to forward_packet, the one-packet oracle that alone builds PacketTraces.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import cache, cached_property
from typing import TYPE_CHECKING, NamedTuple

from .delays import DelayModel, _python_rows, _quantile, quantile_block
from .model import (
    ForwardingState,
    Network,
    SystemParameters,
    TimedUpdateProcedure,
    UpdateProcedure,
    _log,
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
# summed over flows): a flow's runs are not, but its run.json text is O(packets).
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
    in the order given, and warns of each rule a remove finds absent: a run's
    timeline is the one fold of it that warns.
    """

    def __init__(self, net: Network, initial: ForwardingState, execs):
        self.times = {s: [] for s in net.switches}
        self.tables = {s: [initial.tables[s]] for s in net.switches}
        for time_ns, update in execs:
            versions = self.tables.get(update.target)
            if versions is None:
                raise ValueError(f"update targets unknown switch {update.target!r}")
            table = dict(versions[-1])
            for key in apply_update(table, update):
                _log("warning", "garbage collection: rule %r already absent on %s",
                     key, update.target)
            versions.append(table)
            self.times[update.target].append(time_ns)


class RunResult:
    """Everything observable about one simulated update.

    updates lists the procedure's updates in message order, send_ns their send
    times, exec_log the executions sorted by (time, message index) and schedule
    the timed run's schedule, None if untimed. The state timeline is folded from
    them here, warning of each absent rule; the new configuration and the message
    log derive from them on first use, as a run without flows or a log reads neither.
    """

    def __init__(self, seed: int, params: SystemParameters, net: Network,
                 old_config: ForwardingState, updates: list, exec_log: list, send_ns: list,
                 faults: list, schedule=None):
        self.seed, self.params, self.old_config, self.faults = seed, params, old_config, faults
        self._updates, self.exec_log, self.send_ns, self.schedule = (
            updates, exec_log, send_ns, schedule)
        self.mode = "untimed" if schedule is None else "timed"
        self.sched_first_ns = None if schedule is None else schedule.first_time()
        self.timeline = StateTimeline(net, old_config, [
            (e.time_ns, updates[e.msg_index]) for e in exec_log])
        self.flow_traces = {}   # flow_id -> FlowPackets, filled by run_flows

    @cached_property
    def new_config(self) -> ForwardingState:
        """The whole procedure folded in message order."""
        return self.old_config.apply(*self._updates)

    @cached_property
    def messages(self) -> list:
        """Send and exec lines by time, sends first at equal times."""
        lines = []
        for e in sorted(self.exec_log, key=lambda r: r.msg_index):   # message order
            detail = f"msg={e.msg_index} mode={e.mode}"
            sched = "" if self.schedule is None else (
                f" sched={self.schedule.time_for_phase(e.phase)}")
            lines.append(LogLine(self.send_ns[e.msg_index], "send", "ctrl", e.switch, e.phase,
                                 detail + sched))
            lines.append(LogLine(e.time_ns, "exec", e.switch, "-", e.phase, detail))
        return sorted(lines, key=lambda m: (m.time_ns, m.kind == "exec"))

    @property
    def first_send_ns(self) -> int:
        return self.send_ns[0]

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


def _control_plane(net, proc, params, delays, seed, initial_state, pin_worst_case,
                   first_send, schedule=None) -> RunResult:
    """Send proc's messages phase by phase, in procedure order within a
    phase, the first at first_send, and fold the executions they cause into
    a RunResult. Message i is the i-th send.

    Consecutive sends are a gap apart. Message i's gap, controller delay
    (send to arrival) and jitter are the quantiles of delays.gap,
    delays.ctrl and uniform(delta_sched) at row i of one
    default_rng(seed).random((messages, 3)) draw (delays.quantile_block,
    which draws it in Python while numpy is not loaded and the block fits in
    its budget) or, under pin_worst_case, their bounds, but message 0's
    jitter is 0. A gap or delay beyond its bound is a bound_violation fault.

    Without a schedule the first send of a phase also waits d_c (d_c + d_n
    before a phase of proc.gc_phases()) after the send before it, each update
    takes effect on arrival, and a pinned message 0 arrives at once. With
    one, an update takes effect at its phase's scheduled time plus its
    jitter, or on arrival as a missed_schedule fault if that is later.

    Executions at equal times take effect in message order, which pins down
    the run; RunResult folds them in that order into its timeline.
    """
    delays = delays or RunDelays.default(params)
    initial = initial_state or ForwardingState.empty(net)
    ordered = sorted(proc.items, key=lambda item: item[1])  # stable: procedure order
    if pin_worst_case:
        n = len(ordered)
        gaps, jitters = [params.delta_msg] * n, [0] + [params.delta_sched] * (n - 1)
        ctrls = [0 if schedule is None else params.d_c] + [params.d_c] * (n - 1)
    else:
        gaps, ctrls, jitters = quantile_block(seed, len(ordered), (
            delays.gap, delays.ctrl, DelayModel.uniform(params.delta_sched)))
    gc_phases = proc.gc_phases() if schedule is None else ()
    execs, send_ns, faults = [], [], []
    t, prev_phase = first_send, None
    for idx, ((update, phase), gap, ctrl, jitter) in enumerate(
            zip(ordered, gaps, ctrls, jitters)):
        if idx > 0:
            if gap > params.delta_msg:
                faults.append(Fault(t, "bound_violation", "ctrl",
                                    f"gap {gap} > delta_msg {params.delta_msg}"))
            if schedule is None and phase != prev_phase:
                gap = max(gap, params.d_c + (params.d_n if phase in gc_phases else 0))
            t += gap
        if ctrl > params.d_c:
            faults.append(Fault(t, "bound_violation", update.target,
                                f"ctrl delay {ctrl} > d_c {params.d_c}"))
        exec_time = t + ctrl
        if schedule is not None:
            planned = schedule.time_for_phase(phase) + jitter
            if exec_time > planned:
                faults.append(Fault(exec_time, "missed_schedule", update.target,
                                    f"arrival {exec_time} > planned exec {planned}"))
            exec_time = max(exec_time, planned)
        send_ns.append(t)
        execs.append(ExecRecord(exec_time, update.target, phase, update.mode, idx))
        prev_phase = phase

    execs.sort(key=lambda e: (e.time_ns, e.msg_index))
    return RunResult(seed, params, net, initial, [u for u, _ in ordered], execs, send_ns, faults,
                     schedule)


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
    return _control_plane(net, proc, params, delays, seed, initial_state, pin_worst_case,
                          start_time)


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

    pin_worst_case stretches every controller delay and every jitter to its
    bound except the jitter of the earliest-scheduled update, message 0
    (schedules are non-decreasing in phase order), which executes exactly
    on time.
    """
    proc, schedule = tproc.procedure, tproc.schedule
    t_su = params.t_su if params.t_su is not None else (
        params.d_c + params.delta_msg * len(proc.items))
    return _control_plane(net, proc, params, delays, seed, initial_state, pin_worst_case,
                          schedule.first_time() - t_su, schedule)


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
    entering untagged at the flow's ingress at t_in, resolving each hop with
    lookup_rule in the switch's table in force at the packet's arrival there;
    a rule change at time t is visible to a packet arriving exactly at t.

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
        table = timeline.tables[sw][bisect_right(timeline.times[sw], t)]
        action = lookup_rule(table, flow_id, tag, port)
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
    """Per-packet results of one test flow's n packets, in injection order:
    runs, the maximal runs of consecutive packets with equal (hops, end,
    agrees), each [count, hops, end, agrees], and nothing per packet or hop.
    hops counts a packet's hops, end indexes END_KINDS with how its walk
    ended, and bit 0 / bit 1 of agrees say whether every realized hop action
    equals the old / new configuration's action there. Packet k entered at
    t0 + k x the flow's spacing (t_in); t_last, which only tests read, gives
    its arrival time at its last hop by a second walk, on a step memo of its
    own. Iterating re-walks the packets with
    forward_packet on a fresh copy of the flow's generator (the run's seed,
    and index: the flow's position in flow-id order), yielding PacketTraces."""

    def __init__(self, net: Network, run: RunResult, flow, index, t0, runs: list, n: int):
        self.net, self.run, self.flow, self.index, self.t0, self.runs, self.n = (
            net, run, flow, index, t0, runs, n)

    @property
    def t_in(self) -> range:
        return range(self.t0, self.t0 + self.n * self.flow.spacing_ns, self.flow.spacing_ns)

    def __len__(self) -> int:
        return self.n

    @cached_property
    def t_last(self) -> array:
        """By _walk_tables of all n packets, on first access; its runs must be the stored ones."""
        t_last = array("q", [0]) * self.n
        steps = cache(lambda node: _steps(self.net, self.run, self.flow.flow_id, *node))
        parts = _walk_tables(self.net, self.run, self.flow, self.t0, [(0, self.n)],
                             _flow_rng(self.run.seed, self.index), steps, t_last)
        if _runs(parts) != self.runs:
            raise AssertionError(f"flow {self.flow.flow_id}: the walks' runs differ")
        return t_last

    def __iter__(self):
        rng = _flow_rng(self.run.seed, self.index)
        return (forward_packet(self.net, self.run.timeline, self.flow, t_in, rng)
                for t_in in self.t_in)

    def __eq__(self, other):
        if not isinstance(other, FlowPackets):
            return NotImplemented
        return ((self.flow, self.t0, self.n, self.runs)
                == (other.flow, other.t0, other.n, other.runs))

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


# How a packet's walk ended, the end codes of FlowPackets.runs: _steps gives the first three,
# and a packet still forwarding after the last hop is truncated
END_KINDS = ("delivered", "dropped", "stranded", "truncated")
_SINK = {"deliver": 0, "drop": 1}
_STRANDED, _TRUNCATED = 2, 3


def _runs(parts) -> list:
    """The maximal runs of parts, (first packet, count, hops, end, agrees) that
    cover the packets: a part with the value of the run before it joins it."""
    runs = []
    for _, count, *value in sorted(parts):
        if runs and runs[-1][1:] == value:
            runs[-1][0] += count
        else:
            runs.append([count, *value])
    return runs


def _steps(net: Network, run: RunResult, flow_id, switch: str, port: int, tag) -> tuple:
    """The step function (changes, steps) of a packet of the flow arriving at
    (switch, port) with tag: steps[0] holds before changes[0], steps[i] from
    changes[i - 1] on, inclusive, and no two consecutive steps are equal. A
    step is (end code or None, next (switch, port, tag), DelayModel of the
    link crossed, agreement bits: 1 if the action is the old configuration's
    there, 2 if the new one's), next and link None when the packet ends there.
    Changes cap at 2**63 - 1 (int64), past every packet time run_flows allows."""
    old = lookup_rule(run.old_config.tables[switch], flow_id, tag, port)
    new = lookup_rule(run.new_config.tables[switch], flow_id, tag, port)
    changes, steps = [], []
    for time, table in zip([None, *run.timeline.times[switch]], run.timeline.tables[switch]):
        action = lookup_rule(table, flow_id, tag, port)
        agree = (action == old) | (action == new) << 1
        peer = None if action.kind in _SINK else net.peer(switch, action.out_port)
        if peer is None:
            step = (_SINK.get(action.kind, _STRANDED), None, None, agree)
        else:
            tagged = action.new_tag if action.kind == "forward_tagged" else tag
            step = (None, (peer[0], peer[1], tagged), peer[2], agree)
        if not steps or step != steps[-1]:
            changes.append(time)
            steps.append(step)
    return [min(c, 2**63 - 1) for c in changes[1:]], steps


def run_flows(net: Network, run: RunResult, flows, window=None) -> None:
    """Inject and walk every test flow; run.flow_traces[flow_id] gets its FlowPackets.

    Before anything is drawn or allocated, a flow whose ingress is not an
    ingress port raises ValueError, one whose packet times could leave the
    int64 range TimeRangeError, and flows that would inject more than
    MAX_PACKETS packets in all PacketCapError.

    Flow i in flow-id order has a stream seeded with the run seed and i: a
    packets x switches matrix of uniforms, row k for packet k, as
    forward_packet draws them. _walk_envelopes draws only the rows of the
    packets a draw can change, none under constant delays, where any subset of
    the flows gives each the same runs. A flow added after all others in
    flow-id order leaves their packets unchanged; one added before a flow
    moves that flow's stream.
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
    for i, (flow, (t0, _), n) in enumerate(zip(flows, windows, counts)):
        run.flow_traces[flow.flow_id] = FlowPackets(
            net, run, flow, i, t0, _walk_envelopes(net, run, flow, t0, n, i), n)


def _walk_envelopes(net: Network, run: RunResult, flow, t0: int, n: int, index: int) -> list:
    """FlowPackets' runs of a flow's n packets, the flow at this index in flow-id order.

    A piece is packets k0..k1-1 at one (switch, in_port, tag) node that all
    came by the same links, so packet k arrives within t0 + k x spacing +
    [lo, hi], lo and hi the links' least and greatest delays summed (a
    constant's value, else 0, and bound()). The node's changes (_steps) cut
    it where these envelopes start and stop straddling one. A part within one
    step is settled whatever the draws: it ends as a run or becomes the next
    hop's piece. Only the unsettled packets draw their rows: in Python
    (_python_rows), each then walked alone, or else by _walk_tables, all on one
    memo of _steps, so that no node is stepped twice."""
    spacing, n_hops = flow.spacing_ns, len(net.switches)
    steps = cache(lambda node: _steps(net, run, flow.flow_id, *node))
    quantile = cache(_quantile)   # each link's inverse CDF as a Python function
    ingress = (flow.ingress_switch, flow.ingress_port, None)
    parts, unsettled, pieces = [], [], [(0, n, ingress, 0, 0, 1, 3)]
    while pieces:
        k0, k1, node, lo, hi, hop, bits = pieces.pop()
        changes, step = steps(node)
        # packet k straddles change c for k in [ceil((c-t0-hi)/spacing), ceil((c-t0-lo)/spacing))
        first = bisect_right(changes, t0 + k0 * spacing + lo)
        last = bisect_right(changes, t0 + (k1 - 1) * spacing + hi)
        cuts = sorted({k for c in changes[first:last] for k in (
            -((t0 + hi - c) // spacing), -((t0 + lo - c) // spacing)) if k0 < k < k1})
        for a, b in zip([k0, *cuts], [*cuts, k1]):
            at = bisect_right(changes, t0 + a * spacing + lo)
            if at != bisect_right(changes, t0 + a * spacing + hi):
                unsettled.append((a, b))
                continue
            kind, to, link, agree = step[at]
            if kind is None and hop < n_hops:
                pieces.append((a, b, to, lo + link.value, hi + link.bound(), hop + 1,
                               agree & bits))
            else:
                parts.append((a, b - a, hop, _TRUNCATED if kind is None else kind, agree & bits))
    unsettled.sort()
    if (rows := _python_rows([run.seed, 7919 + index], n_hops, unsettled)) is None:
        parts += _walk_tables(net, run, flow, t0, unsettled, _flow_rng(run.seed, index), steps)
        unsettled = []
    for k, row in zip((k for a, b in unsettled for k in range(a, b)), rows or ()):
        node, t, bits = ingress, t0 + k * spacing, 3
        for hop in range(1, n_hops + 1):
            changes, step = steps(node)
            kind, node, link, agree = step[bisect_right(changes, t)]
            bits &= agree
            if kind is not None:
                break
            t += quantile(link)(next(row))
        parts.append((k, 1, hop, _TRUNCATED if kind is None else kind, bits))
    return _runs(parts)


def _walk_tables(net: Network, run: RunResult, flow, t0: int, spans, rng, steps,
                 t_last: array | None = None) -> list:
    """The parts (first packet, count, hops, end, agrees) of a flow's packets
    in spans, ascending [a, b) ranges of packet indices, under random link
    delays; t_last, if given, gets each one's arrival time at its last hop.

    rng draws row k of len(net.switches) uniforms for packet k, as
    forward_packet does, skipping rows outside spans, about WALK_BLOCK a
    block. A group, a block's packets at one node that came by one path,
    splits by the step each sees there (steps(node), the caller's memo of _steps);
    a part ends, or moves on as the next hop's group, each packet delayed by
    the link's quantile of its uniform. A block's outcomes are run-length encoded."""
    import numpy as np

    n_hops, parts, drawn = len(net.switches), [], 0
    rows = max(1, WALK_BLOCK // n_hops)
    u = np.empty((min(rows, max((b - a for a, b in spans), default=0)), n_hops))
    outcome = np.empty((3, len(u)), np.int32)   # a block's hops, end and agrees
    last = None if t_last is None else np.frombuffer(t_last, np.int64)
    for a, b in ((a, min(a + rows, b)) for s, b in spans for a in range(s, b, rows)):
        rng.bit_generator.advance((a - drawn) * n_hops)
        k, drawn = np.arange(b - a), b   # the block's packets, a + k in the flow
        rng.random(out=u[:len(k)])
        groups = [(k, (flow.ingress_switch, flow.ingress_port, None),
                   t0 + (a + k) * flow.spacing_ns, 1, 3)]
        while groups:
            pos, node, t, hop, bits = groups.pop()
            changes, step = steps(node)
            index = np.searchsorted(np.array(changes, np.int64), t, side="right")
            seen = np.flatnonzero(np.bincount(index)).tolist()
            for v in seen:
                kind, to, link, agree = step[v]
                at = index == v if len(seen) > 1 else slice(None)
                if kind is None and hop < n_hops:
                    groups.append((pos[at], to, t[at] + link.quantile(u[pos[at], hop - 1]),
                                   hop + 1, agree & bits))
                else:
                    if last is not None:
                        last[a + pos[at]] = t[at]
                    outcome[:, pos[at]] = [[hop], [_TRUNCATED if kind is None else kind],
                                           [agree & bits]]
        block = outcome[:, :len(k)]
        heads = np.r_[0, np.flatnonzero((block[:, 1:] != block[:, :-1]).any(axis=0)) + 1]
        parts.extend(zip((a + heads).tolist(), np.diff(heads, append=len(k)).tolist(),
                         *block[:, heads].tolist()))
    return parts
