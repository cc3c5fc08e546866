"""Deterministic discrete-event execution of update procedures.

A run is two stages. The control-plane stage executes the controller and
switch behaviors (greedy untimed, or scheduled timed), orders the
executions by (time, message index) and produces a state timeline: every
switch's rule table as a function of real time. Packets never influence
switch state, so the split loses nothing and keeps both stages
reproducible from a single seed.

The data-plane stage, run_flows, walks every test-flow packet of a run
through that timeline in one table-driven walk, which a differential test
holds to forward_packet, the one-packet oracle that alone builds PacketTraces.
"""

from __future__ import annotations

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

# Packets the data plane walks at a time: a walk keeps WALK_BLOCK x (columns it
# can read) uniforms and its grouping scratch is O(WALK_BLOCK), whatever the
# flow's rate.
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

    tables[switch] lists the switch's table versions: version 0 is its initial
    table, version v the table after its v-th executed update. Each execution
    applies itself, through apply_update (ForwardingState.apply's step), to a
    copy of its target's latest table only, and warns of nothing: a run warns
    of each absent rule in its own fold (_control_plane).
    """

    def __init__(self, net: Network, initial: ForwardingState, execs):
        self._times = {s: [] for s in net.switches}
        self.tables = {s: [initial.tables[s]] for s in net.switches}
        for time_ns, update in execs:
            versions = self.tables.get(update.target)
            if versions is None:
                raise ValueError(f"update targets unknown switch {update.target!r}")
            table = dict(versions[-1])
            apply_update(table, update, warn=False)
            versions.append(table)
            self._times[update.target].append(time_ns)

    @cached_property
    def change_ns(self) -> np.ndarray:
        """The distinct times at which tables change, sorted, as int64 (a later time
        capped at 2**63 - 1); epoch e starts at change_ns[e - 1], epoch 0 before."""
        import numpy as np

        return np.array(sorted({min(t, 2**63 - 1) for ts in self._times.values() for t in ts}),
                        dtype=np.int64)

    def epoch_versions(self, switch: str) -> np.ndarray:
        """The switch's table version in force in each epoch."""
        import numpy as np

        own = np.array([min(t, 2**63 - 1) for t in self._times[switch]], np.int64)
        return np.append(0, own.searchsorted(self.change_ns, side="right")).astype(np.int32)

    def lookup(self, switch: str, time_ns: int, flow_id: str, tag, port: int):
        """Action seen by a packet at this switch and instant; a rule change
        at time t is visible to a packet arriving exactly at t."""
        if switch not in self.tables:
            raise ValueError(f"unknown switch {switch!r}")
        table = self.tables[switch][bisect_right(self._times[switch], time_ns)]
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
        return min(e.time_ns for e in self.exec_log)

    @property
    def last_exec_ns(self) -> int:
        return max(e.time_ns for e in self.exec_log)

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


def _entry_times(t0: int, spacing_ns: int, k0: int, k1: int) -> np.ndarray:
    """Arrival times (int64) of packets k0..k1-1 of a flow whose packet 0 enters at t0."""
    import numpy as np

    return np.arange(k0, k1, dtype=np.int64) * spacing_ns + t0


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
    """Per-packet results of one test flow, one array of length n per name
    in ARRAYS, in injection order; nothing is kept per hop, and nothing the
    arrays or the flow determine.

    hops (in the walk's count dtype) and t_last (the arrival time at the
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
    def t_in(self) -> np.ndarray:
        return _entry_times(self.t0, self.flow.spacing_ns, 0, len(self))

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self):
        rng = _flow_rng(self.seed, self.index)
        return (forward_packet(self.net, self.timeline, self.flow, t_in, rng)
                for t_in in self.t_in.tolist())

    def __eq__(self, other):
        if not isinstance(other, FlowPackets):
            return NotImplemented
        import numpy as np

        return (self.flow, self.t0) == (other.flow, other.t0) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.ARRAYS)

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


# How a packet's walk ended, FlowPackets.end's codes. Nodes 0-2 are the sinks of
# the first three; a packet left at another node after the last hop is truncated
END_KINDS = ("delivered", "dropped", "stranded", "truncated")
_SINK = {"deliver": 0, "drop": 1}
_STRANDED, _TRUNCATED = 2, 3


def run_flows(net: Network, run: RunResult, flows, window=None) -> None:
    """Inject and walk every test flow; run.flow_traces[flow_id] gets its FlowPackets.

    Flow i in flow-id order draws, from a generator seeded with the run seed
    and i, a packets x switches matrix of uniforms, whole rows in packet
    order, row k for packet k, as forward_packet draws them; a block keeps
    only the columns a walk can read: one per link crossing on the longest
    run of crossings from an ingress node (all but the last on a loop). A
    flow added after all others in flow-id order leaves their packets
    unchanged; one added before a flow moves that flow's stream. Under
    constant link delays no draw matters: any subset of the flows gives each
    the same arrays.

    Before anything is drawn or allocated, a flow whose ingress is not an
    ingress port raises ValueError, one whose packet times could leave the
    int64 range TimeRangeError, and flows that would inject more than
    MAX_PACKETS packets in all PacketCapError.

    Every (node, table version) pair the flows reach is resolved once, a node
    being a (flow, switch, in_port, tag); then all packets, laid end to end,
    move hop by hop, WALK_BLOCK at a time, by gathers from those tables.
    """
    import numpy as np

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
    timeline, n_hops, epoch_ns = run.timeline, len(net.switches), run.timeline.change_ns
    # rows: per switch seen, its version in each epoch (row 0 serves the sinks); per
    # real node (numbered from 3), its row's offset and first pair slot; per pair
    # slot, the next node, link crossed (0: none) and agreement bits (1 old, 2 new)
    rows, row_of, keys, node_ids = [np.zeros(len(epoch_ns) + 1, np.int32)], {}, [], {}
    nodes, slots = [(0, 0), (0, 1), (0, 2)], [(0, 0, 3), (1, 0, 3), (2, 0, 3)]
    link_ids = {}   # (switch, out_port) -> (link number, delay model)

    def node_of(*key):
        if key not in node_ids:
            node_ids[key] = len(keys) + 3
            keys.append(key)
        return node_ids[key]

    ingress = np.array([node_of(f.flow_id, f.ingress_switch, f.ingress_port, None)
                        for f in flows], np.int32)
    for flow_id, sw, port, tag in keys:   # also visits the nodes appended on the way
        old = lookup_rule(run.old_config.tables[sw], flow_id, tag, port)
        new = lookup_rule(run.new_config.tables[sw], flow_id, tag, port)
        if row_of.setdefault(sw, len(rows)) == len(rows):
            rows.append(timeline.epoch_versions(sw))
        nodes.append((row_of[sw] * len(rows[0]), len(slots)))
        action = None
        for table in timeline.tables[sw]:
            was, action = action, lookup_rule(table, flow_id, tag, port)
            if action != was:   # else this slot reads as the one before
                peer = None if action.kind in _SINK else net.peer(sw, action.out_port)
                tagged = action.new_tag if action.kind == "forward_tagged" else tag
                to = (_SINK.get(action.kind, _STRANDED) if peer is None
                      else node_of(flow_id, peer[0], peer[1], tagged))
                over = 0 if peer is None else link_ids.setdefault(
                    (sw, action.out_port), (len(link_ids) + 1, peer[2]))[0]
                slot = (to, over, (action == old) | (action == new) << 1)
            slots.append(slot)
    models = [None] + [model for _, model in link_ids.values()]
    (t_row, t_base), t_version = np.array(nodes, np.int32).T.copy(), np.concatenate(rows)
    t_onward, t_link, t_agree = np.array(slots, np.int32).T.copy()
    t_link, t_agree = t_link.astype(np.min_scalar_type(len(models))), t_agree.astype(np.uint8)
    # hop h reads column h only if a packet crosses a link there: the nodes
    # reached after width + 1 crossings are not all sinks
    onward, span = t_onward.tolist(), t_base.tolist() + [len(slots)]
    width, at = 0, set(ingress.tolist())
    while width + 1 < n_hops:
        at = {to for a in at for to in onward[span[a]:span[a + 1]] if to > _STRANDED}
        if not at:
            break
        width += 1
    firsts = np.cumsum([0] + counts).tolist()
    rngs = [_flow_rng(run.seed, i) for i in range(len(flows))]
    hops, t_last, end, agrees = (np.empty(firsts[-1], dtype) for dtype in (
        np.min_scalar_type(n_hops), np.int64, np.int8, np.uint8))   # hops: the walk's count type
    scratch = np.empty((max(1, 2**12 // n_hops), n_hops))   # whole rows, about 2^12 uniforms
    for start in range(0, firsts[-1], WALK_BLOCK):
        block = slice(start, min(start + WALK_BLOCK, firsts[-1]))
        u, cuts = np.empty((block.stop - start, width)), np.clip(firsts, start, block.stop)
        node, t = np.repeat(ingress, np.diff(cuts)), np.empty(len(u), np.int64)
        for i, rng in enumerate(rngs):   # flow i's packets in the block; draws continue its stream
            t[cuts[i] - start:cuts[i + 1] - start] = _entry_times(
                windows[i][0], flows[i].spacing_ns, cuts[i] - firsts[i], cuts[i + 1] - firsts[i])
            for a in range(cuts[i], cuts[i + 1], len(scratch)):
                b = min(a + len(scratch), cuts[i + 1])
                rng.random(out=scratch[:b - a])
                u[a - start:b - start] = scratch[:b - a, :width]
        pos, live = np.arange(start, block.stop), True   # the packets' places in the results
        bits, count = np.full(len(t), 3, np.uint8), np.zeros(len(t), hops.dtype)
        for h in range(n_hops):
            count += live
            pair = t_base.take(node) + t_version.take(  # its version in its switch's row
                epoch_ns.searchsorted(t, side="right") + t_row.take(node))
            bits &= t_agree.take(pair)
            node = t_onward.take(pair)
            live = node > _STRANDED
            if h + 1 == n_hops or not live.any():
                break
            if 8 * np.count_nonzero(live) <= len(t):   # set the finished packets aside
                gone = pos[~live]
                for out, values in zip((hops, t_last, end, agrees), (count, t, node, bits)):
                    out[gone] = values[~live]
                pos, node, t, bits, count, pair, u, live = (
                    a[live] for a in (pos, node, t, bits, count, pair, u, live))
            # one quantile call per link, on the packets grouped by the link they cross
            link_of = t_link.take(pair)
            order, delay = link_of.argsort(kind="stable"), np.zeros(len(t), np.int64)
            ends, us = np.bincount(link_of).cumsum().tolist(), u[:, h].take(order)
            for m, (a, b) in enumerate(zip(ends, ends[1:]), 1):
                if a < b:
                    delay[order[a:b]] = models[m].quantile(us[a:b])
            t += delay
        at = block if len(pos) == block.stop - start else pos
        hops[at], t_last[at], end[at], agrees[at] = count, t, np.minimum(node, _TRUNCATED), bits
    for i, (flow, (t0, _), a, b) in enumerate(zip(flows, windows, firsts, firsts[1:])):
        run.flow_traces[flow.flow_id] = FlowPackets(net, timeline, flow, run.seed, i, t0, *(
            out[a:b] for out in (hops, t_last, end, agrees)))
