"""Slow, obviously correct references that the tests hold the package's fast paths to.

No command calls them, so they live with the tests: import them as tests
import conftest.

- classify_packet: one PacketTrace against both full configurations, the
  per-trace reference of the walks' agreement codes (CLASS_OF_AGREES).
- mean_value: a DelayModel's analytic (or pool) mean, for the sampler's tests.
- old_path_bound: a flow's path delay bound in the old configuration, by
  lookup_rule, which the default injection window must cover.
- t_last: a flow's arrival time at the last hop of each packet, by the
  table-driven walk of every packet, whose runs must be the stored ones.
- index_walk: the envelope walk cut at packet indices, not entry times, whose
  runs the package's walk must equal.
- predicted_inconsistency: a label-change flow's I from the exec log and its
  path delays alone, which the walks' I must meet.
- run_to_dict: run.json as one document with a dict per packet, which the
  streamed writer (cli._write_run) must equal byte for byte once dumped.
"""

import math
from array import array
from bisect import bisect_right
from functools import cache

from netupdate import simulator
from netupdate.cli import _run_doc
from netupdate.consistency import CLASS_OF_AGREES, CONSISTENT_NEW, CONSISTENT_OLD, INCONSISTENT
from netupdate.delays import _python_rows, _quantile
from netupdate.model import lookup_rule
from netupdate.simulator import (
    _TRUNCATED, _flow_entropy, _flow_rng, _runs, _steps, _walk_tables)


def classify_packet(trace, old_config, new_config) -> str:
    """Classify one packet trace against the two full configurations.

    The comparison at each hop uses the packet as it actually arrived there
    (tags may have been rewritten upstream), so a packet stamped with the
    old tag is judged against what the old configuration does with an
    old-tagged packet, and likewise for the new one. Old wins a tie.
    """
    for config in (old_config, new_config):
        for hop in trace.hops:
            if hop.switch not in config.tables:
                raise ValueError(
                    f"trace visits switch {hop.switch!r} absent from the configuration")

    def matches(config):
        for hop in trace.hops:
            action = lookup_rule(config.tables[hop.switch], trace.flow_id, hop.tag, hop.in_port)
            if action != hop.action:
                return False
        return True

    if matches(old_config):
        return CONSISTENT_OLD
    if matches(new_config):
        return CONSISTENT_NEW
    return INCONSISTENT


def mean_value(model) -> float:
    """Analytic (or pool) mean of a DelayModel."""
    if model.kind == "constant":
        return float(model.value)
    if model.kind == "uniform":
        return model.hi / 2.0
    if model.kind == "exponential":
        if model.mean == 0:
            return 0.0
        r = model.cap / model.mean
        # mean of an exponential conditioned on X <= cap
        return model.mean * (1.0 - math.exp(-r) * (r + 1.0)) / (1.0 - math.exp(-r))
    return sum(model.samples) / len(model.samples)


def old_path_bound(net, old_config, flow) -> int:
    """The bound() of each link the flow's packets cross in old_config summed,
    by lookup_rule from its ingress, untagged, up to the walk's last hop of at
    most len(net.switches)."""
    switch, port, tag, bound = flow.ingress_switch, flow.ingress_port, None, 0
    for _ in range(len(net.switches) - 1):
        action = lookup_rule(old_config.tables[switch], flow.flow_id, tag, port)
        peer = None if action.kind in ("deliver", "drop") else net.peer(switch, action.out_port)
        if peer is None:
            break
        tag = action.new_tag if action.kind == "forward_tagged" else tag
        switch, port, bound = peer[0], peer[1], bound + peer[2].bound()
    return bound


def t_last(packets) -> array:
    """Each packet's arrival time at its last hop (typecode q, int64), by
    simulator._walk_tables of all the flow's packets on a fresh copy of its
    generator and a step memo of its own; its runs must be the stored ones."""
    net, run, flow = packets.net, packets.run, packets.flow
    times = array("q", [0]) * packets.n
    steps = cache(lambda node: simulator._steps(net, run, flow.flow_id, *node))
    parts = simulator._walk_tables(net, run, flow, packets.t0, [(0, packets.n)],
                                   simulator._flow_rng(run.seed, packets.index), steps, times)
    if simulator._runs(parts) != packets.runs:
        raise AssertionError(f"flow {flow.flow_id}: the walks' runs differ")
    return times


def index_walk(net, run, flow, t0: int, n: int, index: int) -> list:
    """simulator._walk_envelopes as it cut pieces at packet indices: the runs
    of a flow's n packets from t0, the flow at this index in flow-id order.

    A piece is packets k0..k1-1 at one node that came by the same links, so
    packet k arrives within t0 + k x spacing + [lo, hi]; each change of the
    node in their envelopes cuts it at the first packet to straddle it and the
    first past it, a ceiling division per change. The walk the package keeps
    cuts entry times instead and meets the packets only at the end."""
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
    if (rows := _python_rows(_flow_entropy(run.seed, index), n_hops, unsettled)) is None:
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


def predicted_inconsistency(exec_log, delays, least=None) -> int:
    """I_f of a flow of topology.label_change_update, in ns, from its run's exec
    log: max(0, T - min_s(GC_s - D_s)) + max(0, max_{s != ingress}(P1_s - D_s) - T).

    delays lists (s, D_s), each switch s of the flow's path and its delay from
    the ingress, delays[0] the ingress at D = 0; T is the ingress's phase-2 exec
    and GC_s / P1_s is s's phase-3 / phase-1 exec. An old-tagged packet (entering
    before T) is inconsistent when it reaches some s at or after GC_s, a
    new-tagged one when it reaches some s past the ingress before P1_s: under
    constant delays the walk's I is within one spacing of I_f. least, if given,
    lists the same switches at their least delays, for the P1 term: with delays
    at their bounds and least at their least, I_f bounds the walk's I from above,
    to a whole spacing, whatever the draws."""
    execs = {(e.switch, e.phase): e.time_ns for e in exec_log}
    t = execs[delays[0][0], 2]
    gc = min((execs[s, 3] - d for s, d in delays[1:]), default=t)
    p1 = max((execs[s, 1] - d for s, d in (least or delays)[1:]), default=t)
    return max(0, t - gc) + max(0, p1 - t)


def run_to_dict(run, exp_hash: str, reports) -> dict:
    """run.json as one document with a dict per packet: the oracle of cli._write_run."""
    doc = _run_doc(run, exp_hash, reports)
    for rep in reports:
        packets = run.flow_traces[rep.flow_id]
        values = (value for count, *value in packets.runs for _ in range(count))
        doc["flows"][rep.flow_id]["packets"] = [
            {"t_in": t_in, "result": CLASS_OF_AGREES[code], "hops": hops, "delivered": e == 0}
            for t_in, (hops, e, code) in zip(packets.t_in, values, strict=True)]
    return doc
