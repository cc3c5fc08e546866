"""Slow, obviously correct references that the tests hold the package's fast paths to.

No command calls them, so they live with the tests: import them as tests
import conftest.

- classify_packet: one PacketTrace against both full configurations, the
  per-trace reference of the walks' agreement codes (CLASS_OF_AGREES).
- mean_value: a DelayModel's analytic (or pool) mean, for the sampler's tests.
- t_last: a flow's arrival time at the last hop of each packet, by the
  table-driven walk of every packet, whose runs must be the stored ones.
- run_to_dict: run.json as one document with a dict per packet, which the
  streamed writer (cli._write_run) must equal byte for byte once dumped.
"""

import math
from array import array
from functools import cache

from netupdate import simulator
from netupdate.cli import _run_doc
from netupdate.consistency import CLASS_OF_AGREES, CONSISTENT_NEW, CONSISTENT_OLD, INCONSISTENT
from netupdate.model import lookup_rule


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
