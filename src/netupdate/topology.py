"""Network construction: leaf-spine generator, JSON topology files with
geo-derived link delays, and the rule/update builders for tag-based
(two-phase) path reconfiguration.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .delays import DEFAULT_EXP_CAP_FACTOR, DelayModel
from .model import (
    DELIVER,
    MAX_DURATION_NS,
    Action,
    ForwardingState,
    Link,
    Network,
    SingletonUpdate,
    UpdateProcedure,
    field,
)

EARTH_RADIUS_KM = 6371.0
INGRESS_PORT = 0  # ingress ports are numbered separately from link ports
POLICY_FLOW_ID = "policy"  # flow id of the stub rules in policy and k-phase updates
MAX_LEAF_SPINE_N = 768  # the largest fabric: 512 leaves x 256 spines = 2^17 links
DELAY_MODES = ("constant", "exponential")


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometres over the mean Earth radius."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def leaf_spine(n: int) -> Network:
    """Leaf-spine fabric of n switches: 2n/3 leaves, n/3 spines, full bipartite
    links of zero delay.

    Each leaf carries one ingress port (port 0). n must be a multiple of 3
    in [3, MAX_LEAF_SPINE_N].
    """
    if not 3 <= n <= MAX_LEAF_SPINE_N or n % 3 != 0:
        raise ValueError(f"switch count must be a multiple of 3 in [3, {MAX_LEAF_SPINE_N}], "
                         f"got {n}")
    delay = DelayModel.constant(0)
    n_leaf, n_spine = 2 * n // 3, n // 3
    leaves = [f"leaf{i}" for i in range(1, n_leaf + 1)]
    spines = [f"spine{j}" for j in range(1, n_spine + 1)]
    # leaf port j faces spine j; spine port i faces leaf i (both 1-based)
    links = [Link((leaf, j), (spine, i), delay)
             for i, leaf in enumerate(leaves, 1) for j, spine in enumerate(spines, 1)]
    ingress = [(leaf, INGRESS_PORT) for leaf in leaves]
    return Network(leaves + spines, links, ingress)


def leaf_switches(net: Network) -> list:
    return [s for s in net.switches if str(s).startswith("leaf")]


def load_topology(source, propagation_us_per_km: float = 5.0,
                  delay_mode: str = "constant",
                  cap_factor: float = DEFAULT_EXP_CAP_FACTOR) -> Network:
    """Build a Network from a topology file (path or already-parsed dict).

    Schema: nodes[].id with optional lat/lon, links[].a / links[].b with
    optional delay_ns override, ingress[].node (+ label). A link without an
    explicit delay needs coordinates on both endpoints; its delay is the
    great-circle distance times the propagation constant.

    delay_mode "constant" uses the derived value as-is; "exponential" uses
    it as the mean of a truncated exponential with cap = cap_factor * mean.
    """
    if isinstance(source, (str, Path)):
        doc = json.loads(Path(source).read_text())
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object, got {type(doc).__name__}")
    if delay_mode not in DELAY_MODES:
        raise ValueError(f"unknown delay_mode {delay_mode!r}")

    coords, next_port = {}, {}
    nodes = field(doc, "nodes", "", "non-empty list")
    for i in range(len(nodes)):
        node, where = field(nodes, i, "nodes", "object"), f"nodes[{i}]"
        nid = field(node, "id", where, "node")
        if nid in next_port:
            raise ValueError(f"{where}.id: duplicate node {nid!r}")
        next_port[nid] = 1
        if "lat" in node and "lon" in node:
            coords[nid] = (field(node, "lat", where, "number", lo=-90, hi=90),
                           field(node, "lon", where, "number", lo=-180, hi=180))

    links = []
    entries = field(doc, "links", "", "non-empty list", default=[])
    for i in range(len(entries)):
        entry, where = field(entries, i, "links", "object"), f"links[{i}]"
        a, b = (field(entry, end, where, "node") for end in "ab")
        for end in (a, b):
            if end not in next_port:
                raise ValueError(f"{where}: unknown node {end!r}")
        delay_ns = field(entry, "delay_ns", where, "int", lo=0, hi=MAX_DURATION_NS, default=None)
        if delay_ns is None:
            if a not in coords or b not in coords:
                raise ValueError(
                    f"link {a}-{b}: no delay_ns and missing coordinates on an endpoint")
            km = haversine_km(*coords[a], *coords[b])
            delay_ns = int(round(km * propagation_us_per_km * 1000))
        if delay_mode == "exponential" and delay_ns > 0:
            model = DelayModel.exponential(delay_ns, int(round(delay_ns * cap_factor)))
        else:
            model = DelayModel.constant(delay_ns)
        pa, pb = next_port[a], next_port[b]
        next_port[a] += 1
        next_port[b] += 1
        links.append(Link((a, pa), (b, pb), model))

    ingress = []
    entries = field(doc, "ingress", "", "non-empty list", default=[])
    for i in range(len(entries)):
        entry = entries[i] if isinstance(entries[i], dict) else {"node": entries[i]}
        node = field(entry, "node", f"ingress[{i}]", "node")
        if node not in next_port:
            raise ValueError(f"ingress[{i}]: unknown node {node!r}")
        ingress.append((node, INGRESS_PORT))
    return Network(tuple(next_port), tuple(links), frozenset(ingress))


def path_link_bound_ns(net: Network, path) -> int:
    """Sum of link delay upper bounds along a switch path (the per-flow d_n)."""
    total = 0
    for a, b in zip(path, path[1:]):
        link = net.link_between(a, b)
        if link is None:
            raise ValueError(f"no link between {a!r} and {b!r}")
        total += link.delay.bound()
    return total


def _hop_plan(net: Network, ingress_port: int, path):
    """Per-switch (in_port, out_port-or-None) pairs along a path."""
    if not path:
        raise ValueError("path must contain at least one switch")
    plan = []
    in_port = ingress_port
    for pos, sw in enumerate(path):
        if pos == len(path) - 1:
            plan.append((sw, in_port, None))
            break
        nxt = path[pos + 1]
        link = net.link_between(sw, nxt)
        if link is None:
            raise ValueError(f"no link between {sw!r} and {nxt!r}")
        (_, out_port), (_, next_in) = (link.a, link.b) if link.a[0] == sw else (link.b, link.a)
        plan.append((sw, in_port, out_port))
        in_port = next_in
    return plan


def path_rules(net: Network, flow_id: str, ingress_port: int, path, tag: str) -> dict:
    """{switch: {key: action}} implementing one tagged path.

    The first switch stamps the tag onto untagged arrivals (wildcard rule)
    and also carries the tag-keyed rule so that installation and garbage
    collection treat every path switch alike; the last switch delivers.
    """
    plan = _hop_plan(net, ingress_port, path)
    rules = {}
    for pos, (sw, in_port, out_port) in enumerate(plan):
        table = rules.setdefault(sw, {})
        action = DELIVER if out_port is None else Action.forward(out_port)
        table[(flow_id, tag, in_port)] = action
        if pos == 0:
            stamp = DELIVER if out_port is None else Action.forward_tagged(out_port, tag)
            table[(flow_id, None, in_port)] = stamp
    return rules


def label_change_update(net: Network, flows_with_paths, old_tag: str = "A",
                        new_tag: str = "B"):
    """Initial state and procedure for re-tagging several flows at once.

    flows_with_paths is a list of (flow, path); paths stay fixed and only
    the version tag changes, one singleton update per switch per phase
    (entries for all flows crossing that switch are bundled).

    Returns (initial ForwardingState, UpdateProcedure).
    """
    old_by_switch, new_by_switch, stamps = {}, {}, {}
    for flow, path in flows_with_paths:
        if (flow.ingress_switch, flow.ingress_port) not in net.ingress_ports:
            raise ValueError(f"flow {flow.flow_id}: ingress is not an ingress port")
        if path[0] != flow.ingress_switch:
            raise ValueError(f"flow {flow.flow_id}: path must start at its ingress switch")
        old = path_rules(net, flow.flow_id, flow.ingress_port, path, old_tag)
        new = path_rules(net, flow.flow_id, flow.ingress_port, path, new_tag)
        for sw, table in old.items():
            old_by_switch.setdefault(sw, {}).update(table)
        for sw, table in new.items():
            tagged = {k: a for k, a in table.items() if k[1] == new_tag}
            new_by_switch.setdefault(sw, {}).update(tagged)
            stamp_key = (flow.flow_id, None, flow.ingress_port)
            if stamp_key in table:
                stamps.setdefault(sw, {})[stamp_key] = table[stamp_key]

    initial = ForwardingState.from_dict(net, old_by_switch)
    items = []
    for sw in sorted(new_by_switch, key=str):  # a file's node names may mix types
        items.append((SingletonUpdate.install(sw, new_by_switch[sw]), 1))
    for sw in sorted(stamps, key=str):
        items.append((SingletonUpdate.install(sw, stamps[sw]), 2))
    for sw in sorted(old_by_switch, key=str):
        keys = [k for k in old_by_switch[sw] if k[1] == old_tag]
        items.append((SingletonUpdate.remove(sw, keys), 3))
    return initial, UpdateProcedure(tuple(items))


def stub_update(net: Network, phase_sets, gc_phases=frozenset(), tags=None):
    """Procedure of one-rule stub updates, for duration experiments where
    only message counts matter, and the initial state it starts from.

    Phase j gives each of its switches one DELIVER rule keyed
    (POLICY_FLOW_ID, tags[j-1], the switch's lowest port or 0); tags default to
    "v1", "v2", .... A garbage-collection phase removes that rule, so the
    initial state holds it; every other phase installs it.

    Returns (UpdateProcedure, initial ForwardingState).
    """
    tags = tags or [f"v{j}" for j in range(1, len(phase_sets) + 1)]
    items, initial = [], {}
    for j, (switches, tag) in enumerate(zip(phase_sets, tags), start=1):
        for sw in switches:
            key = (POLICY_FLOW_ID, tag, min(net.ports[sw], default=0))
            if j in gc_phases:
                items.append((SingletonUpdate.remove(sw, [key]), j))
                initial.setdefault(sw, {})[key] = DELIVER
            else:
                items.append((SingletonUpdate.install(sw, {key: DELIVER}), j))
    return UpdateProcedure(tuple(items)), ForwardingState.from_dict(net, initial)


def policy_update(net: Network, phase2_switches=None,
                  with_gc: bool = True) -> UpdateProcedure:
    """Generic fabric-wide policy update in the two-phase + GC shape.

    Phase 1 installs the new-tag ("B") stub on every switch, phase 2 the
    wildcard stub on the given subset (defaults to the leaf switches for a
    leaf-spine fabric), and the garbage-collection phase removes the old-tag
    ("A") stub from every switch again.
    """
    if phase2_switches is None:
        phase2_switches = leaf_switches(net)
        if not phase2_switches:
            raise ValueError("phase2_switches required for non-leaf-spine networks")
    phases = [net.switches, phase2_switches] + ([net.switches] if with_gc else [])
    return stub_update(net, phases, {3}, ["B", None, "A"])[0]


def policy_initial_state(net: Network) -> ForwardingState:
    """Pre-update state matching policy_update, so garbage collection has rules
    to remove: the old-tag and the wildcard stub on every switch."""
    return stub_update(net, [net.switches] * 2, {1, 2}, ["A", None])[1]
