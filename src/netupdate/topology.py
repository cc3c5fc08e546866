"""Network construction: leaf-spine generator, JSON topology files with
geo-derived link delays, the label-change builder for tag-based (two-phase)
path reconfiguration, and the one-rule stub updates of duration experiments.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
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


class _LeafSpine(Network):
    """leaf_spine's fabric. Its switches and ports follow from n alone; the
    links, in Network's order, are built on first use, since a run without
    flows never reads them. Network's constructor, which this one skips, is
    the oracle of both."""

    def __init__(self, n: int):
        n_leaf, n_spine = 2 * n // 3, n // 3
        self.leaves = tuple(f"leaf{i}" for i in range(1, n_leaf + 1))
        self.spines = tuple(f"spine{j}" for j in range(1, n_spine + 1))
        self.switches = self.leaves + self.spines
        self.ingress_ports = frozenset((leaf, INGRESS_PORT) for leaf in self.leaves)
        # leaf port j faces spine j; spine port i faces leaf i (both 1-based). The
        # leaves share one port set and the spines another, as immutable as the rest
        self.ports = dict.fromkeys(self.leaves, set(range(n_spine + 1)))
        self.ports.update(dict.fromkeys(self.spines, set(range(1, n_leaf + 1))))

    @cached_property
    def links(self) -> tuple:
        delay = DelayModel.constant(0)
        return tuple(Link((leaf, j), (spine, i), delay) for i, leaf in enumerate(self.leaves, 1)
                     for j, spine in enumerate(self.spines, 1))


def leaf_spine(n: int) -> Network:
    """Leaf-spine fabric of n switches: 2n/3 leaves, n/3 spines, full bipartite
    links of zero delay.

    Each leaf carries one ingress port (port 0). n must be a multiple of 3
    in [3, MAX_LEAF_SPINE_N].
    """
    if not 3 <= n <= MAX_LEAF_SPINE_N or n % 3 != 0:
        raise ValueError(f"switch count must be a multiple of 3 in [3, {MAX_LEAF_SPINE_N}], "
                         f"got {n}")
    return _LeafSpine(n)


def leaf_switches(net: Network) -> list:
    """The leaves of a leaf_spine fabric; no switch of any other network."""
    return list(net.leaves) if isinstance(net, _LeafSpine) else []


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
            try:  # the cap, cap_factor x delay_ns, may pass int64
                model = DelayModel.exponential(delay_ns, int(round(delay_ns * cap_factor)))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
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


def _path_links(net: Network, path):
    """(link, out_port, next_in_port) for each hop of a switch path, in order."""
    for a, b in zip(path, path[1:]):
        link = net.link_between(a, b)
        if link is None:
            raise ValueError(f"no link between {a!r} and {b!r}")
        (_, out_port), (_, next_in) = (link.a, link.b) if link.a[0] == a else (link.b, link.a)
        yield link, out_port, next_in


def path_link_bound_ns(net: Network, path) -> int:
    """Sum of link delay upper bounds along a switch path (the per-flow d_n)."""
    return sum(link.delay.bound() for link, _, _ in _path_links(net, path))


def label_change_update(net: Network, flows_with_paths, old_tag: str = "A",
                        new_tag: str = "B"):
    """Initial state and procedure for re-tagging several flows at once.

    flows_with_paths is a list of (flow, path); paths stay fixed and only
    the version tag changes, one singleton update per switch per phase
    (entries for all flows crossing that switch are bundled). Each path
    switch forwards the flow's tagged packets, the last one delivers, and
    the first also stamps the tag onto untagged arrivals. Phase 1 installs
    the new-tag rules, phase 2 the new stamps, and phase 3 removes the
    old-tag rules.

    Returns (initial ForwardingState, UpdateProcedure).
    """
    if new_tag == old_tag:
        raise ValueError(f"new_tag equals old_tag {old_tag!r}, whose rules phase 3 removes")
    old_rules, new_rules, stamps = {}, {}, {}
    for flow, path in flows_with_paths:
        fid, in_port = flow.flow_id, flow.ingress_port
        if (flow.ingress_switch, in_port) not in net.ingress_ports:
            raise ValueError(f"flow {fid}: ingress is not an ingress port")
        if not path or path[0] != flow.ingress_switch:
            raise ValueError(f"flow {fid}: path must start at its ingress switch")
        hops = _path_links(net, path)
        for pos, sw in enumerate(path):
            _, out_port, next_in = next(hops, (None, None, None))
            action = DELIVER if out_port is None else Action.forward(out_port)
            old_rules.setdefault(sw, {})[(fid, old_tag, in_port)] = action
            new_rules.setdefault(sw, {})[(fid, new_tag, in_port)] = action
            if pos == 0:
                key = (fid, None, in_port)
                old_rules[sw][key], stamps.setdefault(sw, {})[key] = (
                    (DELIVER, DELIVER) if out_port is None else
                    (Action.forward_tagged(out_port, old_tag),
                     Action.forward_tagged(out_port, new_tag)))
            in_port = next_in

    items = [(SingletonUpdate.install(sw, new_rules[sw]), 1)
             for sw in sorted(new_rules, key=str)]  # a file's node names may mix types
    items += [(SingletonUpdate.install(sw, stamps[sw]), 2) for sw in sorted(stamps, key=str)]
    items += [(SingletonUpdate.remove(sw, [k for k in old_rules[sw] if k[1] == old_tag]), 3)
              for sw in sorted(old_rules, key=str)]
    return ForwardingState.from_dict(net, old_rules), UpdateProcedure(tuple(items))


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
    lowest = {sw: min(ports, default=0) for sw, ports in net.ports.items()}
    items, initial = [], {}
    for j, (switches, tag) in enumerate(zip(phase_sets, tags), start=1):
        for sw in switches:
            key = (POLICY_FLOW_ID, tag, lowest[sw])
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
    """Pre-update state matching policy_update, so garbage collection has rules to
    remove: the "A" and the wildcard stub of every switch, as stub_update keys them."""
    lowest = ((sw, min(net.ports[sw], default=0)) for sw in net.switches)
    return ForwardingState({sw: {(POLICY_FLOW_ID, "A", port): DELIVER,
                                 (POLICY_FLOW_ID, None, port): DELIVER} for sw, port in lowest})
