import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from netupdate import (
    TestFlow,
    UpdateProcedure,
    haversine_km,
    leaf_spine,
    load_topology,
    path_link_bound_ns,
)
from netupdate.config import Experiment
from netupdate.model import lookup_rule
from netupdate.topology import (INGRESS_PORT, label_change_update, leaf_switches,
                                 policy_initial_state, stub_update)

EARTH_RADIUS_KM = 6371.0
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestLeafSpine:
    @pytest.mark.parametrize("n,leaves,spines,links", [(6, 4, 2, 8), (48, 32, 16, 512)])
    def test_split_and_link_count(self, n, leaves, spines, links):
        net = leaf_spine(n)
        assert len(leaf_switches(net)) == leaves
        assert len(net.switches) - leaves == spines
        assert len(net.links) == links

    def test_indivisible_count_rejected(self):
        with pytest.raises(ValueError):
            leaf_spine(7)

    def test_bipartite_full_mesh_connected(self):
        net = leaf_spine(12)
        leaves = set(leaf_switches(net))
        for link in net.links:
            ends = {link.a[0], link.b[0]}
            assert len(ends & leaves) == 1  # every link crosses leaf <-> spine
        # each leaf sees every spine
        spines = [s for s in net.switches if s not in leaves]
        for leaf in leaves:
            peers = {net.peer(leaf, p)[0] for p in net.ports[leaf]
                     if net.peer(leaf, p)}
            assert peers == set(spines)

    def test_each_leaf_has_one_ingress(self):
        net = leaf_spine(6)
        assert net.ingress_ports == frozenset(
            (leaf, INGRESS_PORT) for leaf in leaf_switches(net))

    def test_flowless_fabric_run_stays_small(self):
        # a Link and two endpoint tuples per link of leaf_spine(768), 2^17 links,
        # and a port set per switch made this peak 47.6 MiB; now it is 2.5 MiB
        exp = Experiment(json.loads((CONFIGS / "leafspine_sweep.json").read_text()))
        point = exp.materialize(6)   # first calls import and cache outside the count
        point.run(0)
        tracemalloc.start()
        try:
            point = exp.materialize(768)
            point.run(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestHaversine:
    def test_symmetric_and_zero_on_identical(self):
        assert haversine_km(10, 20, 10, 20) == 0
        assert haversine_km(10, 20, 30, 40) == pytest.approx(
            haversine_km(30, 40, 10, 20))

    def test_equator_arc_known_distance(self):
        # points on the equator: distance is exactly R * delta_longitude
        dlon = math.degrees(1000.0 / EARTH_RADIUS_KM)
        assert haversine_km(0, 0, 0, dlon) == pytest.approx(1000.0, rel=1e-9)


class TestLoadTopology:
    def doc(self, **overrides):
        dlon = math.degrees(1000.0 / EARTH_RADIUS_KM)
        base = {
            "nodes": [{"id": "A", "lat": 0, "lon": 0},
                      {"id": "B", "lat": 0, "lon": dlon}],
            "links": [{"a": "A", "b": "B"}],
            "ingress": [{"node": "A", "label": "src"}],
        }
        base.update(overrides)
        return base

    def test_geo_delay_five_us_per_km(self):
        net = load_topology(self.doc(), propagation_us_per_km=5)
        assert net.links[0].delay.bound() == 5_000_000  # 1000 km -> 5 ms

    def test_identical_coordinates_zero_delay(self):
        doc = self.doc(nodes=[{"id": "A", "lat": 3, "lon": 4},
                              {"id": "B", "lat": 3, "lon": 4}])
        net = load_topology(doc)
        assert net.links[0].delay.bound() == 0

    def test_delay_override_wins(self):
        doc = self.doc(nodes=[{"id": "A"}, {"id": "B"}],
                       links=[{"a": "A", "b": "B", "delay_ns": 7_000_000}])
        net = load_topology(doc)
        assert net.links[0].delay.bound() == 7_000_000

    def test_missing_coordinates_and_override_names_link(self):
        doc = self.doc(nodes=[{"id": "A"}, {"id": "B", "lat": 0, "lon": 1}])
        with pytest.raises(ValueError, match="A-B"):
            load_topology(doc)

    def test_exponential_mode_cap_is_bound(self):
        net = load_topology(self.doc(), delay_mode="exponential", cap_factor=10)
        link = net.links[0]
        assert link.delay.kind == "exponential"
        assert link.delay.bound() == 10 * link.delay.mean

    # a cap of cap_factor x delay_ns past int64 raised OverflowError when drawn
    def test_exponential_cap_past_int64_names_its_link(self):
        doc = self.doc(nodes=[{"id": "A"}, {"id": "B"}],
                       links=[{"a": "A", "b": "B", "delay_ns": 10**18}])
        with pytest.raises(ValueError, match=r"links\[0\]: exponential cap"):
            load_topology(doc, delay_mode="exponential", cap_factor=10)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(self.doc()))
        net = load_topology(path)
        assert set(net.switches) == {"A", "B"}
        assert ("A", INGRESS_PORT) in net.ingress_ports

    def test_shipped_topologies_load(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[1] / "topologies"
        for name in ("netrail", "sprint", "compuserve"):
            net = load_topology(root / f"{name}.json")
            assert len(net.switches) >= 7
            assert net.ingress_ports


class TestLabelChangeUpdate:
    def setup_method(self):
        self.net = leaf_spine(6)
        self.flow = TestFlow("f1", "leaf1", INGRESS_PORT, 1000.0)

    def test_label_only_change_same_path(self):
        path = ["leaf1", "spine1", "leaf2"]
        _, proc = label_change_update(self.net, [(self.flow, path)])
        assert proc.phase_counts() == [3, 1, 3]
        assert proc.gc_phases() == frozenset({3})
        # same switches, different tags, still a valid procedure
        phase1 = {u.target for u, p in proc.items if p == 1}
        gc = {u.target for u, p in proc.items if p == 3}
        assert phase1 == gc == set(path)

    def test_two_hop_counts(self):
        _, proc = label_change_update(self.net, [(self.flow, ["leaf1", "spine1"])])
        assert proc.phase_counts() == [2, 1, 2]

    def test_mismatched_ingress_rejected(self):
        with pytest.raises(ValueError, match="ingress"):
            label_change_update(self.net, [(self.flow, ["leaf2", "spine1", "leaf3"])])

    # path[0] was read before the empty-path check, so callers got IndexError
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="must start at its ingress"):
            label_change_update(self.net, [(self.flow, [])])

    # phase 3 removed the rules phase 1 had installed, dropping the flow's packets
    def test_equal_tags_rejected(self):
        with pytest.raises(ValueError, match="new_tag equals old_tag 'A'"):
            label_change_update(self.net, [(self.flow, ["leaf1", "spine1"])], "A", "A")

    def test_procedure_validity_invariants(self):
        _, proc = label_change_update(self.net, [(self.flow, ["leaf1", "spine2", "leaf3"])])
        assert isinstance(proc, UpdateProcedure)  # constructor enforces phases
        # remove-mode entries only in the gc phase
        for u, p in proc.items:
            assert u.mode == ("remove" if p == 3 else "install")


class TestPathHelpers:
    def test_path_bound_sums_links(self):
        net = leaf_spine(6)
        assert path_link_bound_ns(net, ["leaf1", "spine1", "leaf2"]) == 0
        with pytest.raises(ValueError, match="no link"):
            path_link_bound_ns(net, ["leaf1", "leaf2"])

    def test_label_change_initial_state_covers_old_paths(self):
        net = leaf_spine(6)
        flow = TestFlow("f1", "leaf1", INGRESS_PORT, 1000.0)
        path = ["leaf1", "spine1", "leaf2"]
        initial, proc = label_change_update(net, [(flow, path)])
        # old config forwards an untagged packet end to end
        action = lookup_rule(initial.tables["leaf1"], "f1", None, INGRESS_PORT)
        assert action.kind == "forward_tagged"
        assert proc.num_phases == 3


# policy_initial_state took the initial state of a two-phase stub_update whose
# procedure it discarded; that expression is its oracle, key order included
@pytest.mark.parametrize("topo", [3, 6, 192, 768, "sprint"])
def test_policy_initial_state_is_the_stub_updates(topo):
    net = (leaf_spine(topo) if isinstance(topo, int) else
           load_topology(Path(__file__).resolve().parents[1] / "topologies" / f"{topo}.json"))
    want = stub_update(net, [net.switches] * 2, {1, 2}, ["A", None])[1]
    got = policy_initial_state(net)
    assert got == want
    assert [(sw, list(table.items())) for sw, table in got.tables.items()] == [
        (sw, list(table.items())) for sw, table in want.tables.items()]


# sha256 of what label_change_update returns for the cases below: every
# initial table in insertion order, then the procedure's items; whatever moves
# a rule, a key's table position or an update moves it
LABEL_CHANGE_DIGEST = "4f2d1d7380ac1906e944e594bf3a9b877e73ddc019bf49f4a74bb4ecf27d1f51"


def _label_change_cases():
    """(net, [(flow, path)]) for the shipped constant-delay knob configs, two
    flows whose paths share switches, and a one-switch path."""
    for name in ("netrail_knob", "sprint_knob", "compuserve_knob"):
        exp = Experiment.load(CONFIGS / f"{name}.json")
        point = exp.materialize(exp.grid[0])
        paths = {spec["flow_id"]: spec["path"] for spec in exp.doc["flows"]}
        yield point.net, [(f, paths[f.flow_id]) for f in point.flows]
    net = leaf_spine(6)
    yield net, [(TestFlow("f1", "leaf1", INGRESS_PORT, 1000.0), ["leaf1", "spine1", "leaf2"]),
                (TestFlow("f2", "leaf2", INGRESS_PORT, 1000.0), ["leaf2", "spine1", "leaf1"])]
    yield net, [(TestFlow("f3", "leaf3", INGRESS_PORT, 1000.0), ["leaf3"])]


def test_label_change_update_pinned_to_digest():
    digest = hashlib.sha256()
    for net, flows_with_paths in _label_change_cases():
        initial, proc = label_change_update(net, flows_with_paths)
        digest.update(repr([(sw, list(table.items()))
                            for sw, table in initial.tables.items()]).encode())
        digest.update(repr(proc.items).encode())
    assert digest.hexdigest() == LABEL_CHANGE_DIGEST
