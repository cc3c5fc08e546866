import json
import math

import pytest

from netupdate import (
    TestFlow,
    UpdateProcedure,
    haversine_km,
    leaf_spine,
    load_topology,
    path_link_bound_ns,
)
from netupdate.topology import INGRESS_PORT, label_change_update, leaf_switches

EARTH_RADIUS_KM = 6371.0


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
        phase1 = {u.target for u in proc.updates_in_phase(1)}
        gc = {u.target for u in proc.updates_in_phase(3)}
        assert phase1 == gc == set(path)

    def test_two_hop_counts(self):
        _, proc = label_change_update(self.net, [(self.flow, ["leaf1", "spine1"])])
        assert proc.phase_counts() == [2, 1, 2]

    def test_mismatched_ingress_rejected(self):
        with pytest.raises(ValueError, match="ingress"):
            label_change_update(self.net, [(self.flow, ["leaf2", "spine1", "leaf3"])])

    def test_procedure_validity_invariants(self):
        _, proc = label_change_update(self.net, [(self.flow, ["leaf1", "spine2", "leaf3"])])
        assert isinstance(proc, UpdateProcedure)  # constructor enforces phases
        # remove-mode entries only in the gc phase
        for u in proc.updates_in_phase(1) + proc.updates_in_phase(2):
            assert u.mode == "install"
        for u in proc.updates_in_phase(3):
            assert u.mode == "remove"


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
        action, gen = initial.lookup("leaf1", "f1", None, INGRESS_PORT)
        assert action.kind == "forward_tagged" and gen == "old"
        assert proc.num_phases == 3
