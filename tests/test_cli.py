import copy
import functools
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import netupdate
from netupdate import (
    DELIVER,
    Action,
    ForwardingState,
    SingletonUpdate,
    SystemParameters,
    TestFlow,
    UpdateProcedure,
    measure_inconsistency,
    run_flows,
    run_untimed,
)
from netupdate.cli import PACKET_BLOCK, _run_to_dict, _write_run, main
from netupdate.config import ConfigError, Experiment, parse_duration
from netupdate import simulator, topology
from netupdate.simulator import ENGINE_VERSION, Fault, FlowPackets

from conftest import line_network

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def base_config(**overrides):
    doc = {
        "topology": {"kind": "leaf_spine", "n": 6},
        "procedure": {"kind": "two-phase+gc"},
        "params": {"dc": "4.865ms", "dn": "0.262ms",
                   "delta_msg": "5.24ms", "delta_sched": "1.297ms"},
        "mode": "untimed-greedy",
        "seeds": [0, 1],
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseDuration:
    @pytest.mark.parametrize("text,ns", [
        ("5.24ms", 5_240_000), ("200us", 200_000), ("1s", 10**9),
        ("7ns", 7), (1500, 1500), ("42", 42),
    ])
    def test_accepted_forms(self, text, ns):
        assert parse_duration(text) == ns

    # "²" passed str.isdigit and exited 3 (ValueError from int)
    @pytest.mark.parametrize("bad", ["5.24", "ms", "-3ms", "fast", None, "²"])
    def test_rejected_forms(self, bad):
        with pytest.raises(ConfigError):
            parse_duration(bad, "field")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**18 + 1, 1e19,
                                     "2000000000s", "1000000000000000001"])
    def test_non_finite_and_beyond_cap_rejected(self, bad):
        with pytest.raises(ConfigError, match="field"):
            parse_duration(bad, "field")

    def test_cap_itself_accepted(self):
        assert parse_duration(10**18) == parse_duration("1000000000s") == 10**18


class TestPlanCommand:
    def test_n_sweep_columns(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            mode="timed-worst-case",
            sweep={"axis": "N", "grid": [6, 12, 24]}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "plan.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "axis_value,untimed_worst_ns,timed_worst_ns,timed_wins"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["6", "12", "24"]
        timed = {int(r[2]) for r in rows}
        assert timed == {4_153_000}  # constant in N
        untimed = [int(r[1]) for r in rows]
        assert untimed == sorted(untimed) and untimed[0] < untimed[-1]
        assert {r[3] for r in rows} == {"true"}

    # every sweep point used to read the topology file again
    def test_sweep_reads_topology_once_unless_axis_is_n(self, tmp_path):
        with mock.patch.object(topology, "load_topology",
                               wraps=topology.load_topology) as load:
            assert main(["plan", "--config", str(CONFIGS / "netrail_knob.json"),
                         "--out", str(tmp_path)]) == 0
        assert load.call_count == 1
        cfg = write_config(tmp_path, base_config(sweep={"axis": "N", "grid": [6, 12, 24]}))
        with mock.patch.object(topology, "leaf_spine", wraps=topology.leaf_spine) as build:
            assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert [c.args for c in build.call_args_list] == [(6,), (12,), (24,)]

    def test_dsched_sweep_timed_linear(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            mode="timed-worst-case",
            sweep={"axis": "delta_sched", "grid": ["0ms", "1ms", "2ms"]}))
        main(["plan", "--config", str(cfg), "--out", str(tmp_path)])
        rows = [line.split(",") for line
                in (tmp_path / "plan.csv").read_text().splitlines()[2:]]
        timed = [int(r[2]) for r in rows]
        # d_n + 3 * dsched: affine in the scheduling error
        assert timed[1] - timed[0] == timed[2] - timed[1] == 3_000_000


class TestSimulateCommand:
    def test_writes_outputs_with_documented_shapes(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["meta"]["mode"] == "untimed"
        assert run["update_duration_ns"] <= 83_465_000  # closed form for N=6
        inc = (out / "inconsistency.csv").read_text().splitlines()
        assert inc[1] == "flow_id,n_inconsistent,rate_pps,inconsistency_ns"
        for line in (out / "messages.log").read_text().splitlines():
            fields = line.split(" ", 5)
            assert len(fields) == 6
            int(fields[0])  # time_ns leads every line

    def test_flows_measured(self, tmp_path):
        cfg = CONFIGS / "compuserve_knob.json"
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        inc = (out / "inconsistency.csv").read_text().splitlines()
        assert len(inc) == 2 + 5  # meta + header + five flows
        run = json.loads((out / "run.json").read_text())
        assert set(run["flows"]) == {"f1", "f2", "f3", "f4", "f5"}
        # the stream behind these bytes is named in both outputs
        assert inc[0].endswith(f" engine={ENGINE_VERSION}")
        assert run["meta"]["engine"] == ENGINE_VERSION
        for flow in run["flows"].values():
            assert flow["dropped"] + flow["truncated"] + flow["stranded"] <= len(flow["packets"])


class TestRunJsonOutcomeCounts:
    def flow_doc(self, rules):
        """run.json's entry for ten packets of flow f on a two-switch chain."""
        net = line_network([1_000])
        initial = ForwardingState.from_dict(net, rules)
        unrelated = SingletonUpdate.install("S2", {("x", None, 1): DELIVER})
        run = run_untimed(net, UpdateProcedure(((unrelated, 1),)),
                          SystemParameters(1_000, 1_000, 1_000, 0), initial_state=initial)
        flow = TestFlow("f", "S1", 0, 1e6)
        # the report and run.json read the walk's arrays; no trace objects are built
        with mock.patch.object(simulator, "forward_packet",
                               side_effect=AssertionError("a PacketTrace was built")):
            run_flows(net, run, [flow], window=(0, 10_000))
            return _run_to_dict(run, "cfg", [measure_inconsistency(run, flow)])["flows"]["f"]

    def test_loop_counts_truncated(self):
        doc = self.flow_doc({
            "S1": {("f", None, 0): Action.forward(2), ("f", None, 2): Action.forward(2)},
            "S2": {("f", None, 1): Action.forward(1)},
        })
        assert (doc["dropped"], doc["truncated"], doc["stranded"]) == (0, 10, 0)
        assert {p["hops"] for p in doc["packets"]} == {2}

    def test_unlinked_port_counts_stranded(self):
        doc = self.flow_doc({"S1": {("f", None, 0): Action.forward(7)}})
        assert (doc["dropped"], doc["truncated"], doc["stranded"]) == (0, 0, 10)

    def test_table_miss_counts_dropped(self):
        doc = self.flow_doc({"S1": {("f", None, 0): Action.forward(2)}})
        assert (doc["dropped"], doc["truncated"], doc["stranded"]) == (10, 0, 0)
        assert not any(p["delivered"] for p in doc["packets"])


@functools.lru_cache(maxsize=1)
def _writer_base_run():
    """A run whose one flow "f" has 3,100 packets of every class, delivered
    or not, ending after one or two hops: phase 1 re-tags at S1 and removes
    S2's rule at independent random times, phase 2 removes S1's rule."""
    net = line_network([1_000])
    initial = ForwardingState.from_dict(net, {"S1": {("f", None, 0): Action.forward(2)},
                                              "S2": {("f", None, 1): DELIVER}})
    proc = UpdateProcedure((
        (SingletonUpdate.install("S1", {("f", None, 0): Action.forward_tagged(2, "B")}), 1),
        (SingletonUpdate.remove("S2", [("f", None, 1)]), 1),
        (SingletonUpdate.remove("S1", [("f", None, 0)]), 2)))
    run = run_untimed(net, proc, SystemParameters(1_000_000, 1_000, 1_000, 0),
                      initial_state=initial, start_time=500_000)
    run_flows(net, run, [TestFlow("f", "S1", 0, 1e6)], window=(0, 3_100_000))
    return run


_ODD_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é€😀'),
                              st.characters()), max_size=6)
_COUNTS = st.one_of(  # empty, one packet, and around the block boundaries
    st.sampled_from([0, 1, PACKET_BLOCK, PACKET_BLOCK + 1, 2 * PACKET_BLOCK + 1]),
    st.integers(0, 40))
_RATES = st.one_of(st.integers(1, 2 * 10**9), st.floats(1e-3, 2e9))


@st.composite
def _writer_cases(draw):
    ids = draw(st.one_of(st.lists(_ODD_TEXT, unique=True, max_size=3),
                         st.lists(st.integers(-5, 10**6), unique=True, max_size=3)))
    return {
        "flows": [(fid, draw(_COUNTS), draw(st.integers(0, 1_000)), draw(_RATES))
                  for fid in ids],
        "faults": draw(st.lists(st.tuples(st.integers(0, 10**18), _ODD_TEXT, _ODD_TEXT,
                                          _ODD_TEXT), max_size=2)),
        "tsu": draw(st.one_of(st.none(), st.integers(0, 10**18))),
        "hash": draw(_ODD_TEXT),
    }


class TestRunJsonStreamedWriter:
    """cmd_simulate streams run.json; json.dump of _run_to_dict is its oracle."""

    @staticmethod
    def case_run(case):
        """The base run with the case's faults and t_su, and one flow per
        (id, packet count, offset, rate), cut from "f"'s packets."""
        base = _writer_base_run()
        f = base.flow_traces["f"]
        flow_traces = {}
        for fid, n, offset, rate in case["flows"]:
            cut = slice(offset, offset + n)
            packets = FlowPackets(f.net, f.timeline, f.flow._replace(flow_id=fid), f.seed,
                                  f.index, *(getattr(f, name)[cut] for name in f.ARRAYS))
            assert len(packets.t_in) == n
            flow_traces[fid] = packets
        run = copy.copy(base)
        run.flow_traces = flow_traces
        run.params = base.params._replace(t_su=case["tsu"])
        run.faults = [Fault(*fault) for fault in case["faults"]]
        reports = [measure_inconsistency(run, TestFlow(fid, "S1", 0, rate))
                   for fid, _, _, rate in case["flows"]]
        return run, reports

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_writer_cases())
    @example(case={"flows": [], "faults": [], "tsu": None, "hash": "h"})
    @example(case={"flows": [("a", 0, 0, 5000), ("b", 2 * PACKET_BLOCK + 1, 900, 5000.5)],
                   "faults": [(7, "missed_schedule", 'S"1', "late\n\\")],
                   "tsu": 1_000, "hash": "h"})
    def test_streamed_bytes_equal_the_oracle(self, case):
        run, reports = self.case_run(case)
        buf = io.StringIO()
        _write_run(buf, run, case["hash"], reports)
        assert buf.getvalue() == json.dumps(_run_to_dict(run, case["hash"], reports),
                                            indent=2, sort_keys=True)

    def test_base_run_has_every_outcome(self):
        f = _writer_base_run().flow_traces["f"]
        report = measure_inconsistency(_writer_base_run(), TestFlow("f", "S1", 0, 1e6))
        assert len(f.t_in) >= 2 * PACKET_BLOCK + 1 + 1_000
        assert set(report.classes) == {"consistent_old", "consistent_new", "inconsistent"}
        assert set(f.delivered.tolist()) == {True, False}
        assert set(f.hops.tolist()) == {1, 2}


class TestSweepCommand:
    def test_sim_max_below_plan_worst(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            sweep={"axis": "N", "grid": [6, 12]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line
                in (out / "sweep.csv").read_text().splitlines()[2:]]
        for r in rows:
            assert int(r[5]) <= int(r[6])  # sim_max_ns <= plan_worst_ns
            # sampled gaps average half their bound, so the untimed mean
            # sits visibly below the worst-case line
            assert int(r[3]) < int(r[6])

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = str(CONFIGS / "compuserve_knob.json")
        args = ["sweep", "--config", cfg, "--grid", "0ms,2ms", "--seeds", "0,1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("sweep.csv", "inconsistency_sweep.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_and_grid_overrides_change_hash(self, tmp_path):
        cfg = write_config(tmp_path, base_config(sweep={"axis": "N", "grid": [6]}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--out", str(out2), "--seeds", "5"])
        meta1 = (out1 / "sweep.csv").read_text().splitlines()[0]
        meta2 = (out2 / "sweep.csv").read_text().splitlines()[0]
        assert meta1 != meta2


class TestConfigErrors:
    def test_missing_param_names_field(self, tmp_path, capsys):
        doc = base_config()
        del doc["params"]["dc"]
        cfg = write_config(tmp_path, doc)
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "params.dc" in capsys.readouterr().err

    def test_bad_leaf_spine_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(
            topology={"kind": "leaf_spine", "n": 7}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "topology.n" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["plan", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_unknown_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path),
                     "--axis", "bananas", "--grid", "1,2"]) == 2
        assert "sweep.axis" in capsys.readouterr().err

    # used to write header-only CSVs and exit 0
    @pytest.mark.parametrize("command", ["plan", "sweep"])
    def test_axis_override_without_sweep_block_exits_two(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, base_config())
        assert main([command, "--config", str(cfg), "--out", str(tmp_path),
                     "--axis", "dc"]) == 2
        assert "sweep.grid" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize("sweep,field", [
        ("x", "sweep:"), ({"axis": "dc"}, "sweep.grid"), ({"axis": "dc", "grid": "1ms"}, "sweep.grid"),
        ({"axis": "dc", "grid": []}, "sweep.grid"), ({"grid": [1]}, "sweep.axis")])
    def test_bad_sweep_block_exits_two(self, tmp_path, capsys, sweep, field):
        cfg = write_config(tmp_path, base_config(sweep=sweep))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    # used to exit 3 (TypeError from dict(None))
    def test_overrides_fill_a_null_sweep_block(self, tmp_path):
        cfg = write_config(tmp_path, base_config(sweep=None))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path),
                     "--axis", "dc", "--grid", "1ms,2ms"]) == 0
        assert len((tmp_path / "plan.csv").read_text().splitlines()) == 4

    # null exited 3 (TypeError), "x" ran as seed "x"
    @pytest.mark.parametrize("seeds", [None, "x", [], [-1], [True], [1.5], ["0"], [[0]], 3])
    def test_bad_seeds_exit_two(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path, base_config(seeds=seeds))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        # a bad entry is named by its index, anything else by the list
        field = "seeds[0]" if isinstance(seeds, list) and seeds else "seeds"
        assert f"config error: {field}: expected " in capsys.readouterr().err

    # -1 exited 3 (numpy ValueError)
    def test_negative_seed_override_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                     "--seeds=-1"]) == 2
        assert "config error: seeds[0]: expected " in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    # a bad d or dc entry was blamed on knob_d or "sweep.grid(dc)", a bad N
    # entry on topology.n
    @pytest.mark.parametrize("mode,axis,value", [
        ("timed-knob", "d", None), ("timed-knob", "d", "x"), ("timed-knob", "d", -1),
        ("untimed-greedy", "dc", "fast"), ("untimed-greedy", "N", 7),
        ("untimed-greedy", "N", "x"), ("untimed-greedy", "N", 1.5)])
    def test_bad_sweep_grid_entry_names_it(self, tmp_path, capsys, mode, axis, value):
        first = 6 if axis == "N" else "1ms"
        cfg = write_config(tmp_path, base_config(mode=mode, sweep={"axis": axis,
                                                                   "grid": [first, value]}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error: sweep.grid[1]: " in capsys.readouterr().err

    # each exited 3: AttributeError, an unhashable tag, a non-string path,
    # TypeError or OverflowError from the topology's numbers
    @pytest.mark.parametrize("path,value", [
        ("procedure", None), ("procedure", []), ("delays", "x"), ("procedure.old_tag", []),
        ("procedure.new_tag", {"a": 1}), ("topology.path", 3), ("topology.path", None),
        ("topology.cap_factor", "x"), ("topology.cap_factor", math.inf),
        ("topology.propagation_us_per_km", None), ("topology.propagation_us_per_km", math.inf),
        # these exited 2 naming only "topology"
        ("topology.cap_factor", -1), ("topology.cap_factor", 0),
        ("topology.propagation_us_per_km", -1), ("topology.delay_mode", "x")])
    def test_field_of_the_wrong_type_names_it(self, tmp_path, capsys, path, value):
        doc = sprint_flow_config(rate_pps=5000)
        doc["topology"]["delay_mode"] = "exponential"
        *parents, key = path.split(".")
        functools.reduce(dict.__getitem__, parents, doc)[key] = value
        assert main(["plan", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path)]) == 2
        assert f"config error: {path}: expected " in capsys.readouterr().err

    def test_dn_auto_without_flows(self, tmp_path, capsys):
        doc = base_config()
        doc["params"]["dn"] = "auto"
        cfg = write_config(tmp_path, doc)
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "params.dn" in capsys.readouterr().err


class TestProcedureErrors:
    # an unknown switch and a string used to exit 3 (KeyError 'nope' / 'L')
    @pytest.mark.parametrize("phase2", [["nope"], "L1", [], [["L1"]], {"L1": 1}, 3])
    def test_bad_phase2_switches_exit_two(self, tmp_path, capsys, phase2):
        cfg = write_config(tmp_path, base_config(
            procedure={"kind": "two-phase+gc", "phase2_switches": phase2}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "procedure.phase2_switches" in capsys.readouterr().err

    def test_known_phase2_switches_accepted(self, tmp_path):
        leaf = sorted(Experiment(base_config()).materialize().net.switches)[0]
        cfg = write_config(tmp_path, base_config(
            procedure={"kind": "two-phase+gc", "phase2_switches": [leaf]}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("phases", [[["nope"]], [[]], ["L1"], [[["L1"]]]])
    def test_bad_kphase_phases_exit_two(self, tmp_path, capsys, phases):
        cfg = write_config(tmp_path, base_config(
            procedure={"kind": "k-phase", "phases": phases}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "procedure.phases[0]" in capsys.readouterr().err

    # [[2]] exited 3 (TypeError: unhashable), out-of-range phases were ignored
    @pytest.mark.parametrize("gc", [[[2]], [0], [3], [True], ["2"], 2, None])
    def test_bad_gc_phases_exit_two(self, tmp_path, capsys, gc):
        leaves = sorted(Experiment(base_config()).materialize().net.switches)[:2]
        cfg = write_config(tmp_path, base_config(
            procedure={"kind": "k-phase", "phases": [leaves, leaves], "gc_phases": gc}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "procedure.gc_phases" in capsys.readouterr().err

    def test_gc_phases_accepted(self, tmp_path):
        leaves = sorted(Experiment(base_config()).materialize().net.switches)[:2]
        cfg = write_config(tmp_path, base_config(
            procedure={"kind": "k-phase", "phases": [leaves, leaves], "gc_phases": [2]}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 0


class TestTopologyErrors:
    # used to exit 3: ValueError: link A-B: no delay_ns and missing coordinates
    def test_link_without_delay_or_coordinates_exits_two(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({
            "nodes": [{"id": "A"}, {"id": "B", "lat": 1.0, "lon": 2.0}],
            "links": [{"a": "A", "b": "B"}],
            "ingress": [{"node": "A"}]}))
        cfg = write_config(tmp_path, base_config(
            topology={"kind": "file", "path": str(topo)},
            procedure={"kind": "k-phase", "phases": [["A"], ["B"]]}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: topology: link A-B" in err

    # both used to exit 3 (KeyError 'b' / 'id')
    @pytest.mark.parametrize("nodes,links,message", [
        ([{"id": "A"}, {"id": "B"}], [{"a": "A", "delay_ns": 5}], "links[0].b: required"),
        ([{"id": "A"}, {"lat": 1.0}], [], "nodes[1].id: required"),
        ([{"id": "A"}], [{"a": "A", "b": "Z", "delay_ns": 5}], "links[0]: unknown node 'Z'")])
    def test_missing_topology_fields_exit_two(self, tmp_path, capsys, nodes, links, message):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"nodes": nodes, "links": links,
                                    "ingress": [{"node": "A"}]}))
        cfg = write_config(tmp_path, base_config(
            topology={"kind": "file", "path": str(topo)},
            procedure={"kind": "k-phase", "phases": [["A"]]}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config error: topology: {message}" in capsys.readouterr().err

    # used to exit 3: TypeError (unhashable list, int not iterable), KeyError 'node'
    @pytest.mark.parametrize("change,message", [
        ({"links": [{"a": ["A"], "b": "B", "delay_ns": 5}]},
         "links[0].a: expected a node name, got ['A']"),
        ({"nodes": 3}, "nodes: expected a non-empty list, got 3"),
        ({"ingress": [{"label": "src-a"}]}, "ingress[0].node: required"),
        ({"ingress": [["A"]]}, "ingress[0].node: expected a node name, got ['A']"),
        ({"nodes": [{"id": {"x": 1}}]}, "nodes[0].id: expected a node name"),
        ({"links": {"a": "A"}}, "links: expected a non-empty list, got {'a': 'A'}"),
        # named whichever unknown node its frozenset gave first, and no field
        ({"ingress": [{"node": "A"}, {"node": "Y"}, {"node": "Z"}]},
         "ingress[1]: unknown node 'Y'")])
    def test_malformed_topology_fields_exit_two(self, tmp_path, capsys, change, message):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"nodes": [{"id": "A"}, {"id": "B"}],
                                    "links": [{"a": "A", "b": "B", "delay_ns": 5}],
                                    "ingress": [{"node": "A"}], **change}))
        cfg = write_config(tmp_path, base_config(
            topology={"kind": "file", "path": str(topo)},
            procedure={"kind": "k-phase", "phases": [["A"]]}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config error: topology: {message}" in capsys.readouterr().err

    @staticmethod
    def plan_geo_topology(tmp_path, where, value):
        """Exit code and stderr of plan on A-B with coordinates, where set to value."""
        nodes = [{"id": "A", "lat": 0.0, "lon": 0.0}, {"id": "B", "lat": 1.0, "lon": 2.0}]
        link = {"a": "A", "b": "B"}
        part, key = where.split(".")
        (link if part == "links[0]" else nodes[1])[key] = value
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"nodes": nodes, "links": [link],
                                    "ingress": [{"node": "A"}]}))
        cfg = write_config(tmp_path, base_config(
            topology={"kind": "file", "path": str(topo)},
            procedure={"kind": "k-phase", "phases": [["A"]]}))
        return main(["plan", "--config", str(cfg), "--out", str(tmp_path)])

    # null exited 3 (TypeError); "x", -5, NaN and -inf exited 2 without naming
    # the field; true and 1.7 were taken as 1 ns, 10^19 and 91 were accepted
    @pytest.mark.parametrize("where,value", [
        *(("links[0].delay_ns", v) for v in (None, "x", -5, True, 1.7, 10**19)),
        *(("nodes[1].lat", v) for v in (None, "x", math.nan, 91, False)),
        *(("nodes[1].lon", v) for v in (None, "12.5", -math.inf, 180.5))])
    def test_bad_link_delay_or_coordinate_exits_two(self, tmp_path, capsys, where, value):
        assert self.plan_geo_topology(tmp_path, where, value) == 2
        assert (f"config error: topology: {where}: expected " in capsys.readouterr().err)

    @pytest.mark.parametrize("where,value", [
        ("links[0].delay_ns", 0), ("links[0].delay_ns", 10**18),
        ("nodes[1].lat", -90), ("nodes[1].lon", 180.0)])
    def test_link_delay_and_coordinate_bounds_accepted(self, tmp_path, where, value):
        assert self.plan_geo_topology(tmp_path, where, value) == 0

    # both exited 3: sorting str and int switch names (TypeError), and
    # int.startswith when looking for leaf switches (AttributeError)
    @pytest.mark.parametrize("with_flows", [True, False])
    def test_node_names_that_are_numbers(self, tmp_path, capsys, with_flows):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({
            "nodes": [{"id": 1}, {"id": "B"}, {"id": 2.5}],
            "links": [{"a": 1, "b": "B", "delay_ns": 5}, {"a": "B", "b": 2.5, "delay_ns": 5}],
            "ingress": [{"node": 1}]}))
        doc = base_config(topology={"kind": "file", "path": str(topo)})
        if with_flows:
            doc["flows"] = [{"flow_id": "f", "ingress": 1, "rate_pps": 1000, "path": [1, "B", 2.5]}]
        cfg = write_config(tmp_path, doc)
        for command in ("plan", "simulate"):
            code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
            if with_flows:
                assert code == 0
            else:  # a flowless two-phase update needs leaf switches or phase2_switches
                assert code == 2
                assert "config error: procedure: phase2_switches required" in (
                    capsys.readouterr().err)

    def test_non_object_topology_file_exits_two(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        topo.write_text("[]")
        cfg = write_config(tmp_path, base_config(topology={"kind": "file", "path": str(topo)}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error: topology: expected an object, got list" in capsys.readouterr().err


def sprint_flow_config(**flow0):
    """sprint_knob.json with flows[0]'s fields replaced by flow0."""
    doc = json.loads((CONFIGS / "sprint_knob.json").read_text())
    doc["topology"]["path"] = str(REPO / "topologies" / "sprint.json")
    doc["flows"][0] = {"flow_id": "f1", "ingress": "SEA", "path": ["SEA", "SAC", "ANA"],
                       **flow0}
    return doc


class TestFlowErrors:
    # 3e9 pps would space packets 0 ns apart and inject forever without the
    # TestFlow guard; NaN and Infinity are what json.loads makes of them
    @pytest.mark.parametrize("rate", [0, -5, "abc", 3e9, math.nan, math.inf, None])
    def test_invalid_rate_pps_exits_two(self, tmp_path, capsys, rate):
        cfg = write_config(tmp_path, sprint_flow_config(rate_pps=rate))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "flows[0].rate_pps" in capsys.readouterr().err

    @pytest.mark.parametrize("mbps", [0, "abc", 3e7, -math.inf])
    def test_invalid_mbps_exits_two(self, tmp_path, capsys, mbps):
        cfg = write_config(tmp_path, sprint_flow_config(mbps=mbps))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "flows[0].mbps" in capsys.readouterr().err

    # 0 used to divide by zero (exit 3); -8 and "abc" named flows[0].mbps
    @pytest.mark.parametrize("packet_bytes", [0, -8, "abc", True, 1.5])
    def test_invalid_packet_bytes_exits_two(self, tmp_path, capsys, packet_bytes):
        cfg = write_config(tmp_path, sprint_flow_config(mbps=40, packet_bytes=packet_bytes))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "flows[0].packet_bytes" in capsys.readouterr().err

    def test_non_adjacent_path_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sprint_flow_config(rate_pps=5000,
                                                        path=["SEA", "ANA"]))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "flows[0].path" in err and "'SEA'" in err and "'ANA'" in err


    # each exited 3: a TypeError from iterating, indexing or sorting the
    # flows, or an unhashable ingress
    @pytest.mark.parametrize("flows,field", [(3, "flows"), ([3], "flows[0]")])
    def test_flows_of_the_wrong_type_exit_two(self, tmp_path, capsys, flows, field):
        doc = sprint_flow_config(rate_pps=5000)
        doc["flows"] = flows
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path)]) == 2
        assert f"config error: {field}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("flow_id", 7), ("flow_id", None), ("ingress", []), ("ingress", {}),
        ("path", ["SEA", ["SAC"]]), ("path", ["SEA", {}])])
    def test_flow_field_of_the_wrong_type_exits_two(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, sprint_flow_config(rate_pps=5000, **{field: value}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        named = f"flows[0].{field}" + ("[1]" if field == "path" else "")  # the bad entry
        assert f"config error: {named}: " in capsys.readouterr().err


    # 1e-12 pps spaces packets 10^21 ns apart; it was reported as the
    # topology's int64 range (exit 2 naming no flow field)
    def test_rate_spacing_packets_past_the_duration_cap_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sprint_flow_config(rate_pps=1e-12))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error: flows[0].rate_pps: " in capsys.readouterr().err

    def test_rate_spacing_packets_at_the_duration_cap_runs(self, tmp_path):
        # 1e-9 pps spaces packets 10^18 ns apart
        cfg = write_config(tmp_path, sprint_flow_config(rate_pps=1e-9))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        run = json.loads((tmp_path / "run.json").read_text())
        t_in = [p["t_in"] for p in run["flows"]["f1"]["packets"]]
        assert t_in and {b - a for a, b in zip(t_in, t_in[1:])} <= {10**18}


def sprint_point_config(**delays):
    """sprint_knob.json as one point (knob_d 20ms) with these delay models."""
    doc = sprint_flow_config(rate_pps=5000)
    del doc["sweep"]
    doc.update(knob_d="20ms", delays=delays)
    return doc


class TestDelayModelErrors:
    # "12" was split into characters and read as 1 ns and 2 ns; [] and a cap
    # of 0 exited 3 (ValueError from DelayModel)
    @pytest.mark.parametrize("model,field", [
        ({"kind": "empirical", "samples": "12"}, "delays.ctrl.samples"),
        ({"kind": "empirical", "samples": []}, "delays.ctrl.samples"),
        ({"kind": "empirical", "samples": ["1ms", "x"]}, "delays.ctrl.samples[1]"),
        ({"kind": "exponential", "mean": "1ms", "cap": 0}, "delays.ctrl.cap"),
        ({"kind": "exponential", "mean": "1ms", "cap": "0ms"}, "delays.ctrl.cap"),
        ({"kind": "gamma"}, "delays.ctrl.kind"),
        ({"hi": "1ms"}, "delays.ctrl.kind"),
        ({"kind": "uniform"}, "delays.ctrl.hi"),
        ("1ms", "delays.ctrl")])
    def test_bad_delay_model_exits_two(self, tmp_path, capsys, model, field):
        cfg = write_config(tmp_path, sprint_point_config(ctrl=model))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        {"kind": "exponential", "mean": 0, "cap": 0},
        {"kind": "exponential", "mean": "1ms", "cap": 1},
        {"kind": "empirical", "samples": ["1ms", 0]}])
    def test_delay_model_bounds_accepted(self, tmp_path, model):
        cfg = write_config(tmp_path, sprint_point_config(ctrl=model))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def run_in_child(doc, tmp_path, command="simulate"):
    """command on doc in a fresh interpreter limited to 1 GiB of address
    space: (exit code, stderr, peak RSS in MB)."""
    cfg = write_config(tmp_path, doc)
    code = ("import resource, sys\n"
            "from netupdate.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(netupdate.__file__).parents[1]), env.get("PYTHONPATH")) if p)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-c", code, command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_memory)
    *err, maxrss_kib = proc.stderr.splitlines()
    return proc.returncode, "\n".join(err), int(maxrss_kib) / 1024


def sprint_at_rate(**rate):
    """sprint_knob.json as one point (knob_d 20ms) with every flow at this rate."""
    doc = sprint_flow_config()
    del doc["sweep"]
    doc["knob_d"] = "20ms"
    for flow in doc["flows"]:
        flow.pop("rate_pps", None)
        flow.update(rate)
    return doc


class TestDataPlaneLimits:
    # exited 3: 11 hops of up to 10^18 ns pass the int64 range of packet times
    def test_link_delay_past_the_time_range_exits_two(self, tmp_path, capsys):
        topo = json.loads((REPO / "topologies" / "sprint.json").read_text())
        assert (topo["links"][1]["a"], topo["links"][1]["b"]) == ("SEA", "CHI")  # on no flow path
        topo["links"][1]["delay_ns"] = 10**18
        (tmp_path / "sprint.json").write_text(json.dumps(topo))
        doc = sprint_flow_config(rate_pps=5000)
        doc["topology"]["path"] = str(tmp_path / "sprint.json")
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: topology: flow f1: packet times leave the int64" in err
        assert "11 hops of up to 1000000000000000000 ns" in err

    def test_dense_flows_stay_within_a_memory_bound(self, tmp_path):
        # 269,000 packets in all: the walk held two packets x switches int64
        # arrays per flow, 97 MB at peak; per-packet vectors take 53 MB
        code, err, peak_mb = run_in_child(sprint_at_rate(rate_pps=10**6), tmp_path)
        assert code == 0, err
        assert peak_mb < 75

    # one flow at 10^9 pps injects 54 million packets
    @pytest.mark.parametrize("index,rate", [(0, {"rate_pps": 10**9}),
                                            (3, {"rate_pps": 10**9}),
                                            (2, {"mbps": 8e6, "packet_bytes": 1000})])
    def test_rate_past_the_packet_cap_exits_two(self, tmp_path, index, rate):
        doc = sprint_at_rate(rate_pps=5000)
        doc["flows"][index].pop("rate_pps")
        doc["flows"][index].update(rate)
        code, err, peak_mb = run_in_child(doc, tmp_path)
        assert code == 2
        assert f"config error: flows[{index}].{next(iter(rate))}: " in err
        assert "more than the cap of 4194304" in err
        assert peak_mb < 75


class TestFabricLimit:
    # n = 300,000,000 grew memory without bound; 4,800 exited 3 (MemoryError)
    # under a 1 GiB address-space limit
    @pytest.mark.parametrize("n", [300_000_000, topology.MAX_LEAF_SPINE_N + 3])
    def test_fabric_past_the_cap_exits_two_before_building(self, tmp_path, n):
        code, err, peak_mb = run_in_child(base_config(topology={"kind": "leaf_spine", "n": n}),
                                          tmp_path, "plan")
        assert code == 2
        assert err.startswith(f"config error: topology.n: expected an integer in [3, "
                              f"{topology.MAX_LEAF_SPINE_N}], got {n}")
        assert peak_mb < 75

    def test_swept_fabric_past_the_cap_exits_two(self, tmp_path):
        doc = base_config(sweep={"axis": "N", "grid": [6, 300_000_000]})
        code, err, peak_mb = run_in_child(doc, tmp_path, "plan")
        assert code == 2 and err.startswith("config error: sweep.grid[1]: expected an integer")
        assert peak_mb < 75

    def test_fabric_at_the_cap_is_planned(self, tmp_path):
        doc = base_config(mode="timed-worst-case",
                          topology={"kind": "leaf_spine", "n": topology.MAX_LEAF_SPINE_N})
        code, err, _ = run_in_child(doc, tmp_path, "plan")
        assert code == 0, err
        assert (tmp_path / "out" / "plan.csv").read_text().splitlines()[2].startswith("-,")


class TestDurationErrors:
    # json.loads reads NaN as nan and 1e400 as infinity; all three used to
    # exit 3 (ValueError, OverflowError, the int64 guard of run_flows)
    @pytest.mark.parametrize("field,literal", [
        ("params.dc", "NaN"), ("params.dc", "1e400"), ("start_time", "9.3e18")])
    def test_out_of_range_duration_exits_two(self, tmp_path, capsys, field, literal):
        doc = sprint_flow_config(rate_pps=5000)
        if field == "start_time":
            doc["start_time"] = "@"
        else:
            doc["params"]["dc"] = "@"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc).replace('"@"', literal))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err


class TestAnalyzeTrace:
    def test_constant_trace_ratio_one(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("\n".join(["2.0"] * 50) + "\n")
        assert main(["analyze-trace", str(trace), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace_stats.csv").read_text().splitlines()
        assert lines[1] == "label,p,percentile_ns,mean_ns,ratio"
        for row in lines[2:]:
            assert row.split(",")[4] == "1.000000"

    def test_synthetic_exponential_matches_analytic(self, tmp_path):
        rng = np.random.default_rng(0)
        ms = rng.exponential(1.0, 200_000)
        trace = tmp_path / "exp.txt"
        trace.write_text("\n".join(f"{x:.6f}" for x in ms) + "\n")
        assert main(["analyze-trace", str(trace), "--out", str(tmp_path),
                     "--percentiles", "0.999"]) == 0
        row = (tmp_path / "trace_stats.csv").read_text().splitlines()[2].split(",")
        assert float(row[4]) == pytest.approx(-math.log(0.001), rel=0.15)

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["analyze-trace", str(tmp_path / "ghost.txt"),
                     "--out", str(tmp_path)]) == 2

    # inf and 1e400 used to exit 3 (OverflowError), nan exited 2 without a
    # line number and 1e13 ms (10^19 ns) was accepted
    @pytest.mark.parametrize("value,reason", [
        ("inf", "must be finite"), ("-inf", "must be finite"), ("1e400", "must be finite"),
        ("nan", "must be finite"), ("1e13", "above 1000000000000 ms"),
        ("1000000000000.001", "above 1000000000000 ms"), ("-0.5", "negative delay"),
        ("1.5 2.5", "not a number"), ("1.5ms", "not a number")])
    def test_bad_value_exits_two_naming_the_line(self, tmp_path, capsys, value, reason):
        trace = tmp_path / "trace.txt"
        trace.write_text(f"# header\n1.5\n{value}  # bad\n2.5\n")
        assert main(["analyze-trace", str(trace), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: trace: {trace}:3: " in err and reason in err
        assert not (tmp_path / "trace_stats.csv").exists()

    # unparsable ones used to exit 3: ValueError: could not convert string to float
    @pytest.mark.parametrize("text,reason", [
        ("abc", "cannot parse 'abc'"), ("0.5,,x", "cannot parse '0.5,,x'"),
        ("0.5,1.5", "fractions must be in (0, 1]"), (",", "fractions must be in (0, 1]"),
        ("nan", "fractions must be in (0, 1]")])
    def test_bad_percentiles_exit_two(self, tmp_path, capsys, text, reason):
        trace = tmp_path / "trace.txt"
        trace.write_text("1.5\n2.5\n")
        assert main(["analyze-trace", str(trace), "--out", str(tmp_path),
                     f"--percentiles={text}"]) == 2
        assert capsys.readouterr().err == f"config error: --percentiles: {reason}\n"
        assert not (tmp_path / "trace_stats.csv").exists()

    def test_cap_itself_accepted(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("1000000000000\n0\n")
        assert main(["analyze-trace", str(trace), "--out", str(tmp_path),
                     "--percentiles", "1"]) == 0
        row = (tmp_path / "trace_stats.csv").read_text().splitlines()[2].split(",")
        assert row[2] == str(10**18) and row[3] == f"{10**18 / 2:.3f}"
