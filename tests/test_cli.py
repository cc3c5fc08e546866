import contextlib
import copy
import functools
import gc
import hashlib
import io
import itertools
import json
import math
import re
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from netupdate.cli import PACKET_BLOCK, _mean_ns, _write_run, main
from netupdate.config import MODES, ConfigError, Experiment, _check_routes, parse_duration
from netupdate.consistency import CLASS_OF_AGREES
from netupdate import config, simulator, topology
from netupdate.model import ENGINE_VERSION
from netupdate.simulator import Fault, FlowPackets

from conftest import child_env, line_network, per_packet
from oracles import run_to_dict

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


def netrail_knob_doc():
    """configs/netrail_knob.json with its topology path made absolute."""
    doc = json.loads((CONFIGS / "netrail_knob.json").read_text())
    doc["topology"]["path"] = str(REPO / "topologies" / "netrail.json")
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

    # a number on a duration axis was written as given (1500000.7, 2000000.0),
    # not as the ns the point ran with
    @pytest.mark.parametrize("command,out_file,worst_col", [
        ("plan", "plan.csv", 2), ("sweep", "sweep.csv", 6)])
    def test_numeric_duration_grid_writes_the_ns_it_ran(self, tmp_path, command, out_file,
                                                        worst_col):
        doc = netrail_knob_doc()
        doc["sweep"]["grid"] = [1500000.7, 2e6, "3ms", 4000000]
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line
                in (tmp_path / out_file).read_text().splitlines()[2:]]
        assert [r[0] for r in rows] == ["1500001", "2000000", "3000000", "4000000"]
        # a timed-knob update spans d + 3 delta_sched
        assert {int(r[worst_col]) - int(r[0]) for r in rows} == {3 * 1_297_000}

    # --grid 2e6 exited 2 (parse_duration read the token as a string), while
    # the same number in the config's JSON grid planned 2000000
    def test_numeric_grid_flag_plans_as_the_json_grid(self, tmp_path):
        doc = netrail_knob_doc()
        flag_cfg = write_config(tmp_path, doc, "flag.json")
        doc["sweep"]["grid"] = [2e6, 1500000.7]
        json_cfg = write_config(tmp_path, doc, "grid.json")
        assert main(["plan", "--config", str(flag_cfg), "--grid", "2e6,1500000.7",
                     "--out", str(tmp_path / "flag")]) == 0
        assert main(["plan", "--config", str(json_cfg), "--out", str(tmp_path / "grid")]) == 0
        assert ((tmp_path / "flag" / "plan.csv").read_bytes()
                == (tmp_path / "grid" / "plan.csv").read_bytes())

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_grid_flag_names_its_grid_entry(self, tmp_path, capsys, bad):
        doc = netrail_knob_doc()
        cfg = write_config(tmp_path, doc)
        assert main(["plan", "--config", str(cfg), "--grid", f"2e6,{bad}",
                     "--out", str(tmp_path)]) == 2
        assert f"sweep.grid[1]: expected a duration in [0, 10^18] ns, got '{bad}'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "plan.csv").exists()


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

    # the only run that sends a flow over a generated fabric, so it reaches the
    # fabric's links through link_between, label_change_update and run_flows' bound
    def test_flow_over_a_leaf_spine_fabric_is_pinned(self, tmp_path):
        cfg = write_config(tmp_path, base_config(flows=[{
            "flow_id": "f1", "ingress": "leaf1", "rate_pps": 20000,
            "path": ["leaf1", "spine1", "leaf2"]}]))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("run.json", "inconsistency.csv", "messages.log")} == {
            "run.json": "3ce6af8a80cd740b1b713a53f2074697949fa348fbb95b88c88c49580a64062a",
            "inconsistency.csv": "d1c8858f3f5fdad35b7e1972b4be303be791f54c305dd69471b765d651f66077",
            "messages.log": "adf75e87133541ce9818ed78c66edfdb50fca07e309989de708e2596234284af"}


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
            return run_to_dict(run, "cfg", [measure_inconsistency(run, flow)])["flows"]["f"]

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
# runs of (count, hops, end code, agreement code): runs within a block and across
# blocks, runs ending at block boundaries, and hop counts of one to five digits
_RUNS = st.lists(st.tuples(
    st.one_of(st.integers(1, 40), st.sampled_from([PACKET_BLOCK - 1, PACKET_BLOCK])),
    st.sampled_from([1, 2, 7, 255, 256, 0xFFFF, 0x10000]), st.integers(0, 3),
    st.integers(0, 3)), max_size=4)
# TestFlow refuses 2e9 pps and more, which space packets under 1 ns apart
_RATES = st.one_of(st.integers(1, 2 * 10**9 - 1), st.floats(1e-3, 2e9, exclude_max=True))


@st.composite
def _writer_cases(draw):
    ids = draw(st.one_of(st.lists(_ODD_TEXT, unique=True, max_size=3),
                         st.lists(st.integers(-5, 10**6), unique=True, max_size=3)))
    return {
        "flows": [(fid, draw(st.one_of(_COUNTS, _RUNS)), draw(st.integers(0, 1_000)),
                   draw(_RATES)) for fid in ids],
        "faults": draw(st.lists(st.tuples(st.integers(0, 10**18), _ODD_TEXT, _ODD_TEXT,
                                          _ODD_TEXT), max_size=2)),
        "tsu": draw(st.one_of(st.none(), st.integers(0, 10**18))),
        "hash": draw(_ODD_TEXT),
    }


class TestRunJsonStreamedWriter:
    """cmd_simulate streams run.json; json.dump of oracles.run_to_dict is its oracle."""

    @staticmethod
    def case_run(case):
        """The base run with the case's faults and t_su, and one flow per
        (id, packet count, offset, rate), its walk cut from "f"'s packets
        and its packets spaced at its own rate from the offset's entry; a
        list of runs in place of the count gives the flow's runs."""
        base = _writer_base_run()
        f = base.flow_traces["f"]
        cols = per_packet(f.runs)
        rows = list(zip(cols.hops, cols.end, cols.agrees))
        flow_traces, flows = {}, []
        for fid, n, offset, rate in case["flows"]:
            if isinstance(n, list):
                runs = [list(r) for r in n]
                n = sum(count for count, *_ in runs)
            else:
                runs = [[len(list(same)), *value]
                        for value, same in itertools.groupby(rows[offset:offset + n])]
                n = len(rows[offset:offset + n])
            flows.append(TestFlow(fid, "S1", 0, rate))
            packets = FlowPackets(f.net, f.run, flows[-1], f.index,
                                  f.t0 + offset * f.flow.spacing_ns, runs, n)
            assert len(packets) == n and packets.t_in[:1] == f.t_in[offset:offset + n][:1]
            flow_traces[fid] = packets
        run = copy.copy(base)
        run.flow_traces = flow_traces
        run.params = base.params._replace(t_su=case["tsu"])
        run.faults = [Fault(*fault) for fault in case["faults"]]
        return run, [measure_inconsistency(run, flow) for flow in flows]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_writer_cases())
    @example(case={"flows": [], "faults": [], "tsu": None, "hash": "h"})
    @example(case={"flows": [("a", 0, 0, 5000), ("b", 2 * PACKET_BLOCK + 1, 900, 5000.5)],
                   "faults": [(7, "missed_schedule", 'S"1', "late\n\\")],
                   "tsu": 1_000, "hash": "h"})
    # _write_run splits json's text at '"packets": NaN': no string may cut it
    @example(case={"flows": [('"packets": NaN', 3, 0, 5000), ("f", 2, 5, 5000)],
                   "faults": [(7, "bound_violation", '"packets": NaN', '": NaN')],
                   "tsu": None, "hash": '"packets": NaN'})
    @example(case={"flows": [('": NaN', 2, 0, 2.5)],
                   "faults": [(7, "missed_schedule", '": NaN', '"packets": NaN')],
                   "tsu": None, "hash": '": NaN'})
    @example(case={"flows": [("a", 3, 0, 5000), ("b", 0, 0, 5000), ("c", 2, 9, 5000)],
                   "faults": [], "tsu": None, "hash": "h"})
    # one run across four blocks, whose blocks are each one join of one head
    @example(case={"flows": [("run", [(3 * PACKET_BLOCK + 5, 3, 0, 2)], 0, 5000)],
                   "faults": [], "tsu": None, "hash": "h"})
    # a class change on every packet, so every run is one packet
    @example(case={"flows": [("alt", [(1, 2, 0, 1), (1, 2, 0, 2), (1, 1, 1, 0)]
                              * (PACKET_BLOCK + 1), 0, 5000)],
                   "faults": [], "tsu": None, "hash": "h"})
    # a run that ends exactly on a block boundary
    @example(case={"flows": [("edge", [(PACKET_BLOCK, 1, 1, 3), (PACKET_BLOCK + 7, 2, 0, 2)],
                              0, 5000)],
                   "faults": [], "tsu": None, "hash": "h"})
    # hops of three to five digits
    @example(case={"flows": [("far", [(3, 300, 0, 1), (2, 0xFFFF, 3, 0),
                                      (PACKET_BLOCK, 256, 1, 3)], 0, 5000)],
                   "faults": [], "tsu": None, "hash": "h"})
    def test_streamed_bytes_equal_the_oracle(self, case):
        run, reports = self.case_run(case)
        buf = io.StringIO()
        _write_run(buf, run, case["hash"], reports)
        assert buf.getvalue() == json.dumps(run_to_dict(run, case["hash"], reports),
                                            indent=2, sort_keys=True)

    @staticmethod
    def run_of(n: int, alternating: bool):
        """The base run with one flow "f" of n two-hop delivered packets, all
        consistent_old, or consistent_old and consistent_new in turn."""
        base = _writer_base_run()
        f = base.flow_traces["f"]
        runs = [[1, 2, 0, 1 + k % 2] for k in range(n)] if alternating else [[n, 2, 0, 1]]
        run = copy.copy(base)
        run.flow_traces = {"f": FlowPackets(f.net, f.run, f.flow, f.index, f.t0, runs, n)}
        return run, [measure_inconsistency(run, f.flow)]

    # the writer holds one block's text at a time, whatever the flow's length;
    # each peak is taken with the free lists emptied by a full collection and
    # no collection while tracing, so every allocation is counted and none of
    # the json header's cyclic garbage is freed early, whatever ran before
    @pytest.mark.parametrize("alternating", [False, True], ids=["uniform", "alternating"])
    def test_writer_peak_memory_does_not_grow_with_the_flow(self, alternating):
        class Discard:
            def write(self, text):
                pass

            def writelines(self, texts):
                pass

        def text_of(n):
            run, reports = self.run_of(n, alternating)
            buf = io.StringIO()
            _write_run(buf, run, "h", reports)
            return buf.getvalue()

        block_bytes = len(text_of(2 * PACKET_BLOCK)) - len(text_of(PACKET_BLOCK))
        peaks = []
        for n in (2**16, 2**18):
            run, reports = self.run_of(n, alternating)
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                _write_run(Discard(), run, "h", reports)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                gc.enable()
        assert max(peaks) <= 1.1 * min(peaks), peaks
        assert max(peaks) < 4 * block_bytes, (peaks, block_bytes)

    def test_base_run_has_every_outcome(self):
        f = _writer_base_run().flow_traces["f"]
        cols = per_packet(f.runs)
        assert len(f) >= 2 * PACKET_BLOCK + 1 + 1_000
        assert {CLASS_OF_AGREES[c] for c in cols.agrees} == set(CLASS_OF_AGREES)  # all three
        assert {e == 0 for e in cols.end} == {True, False}  # delivered or not
        assert set(cols.hops) == {1, 2}


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

    # a timed point took its plan_worst_ns from Point.plan, which loads the planner
    @pytest.mark.parametrize("mode", MODES)
    def test_plan_worst_is_plans_worst_case_of_the_points_mode(self, tmp_path, mode):
        doc = base_config(mode=mode, knob_d="2ms",
                          sweep={"axis": "dc", "grid": ["1ms", "4.865ms", "9ms"]})
        assert main(["sweep", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
        want = [point.plan()[0 if point.schedule is None else 1]
                for _, point in Experiment(doc).points()]
        assert [int(row.split(",")[6]) for row in rows] == want

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = str(CONFIGS / "compuserve_knob.json")
        args = ["sweep", "--config", cfg, "--grid", "0ms,2ms", "--seeds", "0,1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("sweep.csv", "inconsistency_sweep.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    # the mean went through float64: a one-seed row at 2**60 // 100 ns wrote a
    # sim_mean_ns outside [sim_min_ns, sim_max_ns]
    def test_mean_is_exact_past_float_precision(self, tmp_path):
        big = 2**60 // 100
        cfg = write_config(tmp_path, base_config(
            params={"dc": big, "dn": "0.262ms", "delta_msg": "5.24ms", "delta_sched": "1.297ms"},
            delays={"ctrl": {"kind": "constant", "value": big}},
            seeds=[0], sweep={"axis": "N", "grid": [6]}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        row = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2].split(",")
        assert int(row[3]) == int(row[4]) == int(row[5]) > 2**53

    @given(st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=6))
    @example([0, 1])
    @example([1, 2])
    @example([2**60 + 1, 2**60 + 2])
    def test_mean_rounds_half_to_even_exactly(self, values):
        assert _mean_ns(values) == round(Fraction(sum(values), len(values)))

    def test_points_share_what_follows_from_the_network(self, tmp_path):
        """A d sweep of sprint_knob builds its flows and label-change procedure
        and walks its routes once, and its points share them; an N sweep still
        builds a network, a procedure and a route check per point."""
        def sweep(name, builder):
            points, materialize = [], Experiment.materialize

            def record(exp, *args):
                points.append(point := materialize(exp, *args))
                return point

            with mock.patch.object(Experiment, "materialize", record), \
                    mock.patch.object(topology, builder,
                                      wraps=getattr(topology, builder)) as build, \
                    mock.patch.object(config, "_check_routes", wraps=_check_routes) as check, \
                    contextlib.redirect_stdout(io.StringIO()):
                assert main(["sweep", "--config", str(CONFIGS / name), "--seeds", "0,1",
                             "--out", str(tmp_path / name)]) == 0
            return points, build.call_count, check.call_count

        points, builds, checks = sweep("sprint_knob.json", "label_change_update")
        assert (len(points), builds, checks) == (9, 1, 1)
        for name in ("net", "flows", "proc", "initial_state"):
            assert all(getattr(p, name) is getattr(points[0], name) for p in points), name
        assert len({p.params.d_n for p in points}) == 1 < len({p.schedule for p in points})

        points, builds, checks = sweep("leafspine_sweep.json", "policy_update")
        assert (len(points), builds, checks) == (5, 5, 5)
        assert len({id(p.net) for p in points}) == len({id(p.proc) for p in points}) == 5

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

    @pytest.mark.parametrize("command", ["plan", "sweep"])
    def test_d_sweep_outside_timed_knob_exits_two(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, base_config())
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--axis", "d", "--grid", "1ms"]) == 2
        assert capsys.readouterr() == (
            "", "config error: sweep.axis: 'd' sweeps require timed-knob mode\n")
        assert not (tmp_path / "out").exists()

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

    # an empty --seeds= or --grid= ran the config's own seeds or grid and
    # exited 0, while --seeds=, and --grid=, exited 2
    @pytest.mark.parametrize("flag,message", [
        ("--seeds=", "seeds: expected a non-empty list, got []"),
        ("--seeds=,", "seeds: expected a non-empty list, got []"),
        ("--grid=", "--grid: at least one value required"),
        ("--grid=,", "--grid: at least one value required")])
    def test_empty_override_exits_two(self, tmp_path, capsys, flag, message):
        cfg = write_config(tmp_path, base_config(sweep={"axis": "N", "grid": [6]}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path), flag]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "plan.csv").exists()

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
        ("topology.propagation_us_per_km", -1), ("topology.delay_mode", "x"),
        # this one exited 0: new_tag equal to the default old_tag "A" made
        # phase 3 remove the flows' only rules
        ("procedure.new_tag", "A"),
        # an alias that built exactly what k-phase builds
        ("procedure.kind", "ordered")])
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

    # phase 2 used to default to the switches whose names start with "leaf":
    # a file topology with a node named "leafy" ran with phase 2 = [leafy]
    @pytest.mark.parametrize("name", ["leafy", "edge"])
    def test_phase2_of_a_file_topology_is_never_guessed(self, tmp_path, capsys, name):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({
            "nodes": [{"id": name}, {"id": "core"}],
            "links": [{"a": name, "b": "core", "delay_ns": 5}],
            "ingress": [{"node": name}]}))
        cfg = write_config(tmp_path, base_config(topology={"kind": "file", "path": str(topo)}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error: procedure: phase2_switches required" in capsys.readouterr().err

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

    # a switch listed twice in a phase exited 0: it got two messages, plan.csv
    # counted N_1 = 2, and the second remove warned "already absent"
    @pytest.mark.parametrize("procedure, error", [
        ({"kind": "k-phase", "phases": [["leaf1", "leaf1"], ["spine1"]], "gc_phases": [1]},
         "procedure.phases[0][1]: duplicate switch 'leaf1'"),
        ({"kind": "k-phase", "phases": [["spine1"], ["leaf2", "leaf1", "leaf2"]]},
         "procedure.phases[1][2]: duplicate switch 'leaf2'"),
        ({"kind": "two-phase+gc", "phase2_switches": ["leaf1", "leaf2", "leaf1"]},
         "procedure.phase2_switches[2]: duplicate switch 'leaf1'")])
    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_duplicate_switch_in_a_phase_exits_two(self, tmp_path, capsys, procedure, error,
                                                   command):
        cfg = write_config(tmp_path, base_config(procedure=procedure))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not out.exists()

    def test_gc_phases_accepted(self, tmp_path):
        leaves = sorted(Experiment(base_config()).materialize().net.switches)[:2]
        cfg = write_config(tmp_path, base_config(
            procedure={"kind": "k-phase", "phases": [leaves, leaves], "gc_phases": [2]}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 0


    # the shape was checked only when a command first built the schedule, so
    # materialize accepted a two-phase timed-knob point and simulate printed it
    def test_timed_knob_of_a_two_phase_procedure_fails_to_materialize(self):
        doc = netrail_knob_doc()
        doc["procedure"]["kind"] = "two-phase"
        del doc["sweep"]
        doc["knob_d"] = "4ms"
        with pytest.raises(ConfigError, match=re.escape(TIMED_KNOB_SHAPE)):
            Experiment(doc).materialize()

    @pytest.mark.parametrize("command", ["plan", "simulate", "sweep"])
    def test_timed_knob_of_a_two_phase_procedure_exits_two(self, tmp_path, capsys, command):
        doc = netrail_knob_doc()
        doc["procedure"]["kind"] = "two-phase"
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"config error: {TIMED_KNOB_SHAPE}\n")
        assert not (tmp_path / "out").exists()


TIMED_KNOB_SHAPE = "mode: timed-knob requires a two-phase + garbage-collection procedure"


class TestFlowRoutes:
    """Both configurations must deliver each flow along its declared path."""

    @staticmethod
    def check(*new_rules):
        """_check_routes on S1 - S2 - S3, whose old configuration delivers f
        along it, and whose new one installs (switch, rule key, action) rules
        or removes a rule key where the action is None."""
        net = line_network([1_000, 1_000])
        initial = ForwardingState.from_dict(net, {
            "S1": {("f", None, 0): Action.forward(2)}, "S2": {("f", None, 1): Action.forward(2)},
            "S3": {("f", None, 1): DELIVER}})
        proc = UpdateProcedure(tuple(
            (SingletonUpdate.remove(sw, [key]) if action is None
             else SingletonUpdate.install(sw, {key: action}), 1)
            for sw, key, action in new_rules))
        _check_routes(net, [TestFlow("f", "S1", 0, 1000)], {"f": ["S1", "S2", "S3"]},
                      initial, proc, "")

    def test_routes_that_deliver_along_the_path_pass(self):
        self.check(("S3", ("f", None, 1), DELIVER))
        self.check(("S1", ("f", None, 0), Action.forward_tagged(2, "B")),
                   ("S2", ("f", "B", 1), Action.forward(2)), ("S2", ("f", None, 1), None))

    @pytest.mark.parametrize("rules, error", [
        ([("S2", ("f", None, 1), None)], "drops f at 'S2'"),
        ([("S2", ("f", None, 1), DELIVER)], "misroutes f at 'S2'"),  # before the path's end
        ([("S2", ("f", None, 1), Action.forward(7))], "misroutes f at 'S2'"),  # no link there
        ([("S2", ("f", None, 1), Action.forward(1))], "misroutes f at 'S2'"),  # back to S1
        ([("S3", ("f", None, 1), Action.forward(1))], "misroutes f at 'S3'"),  # past the end
        # S1 stamps tag B, and S2 keeps a rule for tag A only
        ([("S1", ("f", None, 0), Action.forward_tagged(2, "B")),
          ("S2", ("f", "A", 1), Action.forward(2)), ("S2", ("f", None, 1), None)],
         "drops f at 'S2'")])
    def test_the_new_configuration_is_walked_too(self, rules, error):
        with pytest.raises(ConfigError) as info:
            self.check(*rules)
        assert str(info.value) == f"flows[0].path: the new configuration {error}"

    # both exited 0: a k-phase procedure installs no rule for any
    # flow, so every packet was dropped at hop 1 and counted consistent; a
    # path through one link twice in one direction lost a rule to the other pass
    @pytest.mark.parametrize("doc, error", [
        ({"procedure": {"kind": "k-phase", "phases": [["SEA"], ["NYC", "CHI"]],
                        "gc_phases": [2]}},
         "the old configuration drops f1 at 'SEA' (k-phase procedures install no flow rules)"),
        ({"procedure": {"kind": "k-phase", "phases": [["SEA"], ["NYC"]]}},
         "the old configuration drops f1 at 'SEA' (k-phase procedures install no flow rules)"),
        ({"flows": [{"flow_id": "f1", "ingress": "SEA", "rate_pps": 5000,
                     "path": ["SEA", "SAC", "SEA", "SAC", "ANA"]}]},
         "the old configuration misroutes f1 at 'SAC'")])
    @pytest.mark.parametrize("command", ["plan", "simulate", "sweep"])
    def test_a_flow_either_configuration_misroutes_exits_two(self, tmp_path, capsys, doc,
                                                             error, command):
        base = json.loads((CONFIGS / "sprint_knob.json").read_text())
        base["topology"]["path"] = str(REPO / "topologies" / "sprint.json")
        del base["sweep"]
        cfg = write_config(tmp_path, {**base, "mode": "untimed-greedy", **doc})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"config error: flows[0].path: {error}\n")
        assert not out.exists()


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

    # the default cap, 10 x a mean of 10^18 ns, passed int64 and exited 3
    # (OverflowError in DelayModel.quantile)
    @pytest.mark.parametrize("cap,code", [(None, 2), ("1000000000s", 0)])
    def test_exponential_mean_at_the_duration_cap(self, tmp_path, capsys, cap, code):
        doc = json.loads((CONFIGS / "leafspine_sweep.json").read_text())
        doc["topology"]["n"], doc["seeds"] = 6, [0]
        del doc["sweep"]
        doc["delays"] = {"ctrl": {"kind": "exponential", "mean": "1000000000s"}}
        if cap is not None:
            doc["delays"]["ctrl"]["cap"] = cap
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == code
        if code == 2:
            assert "config error: delays.ctrl: exponential cap" in capsys.readouterr().err
        else:
            assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == (
                "eb64cfbc2008b0899cec989584f84004deeb3ce0a754d8d0459a174888d381bf")


def run_in_child(doc, tmp_path, command="simulate"):
    """command on doc in a fresh interpreter limited to 1 GiB of address
    space: (exit code, stderr, peak RSS in MB)."""
    cfg = write_config(tmp_path, doc)
    # the child's own peak, VmHWM, which exec resets; ru_maxrss carries the
    # peak of the process that spawned it across exec
    code = ("import sys\n"
            "from netupdate.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as status:\n"
            "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')),\n"
            "          file=sys.stderr)\n"
            "sys.exit(code)\n")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-c", code, command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=child_env(), capture_output=True, text=True, timeout=120, preexec_fn=limit_memory)
    *err, peak_kib = proc.stderr.splitlines()
    return proc.returncode, "\n".join(err), int(peak_kib) / 1024


# a child's code that runs a process entry and sets code to its exit code:
# the target of pyproject.toml's netupdate script, or python -m through runpy
PROCESS_ENTRIES = pytest.mark.parametrize("launch", [
    "from {module} import {func}; code = {func}()",
    "import runpy\ntry:\n    runpy.run_module('netupdate.cli', run_name='__main__')\n"
    "except SystemExit as exc:\n    code = exc.code",
], ids=["installed-script", "python-m"])


def entry_launch(launch: str) -> str:
    module, func = re.search(r'^netupdate = "([\w.]+):(\w+)"$',
                             (REPO / "pyproject.toml").read_text(), re.M).groups()
    return launch.format(module=module, func=func) + "\n"


# the installed script ran main() without the freeze that python -m applies
@PROCESS_ENTRIES
def test_process_entries_freeze_the_heap_and_write_mains_plan(tmp_path, launch):
    code = ("import gc, sys\n" + entry_launch(launch) +
            "print(gc.get_freeze_count() > 0)\nsys.exit(code)\n")
    cfg = str(CONFIGS / "leafspine_sweep.json")
    proc = subprocess.run(
        [sys.executable, "-c", code, "plan", "--config", cfg, "--out", str(tmp_path / "child")],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout.splitlines()[-1]) == (0, "", "True")
    with mock.patch("sys.stdout", io.StringIO()):
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "main")]) == 0
    assert ((tmp_path / "child" / "plan.csv").read_bytes()
            == (tmp_path / "main" / "plan.csv").read_bytes())


# config and the layers it imports, which analyze-trace does not run; the
# planner is imported only by the commands that plan
CONFIG_LAYERS = {"netupdate.config", "netupdate.simulator", "netupdate.topology",
                 "netupdate.consistency"}
ONE_FLOW = [{"flow_id": "f1", "ingress": "leaf1", "rate_pps": 20000,
             "path": ["leaf1", "spine1", "leaf2"]}]
# case: (command, overrides of base_config(), whether numpy is loaded at the exit
# freeze, whether the planner is)
ENTRY_CASES = {
    "analyze-trace": ("analyze-trace", None, True, False),
    "plan": ("plan", {}, False, True),
    "simulate": ("simulate", {}, False, False),
    "sweep": ("sweep", {}, False, True),
    "plan-flows": ("plan", {"flows": ONE_FLOW}, False, True),
    "simulate-flows": ("simulate", {"flows": ONE_FLOW}, False, False),
    "sweep-flows": ("sweep", {"flows": ONE_FLOW}, False, True),
    "simulate-flows-exponential-links": ("simulate", {
        "topology": {"kind": "file", "path": str(REPO / "topologies" / "netrail.json"),
                     "delay_mode": "exponential"},
        "flows": [{"flow_id": "f1", "ingress": "ATL", "rate_pps": 5000,
                   "path": ["ATL", "CHI"]}]}, False, False),
    "simulate-timed-worst-case": ("simulate", {"mode": "timed-worst-case"}, False, False),
    "sweep-timed-worst-case": ("sweep", {"mode": "timed-worst-case"}, False, False),
    "sweep-exponential-ctrl": ("sweep", {"delays": {"ctrl": {"kind": "exponential",
                                                             "mean": "1ms"}}}, False, True),
    "sweep-timed-knob": ("sweep", {"mode": "timed-knob", "knob_d": "2ms"}, False, False),
    "sweep-simultaneous": ("sweep", {"mode": "simultaneous"}, False, False),
}


# analyze-trace loaded the planner and the simulator, and the other commands
# stats; every command loaded numpy, which only analyze-trace and draws past
# the Python budget need: flows on constant-delay links draw nothing, flows on
# random ones draw only for the packets a draw can change, and the Python twin
# draws exponential delays too (without it, exponential links and an
# exponential ctrl loaded numpy); np.unique in the table-driven walk loaded
# numpy.ma, which no command uses, for 1.5 MB; and a simulate, or a sweep of a
# timed schedule, loaded the planner, which only an untimed point's worst case
# needs
@PROCESS_ENTRIES
@pytest.mark.parametrize("case", ENTRY_CASES)
def test_process_entries_load_only_the_commands_layers_before_the_freeze(
        tmp_path, launch, case):
    command, overrides, numpy_loaded, planner_loaded = ENTRY_CASES[case]
    code = ("import gc, json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('netupdate.') or m in ('numpy', 'numpy.ma'))\n"
            "at_freeze, freeze = [], gc.freeze\n"
            "def recording_freeze():\n"
            "    at_freeze.append(loaded())\n"
            "    freeze()\n"
            "gc.freeze = recording_freeze\n" + entry_launch(launch) +
            "print(json.dumps([code, at_freeze, loaded()]))\n")
    if command == "analyze-trace":
        (tmp_path / "rtt.txt").write_text("1.5\n2\n40\n")
        args = [str(tmp_path / "rtt.txt")]
    else:
        args = ["--config", str(write_config(tmp_path, base_config(**overrides)))]
    proc = subprocess.run(
        [sys.executable, "-c", code, command, *args, "--out", str(tmp_path / "out")],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, at_freeze, at_exit = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == 0 and len(at_freeze) == 1
    assert at_exit == at_freeze[0]  # the command imported nothing after the freeze
    assert ("numpy" in at_exit) == numpy_loaded and "numpy.ma" not in at_exit
    assert ("netupdate.planner" in at_exit) == planner_loaded
    if command == "analyze-trace":
        assert "netupdate.stats" in at_exit and not CONFIG_LAYERS & set(at_exit)
    else:
        assert CONFIG_LAYERS <= set(at_exit) and "netupdate.stats" not in at_exit


# the entries froze the heap before the command ran, with no output written yet
@PROCESS_ENTRIES
def test_process_entries_freeze_once_after_the_outputs(tmp_path, launch):
    plan = tmp_path / "out" / "plan.csv"
    code = ("import gc, os, sys\n"
            "plan_at_freeze, freeze = [], gc.freeze\n"
            "def recording_freeze():\n"
            f"    plan_at_freeze.append(os.path.exists({str(plan)!r}))\n"
            "    freeze()\n"
            "gc.freeze = recording_freeze\n" + entry_launch(launch) +
            "print(plan_at_freeze)\nsys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "plan", "--config", str(CONFIGS / "leafspine_sweep.json"),
         "--out", str(plan.parent)],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout.splitlines()[-1]) == (0, "", "[True]")


# every module but stats imported numpy at load, through delays, simulator or
# consistency
def test_importing_the_package_layers_loads_no_numpy():
    code = ("import sys\n"
            "import netupdate.cli, netupdate.config\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


# command, config: each loaded OpenSSL's libcrypto (_hashlib), through hashlib, for one
# config hash; and analyze-trace loaded delays, for model's one annotation. numpy.random
# loads _hashlib itself (through secrets), so no case may load it
OPENSSL_FREE_CASES = [
    *((command, config) for config in ("sprint_knob", "leafspine_sweep")
      for command in ("plan", "simulate", "sweep")),
    ("simulate", "netrail_knob_exp"),
    ("analyze-trace", None),
]


@pytest.mark.parametrize("command, config", OPENSSL_FREE_CASES)
def test_commands_load_no_openssl(tmp_path, command, config):
    code = ("import json, sys\n"
            "from netupdate.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, '_hashlib' in sys.modules, 'numpy.random' in sys.modules,\n"
            "                  sorted(m for m in sys.modules if m.startswith('netupdate.'))]))\n")
    if command == "analyze-trace":
        (tmp_path / "rtt.txt").write_text("1.5\n2\n40\n")
        args = [str(tmp_path / "rtt.txt")]
    else:
        args = ["--config", str(CONFIGS / f"{config}.json")]
    proc = subprocess.run(
        [sys.executable, "-c", code, command, *args, "--out", str(tmp_path / "out")],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, openssl, numpy_random, modules = json.loads(proc.stdout.splitlines()[-1])
    assert (exit_code, openssl, numpy_random) == (0, False, False)
    if command == "analyze-trace":
        assert modules == ["netupdate.cli", "netupdate.model", "netupdate.stats"]


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
        # arrays per flow, 97 MB at peak, then a block's uniforms in all 11
        # columns where a packet reads two, 59 MB; keeping only those, 50 MB
        code, err, peak_mb = run_in_child(sprint_at_rate(rate_pps=10**6), tmp_path)
        assert code == 0, err
        assert peak_mb < 55

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

    # an all-zero trace exited 3: ZeroDivisionError in the ratio column
    @pytest.mark.parametrize("text", ["0\n", "# zeros\n0\n\n0.0\n0e0  # c\n", "0.0000001\n"])
    def test_zero_mean_trace_exits_two(self, tmp_path, capsys, text):
        trace = tmp_path / "trace.txt"
        trace.write_text(text)
        assert main(["analyze-trace", str(trace), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: trace: {trace}: ")
        assert not (tmp_path / "trace_stats.csv").exists()

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
