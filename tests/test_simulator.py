import contextlib
import hashlib
import json
import logging
import random
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from collections import Counter
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from netupdate import (
    DELIVER,
    DROP,
    Action,
    DelayModel,
    ForwardingState,
    Link,
    Network,
    RunDelays,
    RunResult,
    Schedule,
    SingletonUpdate,
    SystemParameters,
    TestFlow,
    TimedUpdateProcedure,
    UpdateProcedure,
    forward_packet,
    knob_schedule,
    leaf_spine,
    measure_inconsistency,
    run_flows,
    run_timed,
    run_untimed,
    simultaneous_schedule,
    untimed_worst_duration,
    worst_case_schedule,
)
from netupdate import model, simulator
from netupdate.consistency import CLASS_OF_AGREES, CONSISTENT_NEW, CONSISTENT_OLD, INCONSISTENT
from netupdate.simulator import (
    END_KINDS,
    MAX_PACKETS,
    FlowPackets,
    PacketCapError,
    _packet_count,
    default_flow_window,
)
from netupdate.model import lookup_rule
from netupdate.topology import (label_change_update, path_link_bound_ns, policy_initial_state,
                                 policy_update, stub_update)

from conftest import (DC_NS, exec_run, line_network, line_flow_setup, numpy_unloaded,
                      per_packet, testbed_params)
from oracles import classify_packet, index_walk, old_path_bound, t_last
from test_model import _reference_fold
from test_properties import networks

import numpy as np

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
KNOB_CONFIGS = [f"{name}_knob{kind}" for name in ("sprint", "netrail", "compuserve")
                for kind in ("", "_exp")]


def single_switch_setup():
    net = line_network([])  # just S1 with ingress port 0
    u = SingletonUpdate.install("S1", {("f", None, 0): DELIVER})
    return net, UpdateProcedure(((u, 1),))


class TestExecOrder:
    def test_orders_by_time(self, testbed_params):
        net = leaf_spine(6)
        proc = policy_update(net)
        sched = worst_case_schedule(proc, 10**9, testbed_params)
        for seed in range(5):
            for run in (run_untimed(net, proc, testbed_params, seed=seed),
                        run_timed(net, TimedUpdateProcedure(proc, sched), testbed_params,
                                  seed=seed)):
                keys = [(e.time_ns, e.msg_index) for e in run.exec_log]
                assert keys == sorted(keys) and len(keys) == 16

    def test_equal_exec_times_keep_message_order(self):
        # simultaneous schedule, zero scheduling error: all 16 updates on the
        # 6 switches take effect at the same instant
        params = SystemParameters(d_c=1_000_000, d_n=262_000, delta_msg=1_000_000,
                                  delta_sched=0)
        net = leaf_spine(6)
        proc = policy_update(net)
        run = run_timed(net, TimedUpdateProcedure(proc, simultaneous_schedule(10**9)),
                        params, seed=3, initial_state=policy_initial_state(net))
        assert not run.faults
        assert {e.time_ns for e in run.exec_log} == {10**9}
        assert len({e.switch for e in run.exec_log}) == 6
        assert [e.msg_index for e in run.exec_log] == list(range(16))
        execs = [m.detail.split()[0] for m in run.messages if m.kind == "exec"]
        assert execs == [f"msg={i}" for i in range(16)]


class TestRunFold:
    @pytest.mark.parametrize("mode", ["untimed", "timed"])
    def test_versions_fold_the_switch_updates_through_apply(self, testbed_params, mode):
        net = leaf_spine(6)
        proc = policy_update(net)
        init = policy_initial_state(net)
        if mode == "untimed":
            run = run_untimed(net, proc, testbed_params, seed=2, initial_state=init)
        else:
            sched = worst_case_schedule(proc, 10**9, testbed_params)
            run = run_timed(net, TimedUpdateProcedure(proc, sched), testbed_params,
                            seed=2, initial_state=init)
        by_msg = [u for j in range(1, proc.num_phases + 1) for u, p in proc.items if p == j]
        for sw in net.switches:
            mine = [by_msg[e.msg_index] for e in run.exec_log if e.switch == sw]
            assert mine
            assert len(run.tables[sw]) == len(mine) + 1
            assert run.times[sw] == [e.time_ns for e in run.exec_log if e.switch == sw]
            for v in range(len(mine) + 1):
                assert run.tables[sw][v] == init.apply(*mine[:v]).tables[sw], (sw, v)
            assert run.tables[sw][-1] == run.new_config.tables[sw]

    def test_unknown_target_names_the_switch(self):
        net = line_network([10])
        known = SingletonUpdate.install("S1", {("f", None, 0): DELIVER})
        unknown = SingletonUpdate.install("S9", {("f", None, 0): DELIVER})
        with pytest.raises(ValueError, match="update targets unknown switch 'S9'"):
            exec_run(net, ForwardingState.empty(net), [(0, known), (5, unknown)])


class TestRunUntimed:
    def test_single_switch_duration_zero_latency_c(self, testbed_params):
        net, proc = single_switch_setup()
        c = 123_000
        delays = RunDelays(DelayModel.constant(c), DelayModel.constant(0))
        run = run_untimed(net, proc, testbed_params, delays, seed=0, start_time=10)
        assert run.update_duration_ns == 0
        send = next(m for m in run.messages if m.kind == "send")
        assert run.first_exec_ns - send.time_ns == c

    def test_pinned_equals_closed_form(self, testbed_params):
        net = leaf_spine(6)
        proc = policy_update(net)
        init = policy_initial_state(net)
        run = run_untimed(net, proc, testbed_params, seed=9, initial_state=init,
                          pin_worst_case=True)
        assert run.update_duration_ns == untimed_worst_duration([6, 4, 6], testbed_params, {3})

    def test_random_seeds_stay_below_closed_form(self, testbed_params):
        net = leaf_spine(6)
        proc = policy_update(net)
        init = policy_initial_state(net)
        bound = untimed_worst_duration([6, 4, 6], testbed_params, {3})
        for seed in range(50):
            run = run_untimed(net, proc, testbed_params, seed=seed, initial_state=init)
            assert run.update_duration_ns <= bound
            assert not run.faults

    def test_phase_ordering(self, testbed_params):
        net = leaf_spine(6)
        proc = policy_update(net)
        for seed in range(20):
            run = run_untimed(net, proc, testbed_params, seed=seed,
                              initial_state=policy_initial_state(net))
            by_phase = {}
            for e in run.exec_log:
                by_phase.setdefault(e.phase, []).append(e.time_ns)
            for j in sorted(by_phase)[:-1]:
                assert max(by_phase[j]) <= min(by_phase[j + 1])

    def test_bound_violation_reported(self, testbed_params):
        net, proc = single_switch_setup()
        delays = RunDelays(DelayModel.constant(2 * DC_NS), DelayModel.constant(0))
        run = run_untimed(net, proc, testbed_params, delays, seed=0)
        assert any(f.kind == "bound_violation" for f in run.faults)

    # used to warn twice: from the timeline's fold and from new_config's
    def test_remove_of_absent_rule_warns_once(self, testbed_params, caplog):
        proc = UpdateProcedure(((SingletonUpdate.remove("S1", [("f", None, 0)]), 1),))
        with caplog.at_level(logging.WARNING, logger="netupdate.model"):
            run = run_untimed(line_network([]), proc, testbed_params)
        assert [r.getMessage() for r in caplog.records] == [
            "garbage collection: rule ('f', None, 0) already absent on S1"]
        assert run.new_config.tables == run.old_config.tables == {"S1": {}}

    # the runs folded their executions once for warnings and once more for the
    # timeline, then new_config folded the messages: three folds with flows
    @staticmethod
    @contextlib.contextmanager
    def _folds():
        """Counts apply_update calls per update (by identity), as both the
        model and the simulator call it."""
        calls, real = Counter(), model.apply_update

        def counted(table, update):
            calls[id(update)] += 1
            return real(table, update)

        with mock.patch.object(model, "apply_update", counted), \
                mock.patch.object(simulator, "apply_update", counted):
            yield calls

    def test_a_flowless_run_applies_each_update_once(self, testbed_params):
        net = leaf_spine(6)
        proc = policy_update(net)
        sched = worst_case_schedule(proc, 10**9, testbed_params)
        for run_once in (
                lambda: run_untimed(net, proc, testbed_params, seed=1,
                                    initial_state=policy_initial_state(net)),
                lambda: run_timed(net, TimedUpdateProcedure(proc, sched), testbed_params,
                                  seed=1, initial_state=policy_initial_state(net))):
            with self._folds() as calls:
                run_once()
            assert calls == {id(u): 1 for u, _ in proc.items}

    def test_a_run_with_flows_applies_each_update_twice(self, testbed_params):
        net, flow, _, initial, proc = line_flow_setup(200_000, hops=2)
        sched = worst_case_schedule(proc, 10**9, testbed_params)
        for run_once in (
                lambda: run_untimed(net, proc, testbed_params, seed=1, initial_state=initial),
                lambda: run_timed(net, TimedUpdateProcedure(proc, sched), testbed_params,
                                  seed=1, initial_state=initial)):
            with self._folds() as calls:
                run = run_once()
                run_flows(net, run, [flow])
                measure_inconsistency(run, flow)
            # once per execution (the run's fold), once per message (new_config)
            assert calls == {id(u): 2 for u, _ in proc.items}

    def test_determinism(self, testbed_params):
        net = leaf_spine(6)
        proc = policy_update(net)
        init = policy_initial_state(net)
        a = run_untimed(net, proc, testbed_params, seed=5, initial_state=init)
        b = run_untimed(net, proc, testbed_params, seed=5, initial_state=init)
        assert a.exec_log == b.exec_log
        assert a.messages == b.messages
        c = run_untimed(net, proc, testbed_params, seed=6, initial_state=init)
        assert c.exec_log != a.exec_log


class TestRunTimed:
    def test_zero_sched_error_gc_duration_is_dn(self):
        params = SystemParameters(d_c=1_000_000, d_n=262_000, delta_msg=1_000_000,
                                  delta_sched=0)
        net = leaf_spine(6)
        proc = policy_update(net)
        sched = worst_case_schedule(proc, 1_000_000_000, params)
        run = run_timed(net, TimedUpdateProcedure(proc, sched), params, seed=4,
                        initial_state=policy_initial_state(net))
        assert run.update_duration_ns == params.d_n
        assert not run.faults

    def test_execs_within_sched_window_and_phase_ordered(self, testbed_params):
        net = leaf_spine(6)
        proc = policy_update(net)
        sched = worst_case_schedule(proc, 1_000_000_000, testbed_params)
        times = dict(sched.times)
        for seed in range(30):
            run = run_timed(net, TimedUpdateProcedure(proc, sched), testbed_params,
                            seed=seed, initial_state=policy_initial_state(net))
            assert not run.faults
            by_phase = {}
            for e in run.exec_log:
                assert times[e.phase] <= e.time_ns <= times[e.phase] + testbed_params.delta_sched
                by_phase.setdefault(e.phase, []).append(e.time_ns)
            for j in sorted(by_phase)[:-1]:
                assert max(by_phase[j]) <= min(by_phase[j + 1])

    def test_warnings_follow_execution_order(self, caplog):
        # S1 installs a key in phase 1 and removes it in phase 2, both
        # scheduled at once: the jitters decide which takes effect first
        key = ("f", None, 0)
        proc = UpdateProcedure(((SingletonUpdate.install("S1", {key: DELIVER}), 1),
                                (SingletonUpdate.remove("S1", [key]), 2)))
        params = SystemParameters(d_c=1_000_000, d_n=262_000, delta_msg=1_000_000,
                                  delta_sched=1_297_000)
        net, updates = line_network([]), [u for u, _ in proc.items]
        tproc = TimedUpdateProcedure(proc, simultaneous_schedule(10**9, 2))
        orders = set()
        for seed in range(20):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="netupdate.model"):
                run = run_timed(net, tproc, params, seed=seed)
                warned = [r.getMessage() for r in caplog.records]
                assert run.new_config.tables and run.messages
                assert [r.getMessage() for r in caplog.records] == warned
            assert not run.faults
            order = [updates[e.msg_index] for e in run.exec_log]
            assert warned == _reference_fold(run.old_config, order)[1]
            orders.add(tuple(u.mode for u in order))
            # the switch's last version keeps the key if the remove ran first, and
            # the new configuration, folded in message order, never does
            assert (key in run.tables["S1"][-1]) == (order[0].mode == "remove")
            assert key not in run.new_config.tables["S1"]
        assert orders == {("install", "remove"), ("remove", "install")}

    def test_missed_schedule_fault_when_tsu_too_small(self, testbed_params):
        net, proc = single_switch_setup()
        params = testbed_params._replace(t_su=10)  # far below d_c lead
        sched = worst_case_schedule(proc, 1_000_000, params)
        delays = RunDelays(DelayModel.constant(DC_NS), DelayModel.constant(0))
        run = run_timed(net, TimedUpdateProcedure(proc, sched), params, delays, seed=0)
        assert any(f.kind == "missed_schedule" for f in run.faults)
        # executed on arrival instead
        assert run.first_exec_ns == 1_000_000 - 10 + DC_NS


class TestControlPlaneStream:
    """Row i of a run's one block of uniforms holds message i's gap, controller
    delay and jitter, in send order, whatever the mode."""

    @staticmethod
    def _sends(run, phases):
        """(time, detail) of each send of phases 1..phases, in send order."""
        return [(m.time_ns, m.detail) for m in run.messages
                if m.kind == "send" and m.phase <= phases]

    def test_appending_a_phase_leaves_earlier_messages_unchanged(self, testbed_params):
        net = leaf_spine(6)
        sets = [net.switches[:4], net.switches[2:], net.switches[1:5]]
        params = testbed_params._replace(t_su=4 * DC_NS)
        times = {1: 10**9, 2: 10**9 + 3 * DC_NS, 3: 10**9 + 6 * DC_NS}
        for seed in range(5):
            runs = []
            for k in (2, 3):
                proc, initial = stub_update(net, sets[:k])
                sched = Schedule.build({j: times[j] for j in range(1, k + 1)})
                runs.append([run_untimed(net, proc, params, seed=seed, initial_state=initial),
                             run_timed(net, TimedUpdateProcedure(proc, sched), params,
                                       seed=seed, initial_state=initial)])
            for short, longer in zip(*runs):
                assert self._sends(short, 2) == self._sends(longer, 2)
                assert sorted(short.exec_log, key=lambda e: e.msg_index) == sorted(
                    (e for e in longer.exec_log if e.phase <= 2), key=lambda e: e.msg_index)

    def test_untimed_and_timed_runs_share_their_gaps(self, testbed_params):
        net = leaf_spine(6)
        proc, initial = stub_update(net, [net.switches, net.switches[:3]])
        sched = worst_case_schedule(proc, 10**9, testbed_params)

        def gaps(run):
            sends = [m for m in run.messages if m.kind == "send"]
            return [b.time_ns - a.time_ns for a, b in zip(sends, sends[1:]) if a.phase == b.phase]

        for seed in range(5):
            untimed = run_untimed(net, proc, testbed_params, seed=seed, initial_state=initial)
            timed = run_timed(net, TimedUpdateProcedure(proc, sched), testbed_params,
                              seed=seed, initial_state=initial)
            assert len(set(gaps(untimed))) > 1
            assert gaps(untimed) == gaps(timed)


def _table_walk_twin(net: Network) -> Network:
    """net with each constant link delay as a one-sample empirical pool: the
    same delays, but random to the walks, which draw for every packet whose
    envelope straddles a change."""
    return Network(net.switches, [link._replace(delay=DelayModel.empirical([link.delay.value]))
                                  for link in net.links], net.ingress_ports)


def _static_run(net: Network) -> RunResult:
    """A run of no update on net, for run_flows over an explicit window."""
    return exec_run(net, ForwardingState.empty(net), [])


def _injected(net: Network, flow, window) -> FlowPackets:
    run = _static_run(net)
    run_flows(net, run, [flow], window=window)
    return run.flow_traces[flow.flow_id]


class TestInjectFlow:
    def test_rate_and_window_arithmetic(self):
        net = line_network([1000])
        flow = TestFlow("f", "S1", 0, 1000.0)  # 1 ms spacing
        packets = _injected(net, flow, (0, 10_000_000))
        assert packets.t0 == 0 and len(packets) == 10
        assert packets.t_in == range(0, 10_000_000, 1_000_000)
        assert list(packets.t_in[:3]) == [0, 1_000_000, 2_000_000]

    def test_window_shorter_than_spacing_yields_one(self):
        net = line_network([1000])
        flow = TestFlow("f", "S1", 0, 1000.0)
        packets = _injected(net, flow, (7, 507))
        assert len(packets) == 1 and list(packets.t_in) == [7]

    def test_bitrate_conversion(self):
        flow = TestFlow.from_bitrate("f", "S1", 0, mbps=40, packet_bytes=1000)
        assert flow.rate_pps == pytest.approx(5000.0)
        assert flow.spacing_ns == 200_000

    def test_rejects_non_ingress(self):
        net = line_network([1000])
        bad = TestFlow("f", "S2", 1, 100.0)
        run = _static_run(net)
        with pytest.raises(ValueError, match="^flow f: ingress is not an ingress port$"):
            run_flows(net, run, [bad], window=(0, 1000))
        assert run.flow_traces == {}

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            TestFlow("f", "S1", 0, 0.0)


class TestForwardPacket:
    flow = TestFlow("f", "S1", 0, 100.0)

    def make_run(self, net, rules):
        return exec_run(net, ForwardingState.from_dict(net, rules), [])

    def test_static_path_prefix_sum_arrivals(self):
        net = line_network([2_000, 3_000])
        rules = {
            "S1": {("f", None, 0): Action.forward_tagged(2, "A")},
            "S2": {("f", "A", 1): Action.forward(2)},
            "S3": {("f", "A", 1): DELIVER},
        }
        run = self.make_run(net, rules)
        trace = forward_packet(net, run, self.flow, 100, np.random.default_rng(0))
        assert [h.switch for h in trace.hops] == ["S1", "S2", "S3"]
        assert [h.time_ns for h in trace.hops] == [100, 2_100, 5_100]  # prefix sums
        assert [h.tag for h in trace.hops] == [None, "A", "A"]
        assert trace.delivered and not trace.truncated

    def test_mixed_generation_trace_mid_update(self):
        net = line_network([1_000])
        initial = ForwardingState.from_dict(net, {
            "S1": {("f", None, 0): Action.forward(2)},
            "S2": {("f", None, 1): DELIVER},
        })
        # S1 changes at t=500 and S2 at t=2_000; the packet passes S1 at 600,
        # after its change, and S2 at 1_600, before its change
        new_s1 = Action.forward_tagged(2, "B")
        run = exec_run(net, initial, [
            (500, SingletonUpdate.install("S1", {("f", None, 0): new_s1})),
            (2_000, SingletonUpdate.install("S2", {("f", None, 1): Action.forward(1)}))])
        trace = forward_packet(net, run, self.flow, 600, np.random.default_rng(0))
        assert [(h.switch, h.time_ns, h.action) for h in trace.hops] == [
            ("S1", 600, new_s1), ("S2", 1_600, DELIVER)]

    def test_forwarding_loop_truncated_and_flagged(self):
        net = line_network([1_000])
        rules = {
            "S1": {("f", None, 0): Action.forward(2), ("f", None, 2): Action.forward(2)},
            "S2": {("f", None, 1): Action.forward(1)},
        }
        run = self.make_run(net, rules)
        trace = forward_packet(net, run, self.flow, 0, np.random.default_rng(0))
        assert trace.truncated
        assert len(trace.hops) == len(net.switches)

    def test_table_miss_drops(self):
        net = line_network([1_000])
        run = self.make_run(net, {})
        trace = forward_packet(net, run, self.flow, 0, np.random.default_rng(0))
        assert not trace.delivered
        assert trace.hops[0].action.kind == "drop"

    def test_rule_change_visible_at_same_instant(self):
        net = line_network([1_000])
        u = SingletonUpdate.install("S1", {("f", None, 0): DELIVER})
        run = exec_run(net, ForwardingState.empty(net), [(500, u)])
        rng = np.random.default_rng(0)
        assert [forward_packet(net, run, self.flow, t, rng).hops[0].action.kind
                for t in (499, 500)] == ["drop", "deliver"]


def _walked(config: str, pick, seed: int = 3) -> dict:
    """flow_traces of a fresh timed run of the config's first point, with
    only the flows that pick selects from its flows in flow-id order."""
    from netupdate.config import Experiment

    _, point = next(Experiment.load(CONFIGS / f"{config}.json").points())
    run = run_timed(point.net, TimedUpdateProcedure(point.proc, point.schedule), point.params,
                    point.delays, seed=seed, initial_state=point.initial_state)
    run_flows(point.net, run, pick(sorted(point.flows, key=lambda f: f.flow_id)))
    return run.flow_traces


class TestRunFlows:
    def test_a_flow_sorting_last_leaves_the_others_unchanged(self):
        # a flow's stream is keyed by its position in flow-id order
        every = _walked("sprint_knob_exp", lambda flows: flows)
        assert set(every) == {"f1", "f2", "f3", "f4", "f5"}
        before_f5 = _walked("sprint_knob_exp", lambda flows: flows[:-1])
        assert all(before_f5[fid] == every[fid] for fid in before_f5)
        # without f1, the later flows move up a position and draw another stream
        after_f1 = _walked("sprint_knob_exp", lambda flows: flows[1:])
        assert not np.array_equal(t_last(after_f1["f2"]), t_last(every["f2"]))

    @pytest.mark.parametrize("pick", [lambda flows: flows[:1], lambda flows: flows[1:],
                                      lambda flows: flows[::2], lambda flows: flows[3:4]])
    def test_constant_delays_make_each_flow_independent_of_the_others(self, pick):
        # no draw moves a constant delay, so a flow's position does not matter
        every = _walked("sprint_knob", lambda flows: flows)
        some = _walked("sprint_knob", pick)
        assert some and all(some[fid] == every[fid] for fid in some)

    def test_traces_attached_and_deterministic(self, testbed_params):
        net, flow, path, init, proc = line_flow_setup(10_000_000)
        sched = worst_case_schedule(proc, 1_000_000_000, testbed_params)
        runs = []
        for _ in range(2):
            run = run_timed(net, TimedUpdateProcedure(proc, sched), testbed_params,
                            seed=11, initial_state=init)
            run_flows(net, run, [flow])
            runs.append(run)
        assert runs[0].flow_traces == runs[1].flow_traces
        assert flow.flow_id in runs[0].flow_traces
        assert len(runs[0].flow_traces[flow.flow_id]) > 10

    def test_times_beyond_int64_rejected(self, testbed_params):
        net, flow, path, init, proc = line_flow_setup(10_000_000)
        sched = worst_case_schedule(proc, 1_000_000_000, testbed_params)
        run = run_timed(net, TimedUpdateProcedure(proc, sched), testbed_params,
                        seed=0, initial_state=init)
        # arrivals at the third hop would wrap around
        with pytest.raises(ValueError, match="int64"):
            run_flows(net, run, [flow], window=(2**63 - 8_000_000, 2**63 - 6_000_000))

    def test_table_walk_sees_exec_times_exact_past_float_precision(self):
        # execs above 2**53, where a float cannot tell big from big + 1, and one
        # past int64, which the walk caps at its largest value: each packet
        # sees the version in force to the nanosecond, as forward_packet does
        net = _table_walk_twin(line_network([10]))
        initial = ForwardingState.from_dict(net, {"S1": {("f", None, 0): Action.forward(2)}})
        u1 = SingletonUpdate.install("S1", {("f", None, 0): DELIVER})
        u2 = SingletonUpdate.install("S2", {("f", None, 1): DELIVER})
        big, flow = 2**60, TestFlow("f", "S1", 0, 1e9)
        run = exec_run(net, initial, [(big, u2), (big + 1, u1), (big + 1, u2), (2**63, u1)])
        with mock.patch.object(simulator, "_walk_tables", wraps=simulator._walk_tables) as walk:
            run_flows(net, run, [flow], window=(big - 11, big + 3))
        assert walk.called
        packets = run.flow_traces["f"]
        cols = per_packet(packets.runs)
        # the packet entering at big - 11 reaches S2 at big - 1, before S2
        # delivers, and drops; from big + 1 on, S1 delivers at once
        assert cols.hops == [2] * 12 + [1] * 2
        assert [END_KINDS[e] for e in cols.end] == ["dropped"] + ["delivered"] * 13
        assert [CLASS_OF_AGREES[c] for c in cols.agrees] == (
            [CONSISTENT_OLD] + [INCONSISTENT] * 11 + [CONSISTENT_NEW] * 2)
        want = [forward_packet(net, run, flow, t, np.random.default_rng([0, 7919]))
                for t in packets.t_in]
        assert t_last(packets).tolist() == [t.hops[-1].time_ns for t in want]
        assert list(packets) == want

    def test_stored_state_is_the_runs(self, testbed_params):
        net, flow, path, init, proc = line_flow_setup(10_000_000)
        sched = worst_case_schedule(proc, 1_000_000_000, testbed_params)
        constant, drawn, blocked = (run_timed(net, TimedUpdateProcedure(proc, sched),
                                              testbed_params, seed=3, initial_state=init)
                                    for _ in range(3))
        twin = _table_walk_twin(net)
        with mock.patch.object(simulator, "_walk_tables", wraps=simulator._walk_tables) as walk:
            run_flows(net, constant, [flow])
            assert not walk.called   # constant delays: no packet draws
            run_flows(twin, drawn, [flow])
            with mock.patch.object(simulator, "WALK_BLOCK", 7):
                run_flows(twin, blocked, [flow])
        # the twin's unsettled packets, and only they, were walked by tables
        assert walk.call_count == 2
        unsettled = walk.call_args.args[4]
        assert 0 < sum(b - a for a, b in unsettled) < len(drawn.flow_traces[flow.flow_id])
        for run in (constant, drawn, blocked):
            packets = run.flow_traces[flow.flow_id]
            # runs of Python ints and nothing per packet, whichever walk ran
            assert not [v for v in vars(packets).values() if isinstance(v, (array, np.ndarray))]
            assert len(packets) == packets.n == sum(r[0] for r in packets.runs)
            assert all(type(r) is list and len(r) == 4 and {type(v) for v in r} == {int}
                       for r in packets.runs)
        assert len(drawn.flow_traces[flow.flow_id]) > 3 * 7
        # a flow walked in blocks of 7 uniforms gives the runs of one block,
        # and constant delays those of random ones that draw the same values
        assert ([run.flow_traces[flow.flow_id].runs for run in (blocked, drawn)]
                == [constant.flow_traces[flow.flow_id].runs] * 2)
        assert blocked.flow_traces == drawn.flow_traces == constant.flow_traces
        # t_last is the table-driven walk's, on every packet
        last = [t_last(run.flow_traces[flow.flow_id]) for run in (constant, drawn, blocked)]
        assert last[0].typecode == "q" and len(last[0]) == len(drawn.flow_traces[flow.flow_id])
        assert last[0] == last[1] == last[2]

    def test_runs_do_not_grow_with_the_rate(self, testbed_params):
        # under constant delays a flow's runs are O(pieces), not O(packets):
        # the same update at ten times the rate gives as many runs
        walked = []
        for rate in (5_000, 50_000):
            net, flow, path, init, proc = line_flow_setup(10_000_000, rate_pps=rate)
            sched = knob_schedule(1_000_000_000, 4_000_000, testbed_params)
            run = run_timed(net, TimedUpdateProcedure(proc, sched), testbed_params,
                            seed=3, initial_state=init)
            run_flows(net, run, [flow])
            walked.append(run.flow_traces[flow.flow_id])
        slow, fast = walked
        assert len(fast) > 9 * len(slow)
        assert len(slow.runs) == len(fast.runs) > 1
        assert [r[1:] for r in slow.runs] == [r[1:] for r in fast.runs]

    @staticmethod
    def _last_point_run(config: str):
        """The config's last grid point and a timed run of it."""
        from netupdate.config import Experiment

        *_, (_, point) = Experiment.load(CONFIGS / f"{config}.json").points()
        return point, run_timed(point.net, TimedUpdateProcedure(point.proc, point.schedule),
                                point.params, point.delays, seed=3,
                                initial_state=point.initial_state)

    def test_stored_state_is_at_most_5_bytes_a_packet(self):
        # t_in, hops as int64 and five boolean flags stored 29 B a packet, and
        # then t_last alone 8 B; a flow now stores its runs: each a list of
        # four ints, counted with sys.getsizeof
        for config in KNOB_CONFIGS:
            point, run = self._last_point_run(config)
            run_flows(point.net, run, point.flows)
            for packets in run.flow_traces.values():
                stored = sys.getsizeof(packets.runs) + sum(
                    sys.getsizeof(r) + sum(map(sys.getsizeof, r)) for r in packets.runs)
                assert len(packets) > 100 and stored <= 5 * len(packets), config

    def test_dense_flows_peak_at_most_55_bytes_a_packet(self):
        # the table-driven walk once kept all 11 columns of uniforms of a block
        # of whole-run packets: 84 B per packet at peak
        for config in ("sprint_knob", "sprint_knob_exp"):
            point, run = self._last_point_run(config)
            flows = [flow._replace(rate_pps=10**6) for flow in point.flows]
            tracemalloc.start()
            try:
                run_flows(point.net, run, flows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            packets = sum(map(len, run.flow_traces.values()))
            assert peak <= 55 * packets
        # the last config, sprint_knob_exp, draws for more packets than a block holds
        assert packets > 3 * (simulator.WALK_BLOCK // len(point.net.switches))

    def test_long_path_walk_peak_is_bounded_by_the_block(self):
        # a block of 2^16 packets once kept a uniform per link crossing, 127
        # along this line: 72 MB at peak for 70,000 packets
        net = line_network([0] * 127)
        net = Network(net.switches, [link._replace(delay=DelayModel.exponential(1000))
                                     for link in net.links], net.ingress_ports)
        first, *middle, last = net.switches
        run = exec_run(net, ForwardingState.from_dict(net, {
            first: {("f", None, 0): Action.forward(2)},
            **{sw: {("f", None, 1): Action.forward(2)} for sw in middle},
            last: {("f", None, 1): DELIVER}}), [])
        tracemalloc.start()
        try:
            run_flows(net, run, [TestFlow("f", first, 0, 1e9)], window=(0, 70_000))
            packets = run.flow_traces["f"]
            assert len(t_last(packets)) == 70_000   # the table-driven walk of every packet
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cols = per_packet(packets.runs)
        assert len(packets) == 70_000 and set(cols.hops) == {128}
        assert set(cols.end) == {END_KINDS.index("delivered")}
        assert peak <= 12 * 2**20


    def test_window_counts_the_packets_in_flight_at_garbage_collection(self):
        """sprint_knob at knob d = 10 ms with d_n = 1 ms: f4's path bound is
        14.9 ms, so a window starting d_n before the first exec missed 4 of
        the packets that garbage collection drops, and counted 16."""
        from netupdate.config import Experiment

        doc = json.loads((CONFIGS / "sprint_knob.json").read_text())
        doc["knob_d"], doc["params"]["dn"] = "10ms", "1ms"
        del doc["sweep"]
        _, point = next(Experiment(doc, base_dir=CONFIGS).points())
        _, reports = point.run(0)
        assert [r.n_inconsistent for r in reports] == [0, 0, 0, 20, 0]


class TestPacketCap:
    def test_count_arithmetic_at_the_cap(self):
        assert _packet_count((0, MAX_PACKETS * 7), 7) == MAX_PACKETS
        assert _packet_count((0, MAX_PACKETS * 7 + 1), 7) == MAX_PACKETS + 1
        assert _packet_count((5, 5 + (MAX_PACKETS - 1) * 7 + 1), 7) == MAX_PACKETS
        # no packet count is computed in a fixed width
        assert _packet_count((-2**63, 2**63), 1) == 2**64
        assert _packet_count((10, 3), 7) == 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(t0=st.integers(-10**6, 10**6), width=st.integers(-50, 500),
           spacing=st.integers(1, 60))
    def test_count_matches_the_injected_times(self, t0, width, spacing):
        net = line_network([1000])
        flow = TestFlow("f", "S1", 0, 1e9 / spacing)
        assert flow.spacing_ns == spacing
        times = list(_injected(net, flow, (t0, t0 + width)).t_in)
        assert times == (list(range(t0, t0 + width, spacing)) or [t0])
        assert _packet_count((t0, t0 + width), spacing) == len(times)

    def test_run_refused_past_the_cap_before_walking(self, testbed_params):
        net, flow, path, init, proc = line_flow_setup(10_000_000)
        flows = [flow, flow._replace(flow_id="g", rate_pps=flow.rate_pps / 2)]
        window = (0, 10 * flow.spacing_ns)   # 10 packets of flow, 5 of g
        run = run_untimed(net, proc, testbed_params, initial_state=init)
        with mock.patch.object(simulator, "MAX_PACKETS", 14):
            with pytest.raises(PacketCapError, match="15 in all") as exc:
                run_flows(net, run, flows, window=window)
            assert exc.value.flow_id == flow.flow_id   # the flow with the most packets
            assert run.flow_traces == {}
        with mock.patch.object(simulator, "MAX_PACKETS", 15):
            run_flows(net, run, flows, window=window)
        assert [len(run.flow_traces[f.flow_id]) for f in flows] == [10, 5]


# -- the vectorized walk against the one-packet oracle ----------------------

_DELAYS = st.one_of(
    st.integers(0, 20).map(DelayModel.constant),
    st.integers(0, 20).map(DelayModel.uniform),
    st.tuples(st.integers(0, 8), st.integers(1, 40)).map(
        lambda mc: DelayModel.exponential(*mc)),
    st.lists(st.integers(0, 20), min_size=1, max_size=4).map(DelayModel.empirical),
)
_TAGS = [None, "A", "B"]
UNLINKED_PORT = 9  # no link behind it: forwarding there strands the packet


@st.composite
def _states(draw, net, flows, max_updates, last_ns):
    """(initial state, [(exec time, update)] by time) of random rule tables for
    flows on net: 0 to max_updates installs or removes at 0 to last_ns."""

    def table(sw):
        ports = sorted(net.ports[sw])
        outs = ports + [UNLINKED_PORT]
        # mostly forwarding actions, so that walks get long and loop; None: no rule
        actions = ([DROP, DELIVER, None] + [Action.forward(p) for p in outs] * 2
                   + [Action.forward_tagged(p, t) for p in outs for t in ("A", "B")])
        keys = [(f.flow_id, tag, port) for f in flows for tag in _TAGS for port in ports]
        # one draw per table: a byte per key picks its action
        drawn = draw(st.binary(min_size=len(keys), max_size=len(keys)))
        return {k: actions[b % len(actions)] for k, b in zip(keys, drawn)
                if actions[b % len(actions)] is not None}

    initial = ForwardingState.from_dict(net, {sw: table(sw) for sw in net.switches})
    updates = []
    for _ in range(draw(st.integers(0, max_updates))):
        sw = draw(st.sampled_from(net.switches))
        entries = table(sw)
        u = (SingletonUpdate.install(sw, entries) if draw(st.booleans())
             else SingletonUpdate.remove(sw, list(entries)))
        updates.append((draw(st.integers(0, last_ns)), u))
    updates.sort(key=lambda tu: tu[0])
    return initial, updates


@st.composite
def _data_plane_cases(draw):
    """A random small network, old state, exec timeline and three flows.

    The flows enter at different switches (port 0 of each is an ingress
    port) with different spacings, so their packet counts differ. With
    updates, each flow gets its default window, which starts two spacings
    before the first exec, so that exec lands on an injection time of every
    flow; without, all share a drawn window. Hop times are small integers,
    so execs often land exactly on a hop.
    """
    switches = [f"S{i}" for i in range(1, draw(st.integers(2, 5)) + 1)]
    next_port = dict.fromkeys(switches, 1)
    links = []
    for a, b in draw(st.lists(st.tuples(st.sampled_from(switches), st.sampled_from(switches)),
                              min_size=1, max_size=6)):
        pa = next_port[a]
        next_port[a] += 1
        pb = next_port[b]
        next_port[b] += 1
        links.append(Link((a, pa), (b, pb), draw(_DELAYS)))
    spacings = draw(st.permutations([3, 7, 10]))
    flows = [TestFlow(fid, switches[i % len(switches)], 0, 1e9 / spacing)
             for i, (fid, spacing) in enumerate(zip(("f", "g", "h"), spacings))]
    net = Network(tuple(switches), tuple(links),
                  frozenset((f.ingress_switch, 0) for f in flows))
    initial, updates = draw(_states(net, flows, 6, 60))
    window = None
    if not updates:
        window = (0, draw(st.integers(1, 60)))
    return net, initial, updates, flows, window, draw(st.integers(0, 2**16))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_data_plane_cases())
def test_run_flows_matches_forward_packet_oracle(case):
    net, initial, updates, flows, window, seed = case
    runs = [exec_run(net, initial, updates, seed) for _ in range(3)]
    # blocks of 1, 2 and all of a flow's packets: each block draws whole rows
    # of uniforms and goes on with its flow's stream
    for run, block in zip(runs, (1, 2 * len(net.switches), simulator.WALK_BLOCK)):
        with mock.patch.object(simulator, "WALK_BLOCK", block):
            run_flows(net, run, flows, window=window)
    for idx, flow in enumerate(flows):
        packets = runs[0].flow_traces[flow.flow_id]
        flow_window = window or default_flow_window(
            runs[0], flow.spacing_ns, old_path_bound(net, initial, flow))
        assert packets.t0 == flow_window[0]
        assert len(packets) == _packet_count(flow_window, flow.spacing_ns)
        rng = np.random.default_rng([seed, 7919 + idx])
        want = [forward_packet(net, runs[0], flow, t, rng)
                for t in packets.t_in]
        classes = [classify_packet(t, initial, runs[0].new_config) for t in want]
        for run in runs:
            got = run.flow_traces[flow.flow_id]
            # maximal runs, at least one packet each, that cover the flow
            assert all(r[0] >= 1 for r in got.runs)
            assert sum(r[0] for r in got.runs) == len(got)
            assert all(r[1:] != s[1:] for r, s in zip(got.runs, got.runs[1:]))
            # the walk's own runs and t_last against the oracle's traces
            cols = per_packet(got.runs)
            assert list(got.t_in) == [t.t_in for t in want]
            assert cols.hops == [len(t.hops) for t in want]
            assert t_last(got).tolist() == [t.hops[-1].time_ns for t in want]
            assert [END_KINDS[e] for e in cols.end] == [
                next((k for k in ("delivered", "truncated", "stranded") if getattr(t, k)),
                     "dropped") for t in want]
            assert [CLASS_OF_AGREES[c] for c in cols.agrees] == classes
            assert (measure_inconsistency(run, flow).n_inconsistent
                    == classes.count(INCONSISTENT))
        # iterating re-walks the packets on the flow's own stream
        assert list(runs[0].flow_traces[flow.flow_id]) == want


# -- the windows walk against the table-driven walk --------------------------

@st.composite
def _constant_delay_cases(draw):
    """A network of test_properties.networks with constant delays of 0-3 ns,
    random rule tables for two flows (forwarding that loops, drops, and
    strands at UNLINKED_PORT) and 0-8 execs at 0-20 ns, often at equal
    times. The flows are spaced 1-3 ns over 1-60 ns from -8 to 8 ns, so
    execs often fall exactly on a packet's arrival."""
    net, _, ingress = draw(networks(st.integers(0, 3).map(DelayModel.constant)))
    flows = [TestFlow(fid, draw(st.sampled_from(ingress)), 0, 1e9 / draw(st.integers(1, 3)))
             for fid in ("f", "g")]
    initial, updates = draw(_states(net, flows, 8, 20))
    t0 = draw(st.integers(-8, 8))
    return net, initial, updates, flows, (t0, t0 + draw(st.integers(1, 60)))


def _walk_both(net: Network, initial, updates, flows, window) -> list:
    """Each flow's runs and t_last, by the windows walk (the envelope walk
    under constant delays, which draws nothing) and by the envelope walk of
    random delays that draw the same values; t_last is the table-driven
    walk's, whose runs must be the envelope walk's."""
    got = []
    for walked in (net, _table_walk_twin(net)):
        run = exec_run(walked, initial, updates)
        with mock.patch.object(simulator, "_walk_tables", wraps=simulator._walk_tables) as walk:
            run_flows(walked, run, flows, window=window)
        assert not walk.called or walked is not net
        packets = [run.flow_traces[f.flow_id] for f in flows]
        got.append([(p.t0, p.runs, t_last(p).typecode, t_last(p).tolist()) for p in packets])
    return got


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_constant_delay_cases())
def test_windows_walk_matches_the_table_driven_walk(case):
    windows, tables = _walk_both(*case)
    assert windows == tables


# -- the envelope walk of random delays against the table-driven walk --------

_LINK_DELAYS = [
    st.integers(0, 3).map(DelayModel.constant),
    st.integers(0, 6).map(DelayModel.uniform),
    st.tuples(st.integers(0, 3), st.integers(1, 12)).map(lambda mc: DelayModel.exponential(*mc)),
    st.lists(st.integers(0, 6), min_size=1, max_size=3).map(DelayModel.empirical),
]


@st.composite
def _random_delay_cases(draw):
    """(net, a maker of fresh runs on it, two flows spaced 1-3 ns, window): a
    network of test_properties.networks whose links all take one kind of
    _LINK_DELAYS, or each any kind. The run has random rule tables and 0-8
    execs at 0-20 ns, with forwarding that loops and is truncated, drops and
    strands, over 1-60 ns of entries; or it is a timed knob update of the
    flows' paths at d = 0 or more, whose execs, GC included, miss their
    schedule when t_su is short, over the default windows."""
    net, neighbours, ingress = draw(networks(draw(st.sampled_from(
        [st.one_of(_LINK_DELAYS), *_LINK_DELAYS]))))
    seed, ids = draw(st.integers(0, 2**32)), ("f", "g")
    if draw(st.booleans()):
        flows = [TestFlow(fid, draw(st.sampled_from(ingress)), 0, 1e9 / draw(st.integers(1, 3)))
                 for fid in ids]
        initial, updates = draw(_states(net, flows, 8, 20))
        t0 = draw(st.integers(-8, 8))
        return (net, lambda: exec_run(net, initial, updates, seed), flows,
                (t0, t0 + draw(st.integers(1, 60))))
    paths = []
    for _ in ids:
        paths.append([draw(st.sampled_from(ingress))])
        for _ in range(draw(st.integers(1, len(net.switches) - 1))):
            onward = [s for s in neighbours[paths[-1][-1]] if s not in paths[-1]]
            if onward:
                paths[-1].append(draw(st.sampled_from(onward)))
    flows = [TestFlow(fid, path[0], 0, 1e9 / draw(st.integers(1, 3)))
             for fid, path in zip(ids, paths)]
    initial, proc = label_change_update(net, list(zip(flows, paths)))
    d_c = draw(st.integers(1, 20))
    params = SystemParameters(
        d_c=d_c, d_n=max(path_link_bound_ns(net, path) for path in paths),
        delta_msg=draw(st.integers(0, 5)), delta_sched=draw(st.integers(0, 5)),
        t_su=draw(st.one_of(st.none(), st.integers(0, d_c))))
    knob = TimedUpdateProcedure(proc, knob_schedule(100, draw(st.sampled_from(
        [0, draw(st.integers(1, 30))])), params))
    return (net, lambda: run_timed(net, knob, params, seed=seed, initial_state=initial),
            flows, None)


def _random_ring_loop():
    """A ring of four switches with delays uniform on 0-2 ns, round which f
    loops until it is truncated at its fourth hop; from 6 ns on, S2 delivers
    it, so whether a packet entering at 2-6 ns is delivered or truncated
    depends on its draws. g has no rule and is dropped."""
    switches = [f"S{i}" for i in range(4)]
    net = Network(switches, [Link((switches[i], 2), (switches[(i + 1) % 4], 1),
                                  DelayModel.uniform(2)) for i in range(4)], {("S0", 0)})
    loop = {sw: {("f", None, 1): Action.forward(2)} for sw in switches}
    loop["S0"][("f", None, 0)] = Action.forward(2)
    initial = ForwardingState.from_dict(net, loop)
    updates = [(6, SingletonUpdate.install("S2", {("f", None, 1): DELIVER}))]
    return (net, lambda: exec_run(net, initial, updates, seed=7),
            [TestFlow("f", "S0", 0, 1e9), TestFlow("g", "S0", 0, 1e9 / 2)], (0, 12))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_random_delay_cases())
@example(case=_random_ring_loop())
def test_envelope_walk_matches_the_table_driven_walk(case):
    """Runs drawn in Python, by numpy once the budget runs out midway, and by
    numpy alone, each equal to the table-driven walk's of every packet."""
    net, make_run, flows, window = case
    got, budget = [], 2**62
    for _ in range(3):
        run = make_run()
        with numpy_unloaded(budget) as delays:
            run_flows(net, run, flows, window=window)
            drawn = budget - delays._py_uniforms_left
        budget = drawn // 2 if budget == 2**62 else 0
        got.append([run.flow_traces[f.flow_id].runs for f in flows])
        for i, flow in enumerate(sorted(flows, key=lambda f: f.flow_id)):
            packets = run.flow_traces[flow.flow_id]
            steps = cache(lambda node: simulator._steps(net, run, flow.flow_id, *node))
            parts = simulator._walk_tables(net, run, flow, packets.t0, [(0, len(packets))],
                                           simulator._flow_rng(run.seed, i), steps)
            assert simulator._runs(parts) == packets.runs
    assert got[0] == got[1] == got[2]


# -- the entry-time cuts against the packet-index walk ----------------------

@st.composite
def _spaced_cases(draw):
    """A case of _constant_delay_cases or _random_delay_cases, as (net, maker of
    fresh runs, flows, window), with each flow spaced 1-100 ns: past an
    explicit window's 1-60 ns of entries, or a packet at every cut."""
    if draw(st.booleans()):
        net, initial, updates, flows, window = draw(_constant_delay_cases())
        case = net, lambda: exec_run(net, initial, updates), flows, window
    else:
        case = draw(_random_delay_cases())
    flows = [f._replace(rate_pps=1e9 / draw(st.integers(1, 100))) for f in case[2]]
    return case[0], case[1], flows, case[3]


def _cuts_on_packets():
    """S1 - S2 - S3, 3 ns then uniform on 0-4 ns: S2 tags f from 13 ns on and S3
    drops the tagged from 23 ns on, so the cuts fall at entries 10, 16 and 20,
    each a packet's at 2 ns spacing, and packets entering at 16-18 ns draw."""
    net = Network(("S1", "S2", "S3"), (
        Link(("S1", 2), ("S2", 1), DelayModel.constant(3)),
        Link(("S2", 2), ("S3", 1), DelayModel.uniform(4))), {("S1", 0)})
    initial = ForwardingState.from_dict(net, {
        "S1": {("f", None, 0): Action.forward(2)}, "S2": {("f", None, 1): Action.forward(2)},
        "S3": {("f", None, 1): DELIVER}})
    updates = [(13, SingletonUpdate.install("S2", {("f", None, 1): Action.forward_tagged(2, "A")})),
               (23, SingletonUpdate.install("S3", {("f", "A", 1): DROP}))]
    return (net, lambda: exec_run(net, initial, updates, seed=3),
            [TestFlow("f", "S1", 0, 1e9 / 2)], (0, 40))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_spaced_cases())
@example(case=_random_ring_loop())
@example(case=_cuts_on_packets())
def test_entry_time_cuts_match_the_packet_index_walk(case):
    """Each flow's runs equal oracles.index_walk's, with the unsettled rows
    drawn in Python and by _walk_tables alike."""
    net, make_run, flows, window = case
    for budget in (2**62, None):
        run = make_run()
        with numpy_unloaded(budget) if budget else contextlib.nullcontext():
            run_flows(net, run, flows, window=window)
        for i, flow in enumerate(sorted(flows, key=lambda f: f.flow_id)):
            packets = run.flow_traces[flow.flow_id]
            with numpy_unloaded(budget) if budget else contextlib.nullcontext():
                want = index_walk(net, run, flow, packets.t0, len(packets), i)
            assert packets.runs == want, (budget, flow)


def _nodes_stepped(net: Network, run: RunResult, flows, window=None) -> tuple:
    """(whether the table-driven walk ran, the most times run_flows stepped one
    (run, flow, node)), its unsettled packets drawn by numpy, which is loaded."""
    with mock.patch.object(simulator, "_steps", wraps=simulator._steps) as steps, \
            mock.patch.object(simulator, "_walk_tables", wraps=simulator._walk_tables) as walk:
        run_flows(net, run, flows, window=window)
    stepped = Counter(call.args[1:] for call in steps.call_args_list)
    return walk.called, max(stepped.values(), default=0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_random_delay_cases())
@example(case=_random_ring_loop())
def test_each_node_is_stepped_once_a_flow_walk(case):
    net, make_run, flows, window = case
    assert _nodes_stepped(net, make_run(), flows, window)[1] <= 1


def test_each_node_of_a_shipped_sweep_is_stepped_once():
    from netupdate.config import Experiment

    _, point = next(Experiment.load(CONFIGS / "netrail_knob_exp.json").points())
    run = run_timed(point.net, TimedUpdateProcedure(point.proc, point.schedule), point.params,
                    point.delays, seed=0, initial_state=point.initial_state)
    assert _nodes_stepped(point.net, run, point.flows) == (True, 1)


def _step_at(net: Network, run: RunResult, flow_id, switch, port, tag, t) -> tuple:
    """What a packet of the flow arriving at (switch, port) with tag at t does,
    as a step of simulator._steps, from the table version in force at t."""
    version = bisect_right(run.times[switch], t)
    action, old, new = (lookup_rule(table, flow_id, tag, port) for table in (
        run.tables[switch][version], run.old_config.tables[switch],
        run.new_config.tables[switch]))
    agree = (action == old) | (action == new) << 1
    ends = {"deliver": "delivered", "drop": "dropped"}
    if action.kind in ends:
        return END_KINDS.index(ends[action.kind]), None, None, agree
    peer = net.peer(switch, action.out_port)
    if peer is None:
        return END_KINDS.index("stranded"), None, None, agree
    tag = action.new_tag if action.kind == "forward_tagged" else tag
    return None, (peer[0], peer[1], tag), peer[2], agree


def _other_flows_update():
    """S1 - S2: f enters S1 and is delivered at S2; at 5 ns S1 installs a rule
    of g's alone, which changes nothing for f there."""
    net = line_network([1])
    flows = [TestFlow("f", "S1", 0, 1e9 / 2), TestFlow("g", "S1", 0, 1e9 / 3)]
    initial = ForwardingState.from_dict(net, {"S1": {("f", None, 0): Action.forward(2)},
                                              "S2": {("f", None, 1): DELIVER}})
    updates = [(5, SingletonUpdate.install("S1", {("g", None, 0): DROP}))]
    return net, initial, updates, flows, (0, 20)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_constant_delay_cases())
@example(case=_other_flows_update())   # f's node at S1 must have no change
def test_steps_is_the_step_function_of_every_node_a_walk_reaches(case):
    net, initial, updates, flows, window = case
    for walked in (net, _table_walk_twin(net)):
        run = exec_run(walked, initial, updates)
        with mock.patch.object(simulator, "_steps", wraps=simulator._steps) as steps:
            run_flows(walked, run, flows, window=window)
        assert steps.called
        for call in steps.call_args_list:
            _, _, flow_id, switch, port, tag = call.args
            changes, got = simulator._steps(*call.args)
            times = run.times[switch]
            # drawn from the switch's executions, and every change changes the step
            assert changes == sorted(changes) and not Counter(changes) - Counter(times)
            assert len(got) == len(changes) + 1
            assert all(a != b for a, b in zip(got, got[1:]))
            # at, just before and before every execution of the switch
            for t in {min(times, default=0) - 1, *times, *(t - 1 for t in times)}:
                assert got[bisect_right(changes, t)] == _step_at(
                    walked, run, flow_id, switch, port, tag, t), (switch, port, tag, t)


def test_windows_walk_a_loop_longer_than_the_recursion_limit():
    # a ring of more switches than the recursion limit; from 3 ns on, the
    # switch halfway round delivers: packets 0-2 pass it, loop and are
    # truncated at the ring's last switch, the others are delivered there
    n = sys.getrecursionlimit() + 1
    half, switches = n // 2, [f"S{i}" for i in range(n)]
    net = Network(switches, [Link((switches[i], 2), (switches[(i + 1) % n], 1),
                                  DelayModel.constant(1)) for i in range(n)], {("S0", 0)})
    loop = {sw: {("f", None, 1): Action.forward(2)} for sw in switches}
    loop["S0"][("f", None, 0)] = Action.forward(2)
    updates = [(half + 3, SingletonUpdate.install(f"S{half}", {("f", None, 1): DELIVER}))]
    windows, tables = _walk_both(net, ForwardingState.from_dict(net, loop), updates,
                                 [TestFlow("f", "S0", 0, 1e9)], (0, 10))
    assert windows == tables
    _, runs, _, last = windows[0]
    columns = per_packet(runs)
    assert columns.hops == [n] * 3 + [half + 1] * 7
    assert last == [k + n - 1 for k in range(3)] + [k + half for k in range(3, 10)]
    assert [END_KINDS[e] for e in columns.end] == ["truncated"] * 3 + ["delivered"] * 7


# sha256 of the control-plane runs below, faults included: of those that draw,
# and of the pin_worst_case ones, which draw nothing; whatever moves a draw, a
# send or execution time, a fault or the execution order moves the first
CONTROL_PLANE_DIGEST = "96bd223fcc5f8379652f770a819e561d8478f1a34dd8dea7b6c48548ac8ab7fd"
PINNED_CONTROL_PLANE_DIGEST = "73a3ae640a6f9261e79c99ec22dcf1fa0137fd38104d1cbca6c827fe6cff05bb"


def _control_plane_cases():
    """(net, proc, initial, params, delays, start, schedules) per seeded case:
    stub procedures of 1-4 phases, random GC phases, empirical delays that
    overshoot d_c / delta_msg, and a t_su that is sometimes too short."""
    for case in range(100):
        rng = random.Random(case)
        net = leaf_spine(rng.choice((3, 6, 9, 12)))
        k = rng.randint(1, 4)
        sets = [rng.sample(net.switches, rng.randint(1, len(net.switches))) for _ in range(k)]
        gc = frozenset(j for j in range(1, k + 1) if rng.random() < 0.3)
        proc, initial = stub_update(net, sets, gc)
        d_c, delta = rng.randint(1, 5000), rng.randint(0, 5000)
        t_su = rng.choice((None, rng.randint(0, d_c)))
        params = SystemParameters(d_c=d_c, d_n=rng.randint(0, 3000), delta_msg=delta,
                                  delta_sched=rng.randint(0, 3000), t_su=t_su)
        delays = RunDelays(
            DelayModel.empirical([rng.randint(0, 2 * d_c) for _ in range(5)]),
            DelayModel.empirical([rng.randint(0, 2 * delta + 1) for _ in range(5)]))
        start = rng.randint(0, 10**9)
        times, t = {}, start
        for j in range(1, k + 1):
            times[j] = t = t + rng.randint(0, 4000) * (j > 1)
        schedules = (worst_case_schedule(proc, start, params), Schedule.build(times))
        yield net, proc, initial, params, delays, start, schedules


def _control_plane_digest(pin: bool) -> str:
    """sha256 over each case's untimed run, then its timed run per schedule."""
    digest = hashlib.sha256()
    for case, (net, proc, initial, params, delays, start, schedules) in enumerate(
            _control_plane_cases()):
        runs = [run_untimed(net, proc, params, delays, seed=case, initial_state=initial,
                            start_time=start, pin_worst_case=pin)]
        runs += [run_timed(net, TimedUpdateProcedure(proc, sched), params, delays,
                           seed=case, initial_state=initial, pin_worst_case=pin)
                 for sched in schedules]
        for run in runs:
            digest.update(repr((run.mode, run.first_send_ns, run.sched_first_ns, run.exec_log,
                                run.messages, run.faults, run.new_config.tables)).encode())
    return digest.hexdigest()


def test_control_plane_pinned_to_digest():
    assert _control_plane_digest(pin=False) == CONTROL_PLANE_DIGEST


def test_worst_case_control_plane_pinned_to_digest():
    assert _control_plane_digest(pin=True) == PINNED_CONTROL_PLANE_DIGEST


# the same digest with the blocks drawn in Python, then with a budget that
# runs out midway, so that numpy draws the blocks that no longer fit
def test_control_plane_drawn_in_python_pinned_to_digest():
    with numpy_unloaded(2**62) as delays:
        assert _control_plane_digest(pin=False) == CONTROL_PLANE_DIGEST
        drawn = 2**62 - delays._py_uniforms_left
    with numpy_unloaded(drawn // 2) as delays:
        assert _control_plane_digest(pin=False) == CONTROL_PLANE_DIGEST
        assert delays._py_uniforms_left < drawn // 2 < drawn


CTRL_MODELS = st.one_of(
    st.builds(DelayModel.constant, st.integers(0, 10**7)),
    st.builds(DelayModel.uniform, st.integers(0, 10**7) | st.integers(0, 2**63 - 1)),
    st.builds(DelayModel.empirical, st.lists(st.integers(0, 10**7), min_size=1, max_size=6)),
    st.builds(DelayModel.exponential, st.integers(0, 10**7)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([3, 6, 12]), timed=st.booleans(), gap=CTRL_MODELS, ctrl=CTRL_MODELS,
       delta_sched=st.integers(0, 10**7), seeds=st.lists(st.integers(0, 2**80), min_size=1,
                                                          max_size=4),
       budget_runs=st.floats(0, 5))
def test_runs_are_equal_on_both_sides_of_the_python_budget(
        n, timed, gap, ctrl, delta_sched, seeds, budget_runs):
    """Runs whose blocks the Python twin draws, until a budget of budget_runs
    runs' blocks runs out, equal the runs numpy draws alone: exec logs, sends
    and faults."""
    net, params = leaf_spine(n), SystemParameters(DC_NS, 262_000, 5_240_000, delta_sched)
    proc, delays = policy_update(net), RunDelays(ctrl=ctrl, gap=gap)
    sched = worst_case_schedule(proc, 10**9, params)

    def runs():
        return [(run.first_send_ns, run.exec_log, run.messages, run.faults) for run in (
            run_timed(net, TimedUpdateProcedure(proc, sched), params, delays, seed=seed)
            if timed else run_untimed(net, proc, params, delays, seed=seed)
            for seed in seeds)]

    expect, block = runs(), 3 * len(proc.items)
    budget = int(budget_runs * block)
    with numpy_unloaded(budget) as state:
        assert runs() == expect
        assert budget - state._py_uniforms_left == min(len(seeds), budget // block) * block


# sha256 of every packet array of the exponential knob sweeps, two seeds per
# point, in the layout FlowPackets once stored: t_in, hops as int64, t_last,
# three end flags and two agreement flags; whatever moves a packet's hops,
# times or verdict moves it
DATA_PLANE_DIGEST = "32fdf8a152ff3b967edae4a2166237b1af6337b27d181cf8038dbffcb9eb5597"
KNOB_EXP_CONFIGS = ("netrail_knob_exp", "sprint_knob_exp", "compuserve_knob_exp")


def _data_plane_digest() -> str:
    from netupdate.config import Experiment

    digest = hashlib.sha256()
    for name in KNOB_EXP_CONFIGS:
        exp = Experiment.load(CONFIGS / f"{name}.json", seeds=[0, 1])
        for _, point in exp.points():
            for seed in exp.seeds:
                run, _ = point.run(seed)
                for flow_id in sorted(run.flow_traces):
                    packets = run.flow_traces[flow_id]
                    cols = per_packet(packets.runs)
                    end, agrees = np.asarray(cols.end), np.asarray(cols.agrees)
                    digest.update(flow_id.encode())
                    for array, values in (
                            ("t_in", np.asarray(packets.t_in)),
                            ("hops", np.asarray(cols.hops).astype(np.int64)),
                            ("t_last", np.asarray(t_last(packets))),
                            ("delivered", end == END_KINDS.index("delivered")),
                            ("truncated", end == END_KINDS.index("truncated")),
                            ("stranded", end == END_KINDS.index("stranded")),
                            ("agrees_old", (agrees & 1).astype(bool)),
                            ("agrees_new", (agrees >> 1).astype(bool))):
                        digest.update(f"{array}:{values.dtype}:{len(values)}".encode())
                        digest.update(values.tobytes())
    return digest.hexdigest()


def test_data_plane_pinned_to_digest():
    assert _data_plane_digest() == DATA_PLANE_DIGEST


# the same digest with both planes drawn in Python, then with a budget that runs
# out midway, so that numpy draws the blocks and flows that no longer fit
def test_data_plane_drawn_in_python_pinned_to_digest():
    with numpy_unloaded(2**62) as delays:
        assert _data_plane_digest() == DATA_PLANE_DIGEST
        drawn = 2**62 - delays._py_uniforms_left
    with numpy_unloaded(drawn // 2) as delays:
        assert _data_plane_digest() == DATA_PLANE_DIGEST
        assert delays._py_uniforms_left < drawn // 2 < drawn
