import random

import pytest

from netupdate import (
    CONSISTENT_NEW,
    CONSISTENT_OLD,
    INCONSISTENT,
    DELIVER,
    DROP,
    Action,
    ForwardingState,
    SystemParameters,
    TestFlow,
    TimedUpdateProcedure,
    classify_packet,
    knob_schedule,
    measure_inconsistency,
    run_flows,
    run_timed,
    simultaneous_schedule,
    worst_case_schedule,
)
from netupdate.simulator import Hop, PacketTrace

from conftest import MS, line_network, line_flow_setup


def trace_of(flow_id, hops):
    return PacketTrace(flow_id, hops[0][0], tuple(
        Hop(t, sw, port, tag, action, gen) for t, sw, port, tag, action, gen in hops),
        delivered=hops[-1][4].kind == "deliver")


def line_configs():
    """Old/new configs for a 3-switch chain label change A -> B."""
    net = line_network([1000, 1000])
    old = ForwardingState.from_dict(net, {
        "S1": {("f", None, 0): Action.forward_tagged(2, "A"),
               ("f", "A", 0): Action.forward(2)},
        "S2": {("f", "A", 1): Action.forward(2)},
        "S3": {("f", "A", 1): DELIVER},
    })
    new = ForwardingState.from_dict(net, {
        "S1": {("f", None, 0): Action.forward_tagged(2, "B"),
               ("f", "B", 0): Action.forward(2)},
        "S2": {("f", "B", 1): Action.forward(2)},
        "S3": {("f", "B", 1): DELIVER},
    })
    return net, old, new


class TestClassifyPacket:
    def test_all_old_hops(self):
        _, old, new = line_configs()
        t = trace_of("f", [
            (0, "S1", 0, None, Action.forward_tagged(2, "A"), "old"),
            (1000, "S2", 1, "A", Action.forward(2), "old"),
            (2000, "S3", 1, "A", DELIVER, "old"),
        ])
        assert classify_packet(t, old, new) == CONSISTENT_OLD

    def test_all_new_hops(self):
        _, old, new = line_configs()
        t = trace_of("f", [
            (0, "S1", 0, None, Action.forward_tagged(2, "B"), "new"),
            (1000, "S2", 1, "B", Action.forward(2), "new"),
            (2000, "S3", 1, "B", DELIVER, "new"),
        ])
        assert classify_packet(t, old, new) == CONSISTENT_NEW

    def test_new_tag_dropped_downstream_is_inconsistent(self):
        _, old, new = line_configs()
        t = trace_of("f", [
            (0, "S1", 0, None, Action.forward_tagged(2, "B"), "new"),
            (1000, "S2", 1, "B", DROP, None),
        ])
        assert classify_packet(t, old, new) == INCONSISTENT

    def test_unknown_switch_is_an_error(self):
        _, old, new = line_configs()
        t = trace_of("f", [(0, "ghost", 0, None, DROP, None)])
        with pytest.raises(ValueError, match="absent"):
            classify_packet(t, old, new)

    def test_matches_bruteforce_on_small_networks(self):
        # enumerate random realized traces over <= 3 switches and compare with
        # an independent hop-by-hop evaluator of both configurations
        net, old, new = line_configs()
        actions = [Action.forward_tagged(2, "A"), Action.forward_tagged(2, "B"),
                   Action.forward(2), DROP, DELIVER]
        rng = random.Random(0)

        def brute(trace):
            verdicts = []
            for config in (old, new):
                ok = True
                for hop in trace.hops:
                    got, _ = config.lookup(hop.switch, "f", hop.tag, hop.in_port)
                    if got != hop.action:
                        ok = False
                        break
                verdicts.append(ok)
            if verdicts[0]:
                return CONSISTENT_OLD
            if verdicts[1]:
                return CONSISTENT_NEW
            return INCONSISTENT

        for _ in range(300):
            hops = []
            tag = None
            for pos, (sw, port) in enumerate([("S1", 0), ("S2", 1), ("S3", 1)]):
                act = rng.choice(actions)
                hops.append((1000 * pos, sw, port, tag, act, None))
                if act.kind in ("drop", "deliver"):
                    break
                if act.kind == "forward_tagged":
                    tag = act.new_tag
            t = trace_of("f", hops)
            assert classify_packet(t, old, new) == brute(t)


def run_with_schedule(schedule_factory, total_delay_ns, params, rate=5000.0, seed=3):
    net, flow, path, init, proc = line_flow_setup(total_delay_ns, rate_pps=rate)
    sched = schedule_factory(proc, params)
    run = run_timed(net, TimedUpdateProcedure(proc, sched), params, seed=seed,
                    initial_state=init)
    run_flows(net, run, [flow])
    return run, flow


class TestMeasureInconsistency:
    def test_simultaneous_update_disrupts_for_path_delay(self):
        # all three phases at the same instant, no scheduling error, constant
        # path delay D: packets already en route when the tag flips get
        # dropped, so the disruption lasts exactly D
        D = 10 * MS
        params = SystemParameters(d_c=1 * MS, d_n=D, delta_msg=1 * MS, delta_sched=0)
        run, flow = run_with_schedule(
            lambda proc, p: simultaneous_schedule(1_000 * MS), D, params)
        rep = measure_inconsistency(run, flow)
        assert abs(rep.inconsistency_ns - D) <= flow.spacing_ns
        assert rep.inconsistency_ns == rep.n_inconsistent * flow.spacing_ns

    def test_knob_at_dn_fully_consistent(self):
        D = 10 * MS
        params = SystemParameters(d_c=1 * MS, d_n=D, delta_msg=1 * MS, delta_sched=0)
        run, flow = run_with_schedule(
            lambda proc, p: knob_schedule(1_000 * MS, D, p), D, params)
        assert measure_inconsistency(run, flow).n_inconsistent == 0

    def test_knob_partial_drain(self):
        D, d = 10 * MS, 4 * MS
        params = SystemParameters(d_c=1 * MS, d_n=D, delta_msg=1 * MS, delta_sched=0)
        run, flow = run_with_schedule(
            lambda proc, p: knob_schedule(1_000 * MS, d, p), D, params)
        rep = measure_inconsistency(run, flow)
        assert abs(rep.inconsistency_ns - 6 * MS) <= flow.spacing_ns
        # the per-packet classes behind the count, in trace order
        assert rep.classes == tuple(classify_packet(t, run.old_config, run.new_config)
                                    for t in run.flow_traces[flow.flow_id])

    def test_monotone_non_increasing_in_knob(self):
        D = 10 * MS
        params = SystemParameters(d_c=1 * MS, d_n=D, delta_msg=1 * MS, delta_sched=0)
        values = []
        for d in range(0, 13 * MS, 1 * MS):
            run, flow = run_with_schedule(
                lambda proc, p: knob_schedule(1_000 * MS, d, p), D, params)
            values.append(measure_inconsistency(run, flow).inconsistency_ns)
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == 0

    def test_worst_case_schedule_yields_zero(self):
        D = 8 * MS
        params = SystemParameters(d_c=1 * MS, d_n=D, delta_msg=1 * MS,
                                  delta_sched=1_297_000)
        for seed in range(10):
            run, flow = run_with_schedule(
                lambda proc, p: worst_case_schedule(proc, 1_000 * MS, p), D, params,
                seed=seed)
            assert measure_inconsistency(run, flow).n_inconsistent == 0

    def test_unsimulated_flow_is_an_error(self):
        D = 2 * MS
        params = SystemParameters(d_c=1 * MS, d_n=D, delta_msg=1 * MS, delta_sched=0)
        run, _ = run_with_schedule(
            lambda proc, p: knob_schedule(0, D, p), D, params)
        ghost = TestFlow("ghost", "S1", 0, 100.0)
        with pytest.raises(ValueError, match="not simulated"):
            measure_inconsistency(run, ghost)


class TestKnobSchedule:
    def test_matches_worst_case_when_d_is_dn(self, testbed_params):
        _, _, _, _, proc = line_flow_setup(2 * MS)
        wc = worst_case_schedule(proc, 500, testbed_params)
        kn = knob_schedule(500, testbed_params.d_n, testbed_params)
        assert kn.times == wc.times

    def test_simultaneous_at_zero(self):
        params = SystemParameters(d_c=1, d_n=1, delta_msg=1, delta_sched=0)
        sched = knob_schedule(42, 0, params)
        assert {t for _, t in sched.times} == {42}

    def test_explicit_arithmetic(self):
        params = SystemParameters(d_c=0, d_n=0, delta_msg=0, delta_sched=2)
        sched = knob_schedule(0, 5, params)
        assert sched.time_for_phase(1) == 0
        assert sched.time_for_phase(2) == 2
        assert sched.time_for_phase(3) == 9

    def test_negative_knob_rejected(self, testbed_params):
        with pytest.raises(ValueError):
            knob_schedule(0, -1, testbed_params)
