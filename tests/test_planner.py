import random

import pytest
from hypothesis import given, settings, strategies as st

from netupdate import (
    DELIVER,
    PertGraph,
    SingletonUpdate,
    SystemParameters,
    UpdateProcedure,
    build_pert_counts,
    build_pert_timed_counts,
    compare_timed_untimed,
    longest_path,
    timed_worst_duration,
    untimed_worst_duration,
    worst_case_schedule,
)

from conftest import DC_NS, DN_NS, DELTA_NS, DSCHED_NS, MS


def params(dc=DC_NS, dn=DN_NS, delta=DELTA_NS, dsched=DSCHED_NS):
    return SystemParameters(d_c=dc, d_n=dn, delta_msg=delta, delta_sched=dsched)


def synth_proc(counts, gc_phases=frozenset()):
    """Procedure with the given per-phase counts; gc phases are remove-mode."""
    items = []
    for j, n in enumerate(counts, start=1):
        for i in range(n):
            sw = f"S{j}_{i}"
            if j in gc_phases:
                items.append((SingletonUpdate.remove(sw, [("f", "A", 0)]), j))
            else:
                items.append((SingletonUpdate.install(sw, {("f", "B", 0): DELIVER}), j))
    return UpdateProcedure(tuple(items))


class TestLongestPath:
    def test_single_edge(self):
        g = PertGraph(("C_start", "C_fin"), (("C_start", "C_fin", 7),))
        rep = longest_path(g)
        assert rep.worst_case == 7
        assert rep.critical_path == ("C_start", "C_fin")

    def test_diamond_takes_heavier_branch(self):
        g = PertGraph(("C_start", "a", "b", "C_fin"),
                      (("C_start", "a", 3), ("a", "C_fin", 0),
                       ("C_start", "b", 5), ("b", "C_fin", 0)))
        rep = longest_path(g)
        assert rep.worst_case == 5
        assert "b" in rep.critical_path

    def test_cycle_detected(self):
        g = PertGraph(("C_start", "x", "C_fin"),
                      (("C_start", "x", 1), ("x", "x", 1), ("x", "C_fin", 1)))
        with pytest.raises(ValueError, match="cycle"):
            longest_path(g)

    def test_report_weight_matches_path(self):
        g = build_pert_counts([3, 2], params(), gc_phases=set())
        rep = longest_path(g)
        weights = {(u, v): w for u, v, w in g.edges}
        assert rep.worst_case == sum(
            weights[(a, b)] for a, b in zip(rep.critical_path, rep.critical_path[1:]))

    def test_random_dags_match_exhaustive_enumeration(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(2, 12)
            nodes = [f"n{i}" for i in range(n)]
            edges = [(nodes[i], nodes[i + 1], rng.randint(0, 10)) for i in range(n - 1)]
            for i in range(n):
                for j in range(i + 1, n):
                    if j > i + 1 and rng.random() < 0.3:
                        edges.append((nodes[i], nodes[j], rng.randint(0, 10)))
            g = PertGraph(tuple(nodes), tuple(edges))

            adj = {}
            for u, v, w in edges:
                adj.setdefault(u, []).append((v, w))

            def all_paths(u, acc):
                if u == nodes[-1]:
                    yield acc
                    return
                for v, w in adj.get(u, []):
                    yield from all_paths(v, acc + w)

            brute = max(all_paths(nodes[0], 0))
            assert longest_path(g, nodes[0], nodes[-1]).worst_case == brute


class TestClosedForms:
    def test_phase_single_message_is_dc(self):
        assert untimed_worst_duration([1], params()) == DC_NS

    def test_phase_examples_match_pert_oracle(self):
        p = params()
        for n, expect in [(3, 15_345_000), (12, 62_505_000)]:
            assert untimed_worst_duration([n], p) == expect
            assert longest_path(build_pert_counts([n], p)).worst_case == expect

    def test_phase_zero_rejected(self):
        with pytest.raises(ValueError):
            untimed_worst_duration([0], params())
        with pytest.raises(ValueError):
            timed_worst_duration([2, 0], params())

    def test_kphase_reduces_to_single_phase(self):
        p = params()
        assert untimed_worst_duration([4], p) == 3 * p.delta_msg + p.d_c

    def test_kphase_examples(self):
        assert untimed_worst_duration([3, 3], params()) == 31_065_000
        # delta below d_c exercises the other max() branch
        assert untimed_worst_duration([3, 3, 3], params(dc=10, dn=0, delta=1, dsched=0)) == 36

    def test_kphase_empty_rejected(self):
        with pytest.raises(ValueError):
            untimed_worst_duration([], params())
        with pytest.raises(ValueError):
            timed_worst_duration([], params())

    def test_gc_tail_max_branches(self):
        assert untimed_worst_duration([1, 1], params(dc=2, dn=3, delta=10), {2}) == 10 + 2
        assert untimed_worst_duration([1, 1], params(dc=2, dn=3, delta=0), {2}) == 2 + 3 + 2
        assert untimed_worst_duration([1, 12], params(), {2}) == 67_745_000

    def test_twophase_gc_examples(self):
        p0 = params(dc=7, dn=3, delta=0)
        assert untimed_worst_duration([1, 1, 1], p0, {3}) == 7 + (7 + 3) + 7
        assert untimed_worst_duration([12, 8, 12], params(), {3}) == 167_305_000
        assert untimed_worst_duration([3, 1, 3], params(dc=2, dn=5, delta=1), {3}) == 15

    def test_gc_at_phase_one_adds_no_wait(self):
        p = params()
        assert untimed_worst_duration([3, 2], p, {1}) == untimed_worst_duration([3, 2], p)
        assert timed_worst_duration([3, 2], p, {1}) == timed_worst_duration([3, 2], p)

    def test_timed_examples(self):
        assert timed_worst_duration([1, 1, 1], params()) == 3_891_000
        assert timed_worst_duration([1] * 5, params(dsched=0)) == 0
        assert timed_worst_duration([4, 4], params(dsched=5)) == 10
        assert timed_worst_duration([12, 8, 12], params(), {3}) == 4_153_000
        assert timed_worst_duration([1, 1, 1], params(dsched=0), {3}) == DN_NS
        assert timed_worst_duration([1, 1, 1], params(dn=0, dsched=1), {3}) == 3
        assert timed_worst_duration([1, 1, 1], params(dn=5, dsched=0), {2, 3}) == 10


class TestPertBuilders:
    def test_single_message_graph(self):
        rep = longest_path(build_pert_counts([1], params()))
        assert rep.worst_case == DC_NS
        assert rep.critical_path == ("C_start", "C[1,1]", "S[1,1]", "C_fin")

    def test_empty_procedure_rejected(self):
        with pytest.raises(ValueError):
            build_pert_counts([], params())
        with pytest.raises(ValueError):
            build_pert_counts([2, 0], params())

    def test_procedure_wrapper_uses_remove_phases(self):
        proc = synth_proc([3, 3, 3], gc_phases={3})
        p = params()
        graph = build_pert_counts(proc.phase_counts(), p, proc.gc_phases())
        assert (longest_path(graph).worst_case
                == untimed_worst_duration([3, 3, 3], p, {3}))

    def test_two_phase_matches_corollary(self):
        p = params()
        want = ((3 + 3 - 2) * p.delta_msg + max(p.delta_msg, p.d_c) + p.d_c)
        assert longest_path(build_pert_counts([3, 3], p)).worst_case == want


class TestWorstCaseSchedule:
    def test_two_phase_gc_times(self):
        proc = synth_proc([3, 1, 3], gc_phases={3})
        sched = worst_case_schedule(proc, 100 * MS, params())
        assert sched.time_for_phase(2) == 101_297_000
        assert sched.time_for_phase(3) == 102_856_000  # gc slot: T2 + dsched + dn

    def test_zero_sched_error_collapses_phases(self):
        proc = synth_proc([2, 2])
        sched = worst_case_schedule(proc, 50, params(dsched=0))
        assert sched.time_for_phase(2) == sched.time_for_phase(1) == 50

    def test_three_phases_spacing(self):
        proc = synth_proc([1, 1, 1])
        sched = worst_case_schedule(proc, 0, params(dsched=2))
        assert sched.time_for_phase(3) - sched.time_for_phase(1) == 4

    def test_defining_constraints_hold_when_substituted_back(self):
        rng = random.Random(7)
        for _ in range(50):
            k = rng.randint(1, 5)
            gc = {j for j in range(2, k + 1) if rng.random() < 0.3}
            proc = synth_proc([rng.randint(1, 4) for _ in range(k)], gc)
            p = params(dc=rng.randint(0, 10**7), dn=rng.randint(0, 10**7),
                       delta=rng.randint(0, 10**7), dsched=rng.randint(0, 10**7))
            sched = worst_case_schedule(proc, rng.randint(0, 10**9), p)
            times = dict(sched.times)
            for j in range(2, k + 1):
                if j in gc:
                    assert times[j] == times[j - 1] + p.delta_sched + p.d_n
                else:
                    assert times[j] == times[j - 1] + p.delta_sched


class TestCompareTimedUntimed:
    def test_sched_error_below_dc_always_wins(self):
        proc = synth_proc([3, 3, 3], gc_phases={3})
        out = compare_timed_untimed(proc, params())
        assert out.timed_wins and out.timed < out.untimed

    def test_boundary_equality_is_not_a_win(self):
        proc = synth_proc([1])
        p = params(dc=10, dn=0, delta=0, dsched=10)
        out = compare_timed_untimed(proc, p)
        assert out.timed == out.untimed == 10
        assert not out.timed_wins

    def test_untimed_wins_with_huge_sched_error(self):
        proc = synth_proc([1, 1, 1], gc_phases={3})
        p = params(dc=1 * MS, dn=1 * MS, delta=0, dsched=100 * MS)
        out = compare_timed_untimed(proc, p)
        # d_n + 3*dsched vs (0 + max(0, dc) + max(0, dc+dn) + dc)
        assert out.timed == 1 * MS + 300 * MS
        assert out.untimed == 1 * MS + 2 * MS + 1 * MS
        assert not out.timed_wins


# -- properties -------------------------------------------------------------

_param_st = st.builds(
    params,
    dc=st.integers(0, 10**7), dn=st.integers(0, 10**7),
    delta=st.integers(0, 10**7), dsched=st.integers(0, 10**7))


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(1, 10), min_size=1, max_size=5), p=_param_st,
       data=st.data())
def test_closed_forms_equal_pert_longest_path(counts, p, data):
    gc = data.draw(st.sets(st.integers(1, len(counts))), label="gc_phases")
    assert (untimed_worst_duration(counts, p, gc)
            == longest_path(build_pert_counts(counts, p, gc)).worst_case)
    assert (timed_worst_duration(counts, p, gc)
            == longest_path(build_pert_timed_counts(counts, p, gc)).worst_case)


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.integers(1, 10), min_size=1, max_size=5), p=_param_st)
def test_worst_case_monotonic_in_every_parameter(counts, p):
    base = untimed_worst_duration(counts, p)
    bumped = [
        untimed_worst_duration([n + 1 for n in counts], p),
        untimed_worst_duration(counts + [1], p),
        untimed_worst_duration(counts, params(p.d_c, p.d_n, p.delta_msg + 1, p.delta_sched)),
        untimed_worst_duration(counts, params(p.d_c + 1, p.d_n, p.delta_msg, p.delta_sched)),
    ]
    assert all(b >= base for b in bumped)
    t = timed_worst_duration(counts, p)
    assert timed_worst_duration(counts + [1], p) >= t
    assert timed_worst_duration(
        counts, params(p.d_c, p.d_n, p.delta_msg, p.delta_sched + 1)) >= t
    g = untimed_worst_duration([2, 2, 2], p, {3})
    assert untimed_worst_duration([2, 2, 2], params(p.d_c, p.d_n + 1, p.delta_msg,
                                                    p.delta_sched), {3}) >= g


@settings(max_examples=150, deadline=None)
@given(counts=st.lists(st.integers(1, 10), min_size=1, max_size=5),
       dc=st.integers(1, 10**7), dn=st.integers(0, 10**7),
       delta=st.integers(0, 10**7), frac=st.floats(0.0, 0.999),
       gc_seed=st.integers(0, 2**16))
def test_timed_dominates_when_sched_error_below_dc(counts, dc, dn, delta, frac, gc_seed):
    dsched = int(dc * frac)
    assert dsched < dc
    rng = random.Random(gc_seed)
    gc = {j for j in range(2, len(counts) + 1) if rng.random() < 0.4}
    proc = synth_proc(counts, gc)
    out = compare_timed_untimed(proc, params(dc=dc, dn=dn, delta=delta, dsched=dsched))
    assert out.timed_wins
