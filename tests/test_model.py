import logging
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from netupdate import (
    DELIVER,
    DROP,
    Action,
    DelayModel,
    ForwardingState,
    Link,
    Network,
    Schedule,
    SingletonUpdate,
    SystemParameters,
    TimedUpdateProcedure,
    UpdateProcedure,
)
from netupdate.config import Experiment
from netupdate.model import lookup_rule
from netupdate.simulator import StateTimeline
from netupdate.topology import leaf_spine, load_topology

from conftest import line_network

TOPOLOGIES = Path(__file__).resolve().parents[1] / "topologies"


def two_switch_net():
    return line_network([1000])


def proc_of(*items):
    return UpdateProcedure(tuple(items))


class TestSystemParameters:
    def test_accepts_zero(self):
        p = SystemParameters(0, 0, 0, 0)
        assert p.t_su is None

    @pytest.mark.parametrize("field", ["d_c", "d_n", "delta_msg", "delta_sched"])
    def test_rejects_negative(self, field):
        kwargs = dict(d_c=1, d_n=1, delta_msg=1, delta_sched=1)
        kwargs[field] = -1
        with pytest.raises(ValueError):
            SystemParameters(**kwargs)

    def test_rejects_negative_tsu(self):
        with pytest.raises(ValueError):
            SystemParameters(1, 1, 1, 1, t_su=-5)


class TestNetwork:
    def test_ports_collected_from_links_and_ingress(self):
        net = two_switch_net()
        assert net.ports["S1"] == {0, 2}
        assert net.ports["S2"] == {1}
        assert net.peer("S1", 2) == ("S2", 1, DelayModel.constant(1000))
        assert net.peer("S2", 1)[0] == "S1"

    def test_unknown_link_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown switch"):
            Network(("A",), (Link(("A", 1), ("B", 1), DelayModel.constant(0)),),
                    frozenset())

    def test_ingress_cannot_be_link_endpoint(self):
        with pytest.raises(ValueError, match="also a link endpoint"):
            Network(("A", "B"), (Link(("A", 1), ("B", 1), DelayModel.constant(0)),),
                    frozenset({("A", 1)}))

    def test_port_reuse_rejected(self):
        links = (Link(("A", 1), ("B", 1), DelayModel.constant(0)),
                 Link(("A", 1), ("C", 1), DelayModel.constant(0)))
        with pytest.raises(ValueError, match="more than one link"):
            Network(("A", "B", "C"), links, frozenset())


def _reference_network(switches, links, ingress_ports):
    """The per-link loop that Network's bulk build replaced: (peer map, ports),
    or its ValueError."""
    known = set(switches)
    if len(known) != len(switches):
        raise ValueError("duplicate switch ids")
    peer, ports = {}, {s: set() for s in switches}
    for link in links:
        for (sw, port), (psw, pport) in ((link.a, link.b), (link.b, link.a)):
            if sw not in known:
                raise ValueError(f"link endpoint references unknown switch {sw!r}")
            if (sw, port) in peer:
                raise ValueError(f"port ({sw!r}, {port}) used by more than one link")
            peer[(sw, port)] = (psw, pport, link.delay)
            ports[sw].add(port)
    for sw, port in ingress_ports:
        if sw not in known:
            raise ValueError(f"ingress port references unknown switch {sw!r}")
        if (sw, port) in peer:
            raise ValueError(f"ingress port ({sw!r}, {port}) is also a link endpoint")
        ports[sw].add(port)
    return peer, ports


@st.composite
def _net_cases(draw):
    """(switches, links, ingress ports): endpoints mostly on known switches and
    free ports, sometimes on "E" (never a switch), a reused port or a
    duplicate switch id."""
    switches = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 0:
        switches.append(switches[0])
    ends = st.tuples(st.sampled_from(switches * 10 + ["E"]), st.integers(0, 7))
    links = draw(st.lists(st.tuples(ends, ends, st.integers(0, 2)), max_size=6))
    ingress = draw(st.lists(ends, max_size=3))
    return (tuple(switches),
            tuple(Link(a, b, DelayModel.constant(d)) for a, b, d in links),
            frozenset(ingress))


def _link(a, b):
    return Link(a, b, DelayModel.constant(0))


class TestNetworkBulkBuild:
    """Network builds its maps in bulk; the per-link loop is its oracle."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(args=_net_cases())
    @example(args=(("A", "B", "A"), (), frozenset()))                          # duplicate id
    @example(args=(("A", "B"), (_link(("A", 1), ("E", 1)),), frozenset()))     # unknown end
    @example(args=(("A", "B"), (_link(("A", 1), ("B", 1)), _link(("B", 2), ("A", 1))),
                   frozenset()))                                                # port twice
    @example(args=(("A", "B"), (_link(("A", 1), ("A", 1)),), frozenset()))     # self-link
    @example(args=(("A", "B"), (_link(("A", 1), ("B", 1)),), frozenset({("B", 1)})))
    @example(args=(("A", "B"), (_link(("A", 1), ("B", 1)),), frozenset({("E", 0)})))
    def test_matches_per_link_loop(self, args):
        try:
            peer, ports = _reference_network(*args)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Network(*args)
            assert str(got.value) == str(exc)
            return
        net = Network(*args)
        assert net.ports == ports
        for sw, sw_ports in ports.items():
            for port in sw_ports | {4}:
                assert net.peer(sw, port) == peer.get((sw, port))


class TestLazyPeerMap:
    """The constructor checks links on their endpoints; the peer map waits for peer()."""

    def test_built_on_first_peer_call(self):
        net = leaf_spine(768)
        assert "_peer" not in vars(net)
        assert net.peer("leaf1", 2) == ("spine2", 1, DelayModel.constant(0))
        assert len(vars(net)["_peer"]) == 2 * len(net.links)

    @pytest.mark.parametrize("name", ["leaf_spine(12)", "netrail", "sprint", "compuserve"])
    def test_equals_the_eager_map(self, name):
        net = leaf_spine(12) if name == "leaf_spine(12)" else load_topology(
            TOPOLOGIES / f"{name}.json")
        peer, ports = _reference_network(net.switches, net.links, net.ingress_ports)
        assert net.ports == ports
        assert {end: net.peer(*end) for end in peer} == peer
        assert vars(net)["_peer"] == peer

    @pytest.mark.parametrize("n", [3, 12, 192])
    def test_lazy_fabric_equals_the_eager_network(self, n):
        net = leaf_spine(n)
        leaves = tuple(f"leaf{i}" for i in range(1, 2 * n // 3 + 1))
        spines = tuple(f"spine{j}" for j in range(1, n // 3 + 1))
        eager = Network(net.switches, net.links, net.ingress_ports)
        assert net.switches == eager.switches == leaves + spines
        assert net.ports == eager.ports
        assert net.ingress_ports == eager.ingress_ports == {(leaf, 0) for leaf in leaves}
        # leaf port j faces spine j, spine port i faces leaf i, leaf by leaf
        assert net.links == eager.links == tuple(
            Link((leaf, j), (spine, i), DelayModel.constant(0))
            for i, leaf in enumerate(leaves, 1) for j, spine in enumerate(spines, 1))
        for sw, ports in eager.ports.items():
            for port in ports:
                assert net.peer(sw, port) == eager.peer(sw, port)
        for leaf in leaves:
            for spine in spines:
                assert net.link_between(leaf, spine) == eager.link_between(spine, leaf)

    @pytest.mark.parametrize("mode", ["untimed-greedy", "timed-worst-case"])
    def test_flowless_runs_build_no_links(self, mode):
        doc = {"topology": {"kind": "leaf_spine", "n": 48},
               "procedure": {"kind": "two-phase+gc"}, "mode": mode,
               "params": {"dc": "4.865ms", "dn": "0.262ms",
                          "delta_msg": "5.24ms", "delta_sched": "1.297ms"}}
        point = Experiment(doc).materialize()
        point.plan()
        run, _ = point.run(0)
        assert "links" not in vars(point.net)
        assert not {"new_config", "messages"} & vars(run).keys()


class TestForwardingState:
    def test_lookup_miss_is_drop(self):
        net = two_switch_net()
        state = ForwardingState.empty(net)
        assert lookup_rule(state.tables["S1"], "f", None, 0) == DROP

    def test_exact_tag_beats_wildcard(self):
        net = two_switch_net()
        state = ForwardingState.from_dict(net, {"S1": {
            ("f", "A", 0): Action.forward(2),
            ("f", None, 0): DELIVER,
        }})
        assert lookup_rule(state.tables["S1"], "f", "A", 0) == Action.forward(2)
        assert lookup_rule(state.tables["S1"], "f", "B", 0) == DELIVER  # falls to wildcard
        assert lookup_rule(state.tables["S1"], "f", None, 0) == DELIVER

    def test_install_overrides_purely(self):
        net = two_switch_net()
        state = ForwardingState.from_dict(net, {"S1": {("f1", None, 0): Action.forward(3)}})
        u = SingletonUpdate.install("S1", {("f1", None, 0): Action.forward(2)})
        out = state.apply(u)
        assert lookup_rule(out.tables["S1"], "f1", None, 0) == Action.forward(2)
        # original untouched (pure function)
        assert lookup_rule(state.tables["S1"], "f1", None, 0) == Action.forward(3)

    def test_empty_update_is_identity(self):
        net = two_switch_net()
        state = ForwardingState.from_dict(net, {"S1": {("f", None, 0): DELIVER}})
        assert state.apply(SingletonUpdate.install("S1", {})) == state

    def test_remove_then_lookup_drops(self):
        net = two_switch_net()
        key = ("f", "A", 0)
        state = ForwardingState.from_dict(net, {"S1": {key: DELIVER}})
        out = state.apply(SingletonUpdate.remove("S1", [key]))
        assert lookup_rule(out.tables["S1"], "f", "A", 0) == DROP

    # apply is a silent no-op; a run's timeline is the fold that warns
    def test_remove_missing_is_warned_noop(self, caplog):
        net = two_switch_net()
        state = ForwardingState.empty(net)
        remove = SingletonUpdate.remove("S1", [("f", "A", 0)])
        with caplog.at_level(logging.WARNING, logger="netupdate.model"):
            out = state.apply(remove)
            assert out == state and caplog.records == []
            timeline = StateTimeline(net, state, [(0, remove)])
        assert timeline.tables["S1"] == [{}, {}]
        assert [r.getMessage() for r in caplog.records] == [
            "garbage collection: rule ('f', 'A', 0) already absent on S1"]

    def test_install_idempotent(self):
        net = two_switch_net()
        u = SingletonUpdate.install("S1", {("f", "A", 0): DELIVER})
        once = ForwardingState.empty(net).apply(u)
        assert once.apply(u) == once


# random small states and updates for the purity/idempotence properties
_keys = st.tuples(st.sampled_from(["f1", "f2"]),
                  st.sampled_from([None, "A", "B"]),
                  st.sampled_from([0, 1, 2]))
_actions = st.sampled_from([DROP, DELIVER, Action.forward(1), Action.forward(2),
                            Action.forward_tagged(1, "B")])
_tables = st.dictionaries(_keys, _actions, max_size=6)


@given(table=_tables, update_entries=_tables, mode=st.sampled_from(["install", "remove"]))
def test_apply_only_changes_update_domain(table, update_entries, mode):
    net = line_network([10])
    state = ForwardingState.from_dict(net, {"S1": table})
    if mode == "install":
        u = SingletonUpdate.install("S1", update_entries)
    else:
        u = SingletonUpdate.remove("S1", list(update_entries))
    out = state.apply(u)
    domain = {k for k, _ in u.entries}
    for key in set(table) | domain:
        flow, tag, port = key
        if key in domain:
            if mode == "install":
                assert out.tables["S1"][key] == update_entries[key]
            else:
                assert key not in out.tables["S1"]
        else:
            assert out.tables["S1"].get(key) == state.tables["S1"].get(key)
    # applying twice equals applying once
    assert out.apply(u) == out
    # exactly one action per lookup, always
    assert lookup_rule(out.tables["S1"], "f1", "A", 0) is not None


def _reference_fold(state, updates):
    """Oracle for apply: rebuild every table from scratch for each update.

    Returns the final tables and the expected "already absent" warnings.
    """
    tables = {s: dict(t) for s, t in state.tables.items()}
    warnings = []
    for u in updates:
        rebuilt = {s: dict(t) for s, t in tables.items()}
        table = rebuilt[u.target]
        for key, action in u.entries:
            if u.mode == "install":
                table = {k: v for k, v in table.items() if k != key} | {key: action}
            elif key in table:
                table = {k: v for k, v in table.items() if k != key}
            else:
                warnings.append(f"garbage collection: rule {key!r} already absent on {u.target}")
        rebuilt[u.target] = table
        tables = rebuilt
    return tables, warnings


_steps = st.lists(st.tuples(st.sampled_from(["S1", "S2", "S3"]),
                            st.sampled_from(["install", "remove"]), _tables), max_size=8)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rules=st.dictionaries(st.sampled_from(["S1", "S2", "S3"]), _tables), steps=_steps)
def test_apply_matches_reference_fold(rules, steps, caplog):
    net = line_network([10, 10])
    state = ForwardingState.from_dict(net, rules)
    before = {s: dict(t) for s, t in state.tables.items()}
    updates = [SingletonUpdate.install(sw, entries) if mode == "install"
               else SingletonUpdate.remove(sw, list(entries))
               for sw, mode, entries in steps]
    want, want_warnings = _reference_fold(state, updates)

    def stepwise():
        out = state
        for u in updates:
            out = out.apply(u)
        return out

    for fold in (lambda: state.apply(*updates), stepwise):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="netupdate.model"):
            out = fold()
        assert out.tables == want
        assert caplog.records == []   # the timeline warns, not apply (see below)
    assert state.tables == before


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rules=st.dictionaries(st.sampled_from(["S1", "S2", "S3"]), _tables), steps=_steps,
       times=st.lists(st.integers(0, 3), min_size=8, max_size=8))
def test_timeline_matches_the_whole_state_fold(rules, steps, times, caplog):
    """StateTimeline folds per switch; the whole-state fold through
    ForwardingState.apply, one update at a time, is its oracle: the same
    table at every version and instant. The timeline warns as the reference
    does; the fold warns of nothing."""
    net = line_network([10, 10])
    state = ForwardingState.from_dict(net, rules)
    updates = [SingletonUpdate.install(sw, entries) if mode == "install"
               else SingletonUpdate.remove(sw, list(entries))
               for sw, mode, entries in steps]
    execs = list(zip(sorted(times), updates))  # few distinct times: many are equal
    want, want_warnings = _reference_fold(state, updates)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="netupdate.model"):
        timeline = StateTimeline(net, state, execs)
        assert [r.getMessage() for r in caplog.records] == want_warnings
        folds = [state]
        for u in updates:
            folds.append(folds[-1].apply(u))
    assert folds[-1].tables == want
    assert [r.getMessage() for r in caplog.records] == want_warnings

    version = dict.fromkeys(net.switches, 0)
    for fold, u in zip(folds[1:], updates):
        version[u.target] += 1
        assert timeline.tables[u.target][version[u.target]] == fold.tables[u.target]
    assert {sw: len(versions) - 1 for sw, versions in timeline.tables.items()} == version
    assert timeline.times == {sw: [t for t, u in execs if u.target == sw] for sw in net.switches}
    for t in range(5):
        fold = folds[sum(1 for time_ns, _ in execs if time_ns <= t)]
        for sw in net.switches:
            in_force = sum(time_ns <= t for time_ns in timeline.times[sw])
            assert timeline.tables[sw][in_force] == fold.tables[sw]


def test_apply_is_copy_on_write():
    net = line_network([10, 10])
    key = ("f", "A", 0)
    state = ForwardingState.from_dict(net, {s: {key: DELIVER} for s in net.switches})
    out = state.apply(SingletonUpdate.install("S2", {key: Action.forward(2)}))
    assert out.tables["S1"] is state.tables["S1"]
    assert out.tables["S3"] is state.tables["S3"]
    assert out.tables["S2"] is not state.tables["S2"]
    assert lookup_rule(out.tables["S2"], "f", "A", 0) == Action.forward(2)
    with pytest.raises(ValueError, match="unknown switch"):
        state.apply(SingletonUpdate.remove("S2", [key]), SingletonUpdate.remove("S9", [key]))
    assert state.tables == {s: {key: DELIVER} for s in net.switches}


class TestUpdateProcedure:
    def test_requires_contiguous_nonempty_phases(self):
        u = SingletonUpdate.install("S1", {("f", None, 0): DELIVER})
        with pytest.raises(ValueError, match="contiguous"):
            proc_of((u, 1), (u, 3))
        with pytest.raises(ValueError, match="contiguous"):
            proc_of((u, 2))
        with pytest.raises(ValueError):
            UpdateProcedure(())

    def test_counts_and_gc_detection(self):
        a = SingletonUpdate.install("S1", {("f", "B", 0): DELIVER})
        b = SingletonUpdate.install("S2", {("f", "B", 1): DELIVER})
        g = SingletonUpdate.remove("S1", [("f", "A", 0)])
        proc = proc_of((a, 1), (b, 1), (a, 2), (g, 3))
        assert proc.phase_counts() == [2, 1, 1]
        assert proc.gc_phases() == frozenset({3})


def _gc_phases_per_phase(proc):
    """gc_phases' definition, one scan of the items per phase: the phases whose
    updates are all removes."""
    out = set()
    for j in range(1, proc.num_phases + 1):
        ups = [u for u, p in proc.items if p == j]
        if ups and all(u.mode == "remove" for u in ups):
            out.add(j)
    return frozenset(out)


@st.composite
def _procedures(draw):
    """A procedure of 1-6 phases, each all-remove, all-install or mixed, of 1-4
    updates (a mixed phase holds both modes), its items in a drawn order;
    and the phases drawn all-remove."""
    items, removes = [], set()
    for phase in range(1, draw(st.integers(1, 6)) + 1):
        kind = draw(st.sampled_from(("remove", "install", "mixed")))
        if kind == "mixed":
            modes = ["install", "remove"] + draw(st.lists(
                st.sampled_from(("install", "remove")), max_size=2))
        else:
            modes = [kind] * draw(st.integers(1, 4))
            if kind == "remove":
                removes.add(phase)
        for mode in modes:
            target = draw(st.sampled_from(("S1", "S2", "S3")))
            items.append((SingletonUpdate.install(target, {("f", "B", 0): DELIVER})
                          if mode == "install"
                          else SingletonUpdate.remove(target, [("f", "A", 0)]), phase))
    return UpdateProcedure(tuple(draw(st.permutations(items)))), frozenset(removes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_procedures())
def test_gc_phases_matches_the_per_phase_definition(case):
    proc, removes = case
    assert proc.gc_phases() == _gc_phases_per_phase(proc) == removes


class TestSchedule:
    def test_non_decreasing_enforced(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Schedule.build({1: 10, 2: 5})

    def test_equal_times_allowed(self):
        s = Schedule.build({1: 10, 2: 10, 3: 10})
        assert s.first_time() == s.last_time() == 10

    def test_one_sorted_map(self):
        s = Schedule.build({3: 9, 1: 0, 2: 2})
        assert s.times == ((1, 0), (2, 2), (3, 9))
        assert s.time_for_phase(3) == 9
        with pytest.raises(KeyError):
            s.time_for_phase(4)

    def test_timed_procedure_needs_full_coverage(self):
        u = SingletonUpdate.install("S1", {("f", None, 0): DELIVER})
        proc = proc_of((u, 1), (u, 2))
        with pytest.raises(ValueError, match="lacks times"):
            TimedUpdateProcedure(proc, Schedule.build({1: 0}))
