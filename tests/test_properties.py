"""The paper's theorems as properties of generated networks.

Each example is a connected network of 3-12 switches with constant or
capped-exponential link delays, and 1-5 flows on simple paths from ingress
switches, re-tagged by label_change_update. d_n is the largest path delay
bound over the flows, and delta_sched falls on either side of d_c. An
untimed greedy run and a run of the worst-case schedule must both be fault
free, forward no packet inconsistently, and finish within their closed form;
pinned to the worst case, each must equal it.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from netupdate import (
    DelayModel,
    Link,
    Network,
    SystemParameters,
    TestFlow,
    TimedUpdateProcedure,
    knob_schedule,
    measure_inconsistency,
    run_flows,
    run_timed,
    run_untimed,
    simultaneous_schedule,
    timed_worst_duration,
    untimed_worst_duration,
    worst_case_schedule,
)
from netupdate import simulator
from netupdate.topology import label_change_update, path_link_bound_ns

from oracles import predicted_inconsistency

_CONSTANT = st.integers(0, 100_000).map(DelayModel.constant)
_EXPONENTIAL = st.tuples(st.integers(1, 50_000), st.integers(1, 10)).map(
    lambda mk: DelayModel.exponential(mk[0], mk[0] * mk[1]))   # capped at 1-10 means


@st.composite
def networks(draw, delays=None):
    """(net, neighbours of each switch, ingress switches): a connected network
    of 3-12 switches whose links take ports 1, 2, ... and whose ingress
    switches have ingress port 0; each link's delay is drawn from delays,
    by default from one of _CONSTANT, _EXPONENTIAL or either per link."""
    n = draw(st.integers(3, 12))
    switches = [f"S{i}" for i in range(1, n + 1)]
    # a random spanning tree, then a few more edges
    edges = {tuple(sorted((switches[i], switches[draw(st.integers(0, i - 1))])))
             for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.sampled_from(switches), st.sampled_from(switches)),
                              max_size=n)):
        if a != b:
            edges.add(tuple(sorted((a, b))))
    if delays is None:
        delays = draw(st.sampled_from((_CONSTANT, _EXPONENTIAL, _CONSTANT | _EXPONENTIAL)))
    next_port = dict.fromkeys(switches, 1)   # port 0 is the ingress port
    links, neighbours = [], {s: [] for s in switches}
    for a, b in sorted(edges):
        links.append(Link((a, next_port[a]), (b, next_port[b]), draw(delays)))
        next_port[a] += 1
        next_port[b] += 1
        neighbours[a].append(b)
        neighbours[b].append(a)
    ingress = draw(st.lists(st.sampled_from(switches), min_size=1, max_size=n, unique=True))
    net = Network(tuple(switches), tuple(links), frozenset((s, 0) for s in ingress))
    return net, neighbours, ingress


@st.composite
def _cases(draw, delays=None, dn_below=False):
    """(net, flows with paths, params, seed, spacing divisor) of one example, on
    a network of networks(delays); d_n is the largest path delay bound, or under
    dn_below any d_n below it."""
    net, neighbours, ingress = draw(networks(delays))
    n = len(net.switches)
    pairs = []
    for i in range(draw(st.integers(1, 5))):
        path = [draw(st.sampled_from(ingress))]
        for _ in range(draw(st.integers(0, n - 1))):
            onward = [s for s in neighbours[path[-1]] if s not in path]
            if not onward:
                break
            path.append(draw(st.sampled_from(onward)))
        pairs.append((f"f{i}", path))

    d_c = draw(st.integers(1, 2_000_000))
    delta_sched = draw(st.one_of(st.integers(0, d_c - 1), st.integers(d_c, 3 * d_c)))
    d_n = max(path_link_bound_ns(net, path) for _, path in pairs)
    if dn_below:
        d_n = draw(st.integers(0, max(0, d_n - 1)))
    params = SystemParameters(
        d_c=d_c, d_n=d_n, delta_msg=draw(st.integers(0, 2_000_000)), delta_sched=delta_sched)
    return net, pairs, params, draw(st.integers(0, 2**32)), draw(st.integers(8, 400))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_cases())
def test_consistent_runs_stay_consistent_and_within_their_closed_forms(case):
    net, pairs, params, seed, per_window = case
    flows = [TestFlow(fid, path[0], 0, 1.0) for fid, path in pairs]
    initial, proc = label_change_update(net, list(zip(flows, (path for _, path in pairs))))
    counts, gc = proc.phase_counts(), proc.gc_phases()
    tproc = TimedUpdateProcedure(proc, worst_case_schedule(proc, 10**10, params))
    for run, worst in (
            (run_untimed(net, proc, params, seed=seed, initial_state=initial),
             untimed_worst_duration(counts, params, gc)),
            (run_timed(net, tproc, params, seed=seed, initial_state=initial),
             timed_worst_duration(counts, params, gc))):
        assert not run.faults, (run.mode, run.faults)
        assert run.update_duration_ns <= worst, run.mode
        # each flow injects about per_window packets over the worst case and its drains
        spacing = max(1, (worst + 2 * params.d_n) // per_window)
        rated = [f._replace(rate_pps=1e9 / spacing) for f in flows]
        run_flows(net, run, rated)
        for flow in rated:
            assert measure_inconsistency(run, flow).n_inconsistent == 0, (run.mode, flow)

    pinned = run_untimed(net, proc, params, seed=seed, initial_state=initial,
                         pin_worst_case=True)
    assert pinned.update_duration_ns == untimed_worst_duration(counts, params, gc)
    pinned = run_timed(net, tproc, params, seed=seed, initial_state=initial,
                       pin_worst_case=True)
    assert pinned.update_duration_ns == timed_worst_duration(counts, params, gc)


T1 = 10**10   # every schedule's first phase


def _mode_runs(net, proc, params, seed, initial, d):
    """The flows' update in each of the four modes: untimed greedy, and timed by
    the worst-case, the knob (d) and the simultaneous schedule."""
    yield run_untimed(net, proc, params, seed=seed, initial_state=initial)
    for schedule in (worst_case_schedule(proc, T1, params), knob_schedule(T1, d, params),
                     simultaneous_schedule(T1, proc.num_phases)):
        yield run_timed(net, TimedUpdateProcedure(proc, schedule), params, seed=seed,
                        initial_state=initial)


def _spacing(run, params, per_window):
    """About per_window packets over the run's update and its drains."""
    return max(1, (run.update_duration_ns + 2 * params.d_n) // per_window)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_cases(_CONSTANT, dn_below=True), d=st.integers(0, 3_000_000),
       wider=st.tuples(st.integers(1, 40), st.integers(0, 40)))
def test_widening_the_window_adds_no_inconsistent_packet(case, d, wider):
    """With d_n below the path bound, a packet entering before the default window
    is still consistent: its start covers each flow's path_link_bound_ns, which
    the walk through the old configuration finds, and widening it by whole
    spacings, so that every packet keeps its entry time, leaves I as it is."""
    net, pairs, params, seed, per_window = case
    flows = [TestFlow(fid, path[0], 0, 1.0) for fid, path in pairs]
    initial, proc = label_change_update(net, list(zip(flows, (path for _, path in pairs))))
    bounds = [path_link_bound_ns(net, path) for _, path in sorted(pairs)]
    for run in _mode_runs(net, proc, params, seed, initial, d):
        spacing = _spacing(run, params, per_window)
        rated = [f._replace(rate_pps=1e9 / spacing) for f in flows]
        with mock.patch.object(simulator, "default_flow_window",
                               wraps=simulator.default_flow_window) as window:
            run_flows(net, run, rated)
        assert [call.args[2] for call in window.call_args_list] == bounds
        for flow in rated:
            packets = run.flow_traces[flow.flow_id]
            counted = measure_inconsistency(run, flow).n_inconsistent
            t0, t1 = packets.t0, packets.t0 + len(packets) * spacing
            run_flows(net, run, [flow], window=(t0 - wider[0] * spacing, t1 + wider[1] * spacing))
            assert measure_inconsistency(run, flow).n_inconsistent == counted, (run.mode, flow)


def _path_delays(net, path, delay):
    """(s, D_s) along path, D_s the delay(link) of the links up to s summed."""
    total, delays = 0, [(path[0], 0)]
    for a, b in zip(path, path[1:]):
        total += delay(net.link_between(a, b).delay)
        delays.append((b, total))
    return delays


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=st.one_of(_cases(_CONSTANT), _cases(_CONSTANT, dn_below=True)),
       d=st.integers(0, 3_000_000), rates=st.lists(st.integers(1, 10**5), min_size=1, max_size=3))
def test_constant_delay_inconsistency_is_the_exec_log_formula(case, d, rates):
    """Under constant delays each flow's I is oracles.predicted_inconsistency's,
    within one spacing, in every mode, at every rate and d_n."""
    net, pairs, params, seed, per_window = case
    flows = [TestFlow(fid, path[0], 0, 1.0) for fid, path in pairs]
    initial, proc = label_change_update(net, list(zip(flows, (path for _, path in pairs))))
    for run in _mode_runs(net, proc, params, seed, initial, d):
        for per in rates:
            spacing = _spacing(run, params, per)
            rated = [f._replace(rate_pps=1e9 / spacing) for f in flows]
            run_flows(net, run, rated)
            for flow, (_, path) in zip(rated, pairs):
                walked = measure_inconsistency(run, flow).inconsistency_ns
                formula = predicted_inconsistency(
                    run.exec_log, _path_delays(net, path, lambda m: m.value))
                assert abs(walked - formula) < spacing, (run.mode, flow, walked, formula)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.one_of(_cases(), _cases(dn_below=True)), d=st.integers(0, 3_000_000))
def test_random_delay_inconsistency_stays_within_the_formula_at_the_bounds(case, d):
    """Under any delays a flow's I is at most oracles.predicted_inconsistency's
    with each D_s at its bound (at its least for the phase-1 term), rounded up
    to a whole spacing."""
    net, pairs, params, seed, per_window = case
    flows = [TestFlow(fid, path[0], 0, 1.0) for fid, path in pairs]
    initial, proc = label_change_update(net, list(zip(flows, (path for _, path in pairs))))
    for run in _mode_runs(net, proc, params, seed, initial, d):
        spacing = _spacing(run, params, per_window)
        rated = [f._replace(rate_pps=1e9 / spacing) for f in flows]
        run_flows(net, run, rated)
        for flow, (_, path) in zip(rated, pairs):
            walked = measure_inconsistency(run, flow).n_inconsistent
            formula = predicted_inconsistency(
                run.exec_log, _path_delays(net, path, lambda m: m.bound()),
                _path_delays(net, path, lambda m: m.value))
            assert walked <= -(-formula // spacing), (run.mode, flow, walked, formula)
