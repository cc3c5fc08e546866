"""The paper's theorems as properties of generated networks.

Each example is a connected network of 3-12 switches with constant or
capped-exponential link delays, and 1-5 flows on simple paths from ingress
switches, re-tagged by label_change_update. d_n is the largest path delay
bound over the flows, and delta_sched falls on either side of d_c. An
untimed greedy run and a run of the worst-case schedule must both be fault
free, forward no packet inconsistently, and finish within their closed form;
pinned to the worst case, each must equal it.
"""

from hypothesis import given, settings, strategies as st

from netupdate import (
    DelayModel,
    Link,
    Network,
    SystemParameters,
    TestFlow,
    TimedUpdateProcedure,
    measure_inconsistency,
    run_flows,
    run_timed,
    run_untimed,
    timed_worst_duration,
    untimed_worst_duration,
    worst_case_schedule,
)
from netupdate.topology import label_change_update, path_link_bound_ns

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
def _cases(draw):
    """(net, flows with paths, params, seed, spacing divisor) of one example."""
    net, neighbours, ingress = draw(networks())
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
    params = SystemParameters(
        d_c=d_c, d_n=max(path_link_bound_ns(net, path) for _, path in pairs),
        delta_msg=draw(st.integers(0, 2_000_000)), delta_sched=delta_sched)
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
