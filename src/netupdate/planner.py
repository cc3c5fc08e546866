"""Worst-case analysis of update procedures.

Two routes to every worst-case duration: an explicit PERT graph whose
longest path is the answer, and one closed form per execution mode
(untimed_worst_duration, timed_worst_duration) over the phase counts and
the garbage-collection phases. The closed forms are what the package
uses; the graph is their oracle, which they must match exactly (integer
arithmetic), and the test suite holds them to that.

Untimed graphs model a greedy controller: within a phase consecutive
message sends are at most delta_msg apart; after the last message of a
phase the controller waits max(delta_msg, d_c) before the next phase, or
max(delta_msg, d_c + d_n) when the next phase is garbage collection (the
en-route packets must drain first). Timed graphs chain scheduled phase
instants delta_sched apart (plus d_n in front of a garbage-collection
phase) with a delta_sched execution window per switch.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import SystemParameters, UpdateProcedure, validated

C_START = "C_start"
C_FIN = "C_fin"


@validated
class PertGraph(NamedTuple):
    """Weighted DAG of controller/switch events; edges are activities."""

    nodes: tuple
    edges: tuple  # (from, to, weight)

    def _validate(self):
        known = set(self.nodes)
        for u, v, w in self.edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if w < 0:
                raise ValueError("edge weights must be >= 0")

    def successors(self) -> dict:
        out = {n: [] for n in self.nodes}
        for u, v, w in self.edges:
            out[u].append((v, w))
        return out


class DurationReport(NamedTuple):
    worst_case: int
    critical_path: tuple


def longest_path(graph: PertGraph, source: str = C_START, sink: str = C_FIN) -> DurationReport:
    """Maximum-weight source-to-sink path by dynamic programming in topological order."""
    succ = graph.successors()
    indeg = {n: 0 for n in graph.nodes}
    for u, v, _ in graph.edges:
        indeg[v] += 1

    order = []
    ready = [n for n in graph.nodes if indeg[n] == 0]
    while ready:
        n = ready.pop()
        order.append(n)
        for v, _ in succ[n]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(order) != len(graph.nodes):
        raise ValueError("cycle detected in PERT graph")

    dist = {n: None for n in graph.nodes}
    prev = {}
    dist[source] = 0
    for u in order:
        if dist[u] is None:
            continue
        for v, w in succ[u]:
            cand = dist[u] + w
            if dist[v] is None or cand > dist[v]:
                dist[v] = cand
                prev[v] = u
    if dist[sink] is None:
        raise ValueError(f"{sink} not reachable from {source}")

    path = [sink]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return DurationReport(dist[sink], tuple(path))


def _phase_counts(phase_counts) -> list:
    """The per-phase update counts as a list; every phase needs an update."""
    counts = list(phase_counts)
    if not counts:
        raise ValueError("procedure must have at least one phase")
    if any(n < 1 for n in counts):
        raise ValueError("every phase must contain at least one update")
    return counts


def build_pert_counts(phase_counts, params: SystemParameters,
                      gc_phases=frozenset()) -> PertGraph:
    """Untimed greedy PERT graph from per-phase message counts.

    Nodes C[j,i] are message-send events, S[j,i] switch-completion events.
    The boundary into a garbage-collection phase waits for the network to
    drain, hence the d_n term in its weight.
    """
    counts = _phase_counts(phase_counts)
    gc_phases = frozenset(gc_phases)

    nodes = [C_START, C_FIN]
    edges = []
    for j, n_j in enumerate(counts, start=1):
        for i in range(1, n_j + 1):
            c, s = f"C[{j},{i}]", f"S[{j},{i}]"
            nodes += [c, s]
            edges.append((c, s, params.d_c))
            edges.append((s, C_FIN, 0))
            if i > 1:
                edges.append((f"C[{j},{i - 1}]", c, params.delta_msg))
        if j == 1:
            edges.append((C_START, "C[1,1]", 0))
        else:
            wait = max(params.delta_msg, params.d_c + params.d_n) if j in gc_phases \
                else max(params.delta_msg, params.d_c)
            edges.append((f"C[{j - 1},{counts[j - 2]}]", f"C[{j},1]", wait))
    return PertGraph(tuple(nodes), tuple(edges))


def build_pert_timed_counts(phase_counts, params: SystemParameters,
                            gc_phases=frozenset()) -> PertGraph:
    """Timed PERT graph: scheduled phase instants X[j] plus execution windows."""
    counts = _phase_counts(phase_counts)
    gc_phases = frozenset(gc_phases)

    nodes = [C_START, C_FIN]
    edges = []
    for j, n_j in enumerate(counts, start=1):
        x = f"X[{j}]"
        nodes.append(x)
        if j == 1:
            edges.append((C_START, x, 0))
        else:
            gap = params.delta_sched + (params.d_n if j in gc_phases else 0)
            edges.append((f"X[{j - 1}]", x, gap))
        for i in range(1, n_j + 1):
            s = f"S[{j},{i}]"
            nodes.append(s)
            edges.append((x, s, params.delta_sched))
            edges.append((s, C_FIN, 0))
    return PertGraph(tuple(nodes), tuple(edges))


# ---------------------------------------------------------------------------
# closed forms


def untimed_worst_duration(phase_counts, params: SystemParameters,
                           gc_phases=frozenset()) -> int:
    """Worst case of an untimed greedy procedure with N_j updates in phase j:

        sum_j (N_j - 1) * delta_msg
        + sum_{j=2..k} max(delta_msg, d_c + [j in gc] * d_n)
        + d_c

    the message gaps, one wait per phase boundary (a garbage-collection
    phase also waits for the network to drain) and the last message's d_c.
    """
    counts = _phase_counts(phase_counts)
    waits = sum(max(params.delta_msg, params.d_c + (params.d_n if j in gc_phases else 0))
                for j in range(2, len(counts) + 1))
    return sum(n - 1 for n in counts) * params.delta_msg + waits + params.d_c


def timed_worst_duration(phase_counts, params: SystemParameters,
                         gc_phases=frozenset()) -> int:
    """Worst case of a timed k-phase procedure under its worst-case schedule:
    k * delta_sched, plus d_n in front of every garbage-collection phase
    other than phase 1."""
    k = len(_phase_counts(phase_counts))
    return k * params.delta_sched + params.d_n * len(set(gc_phases) & set(range(2, k + 1)))


class TimedUntimedComparison(NamedTuple):
    timed: int
    untimed: int
    timed_wins: bool


def compare_timed_untimed(proc: UpdateProcedure, params: SystemParameters,
                          gc_phases=None) -> TimedUntimedComparison:
    """Worst-case durations of similar timed and untimed procedures.

    timed_wins is strict: equal durations do not count as a win. Whenever
    delta_sched < d_c the timed variant wins for every procedure shape.
    """
    gc_phases = proc.gc_phases() if gc_phases is None else gc_phases
    counts = proc.phase_counts()
    untimed = untimed_worst_duration(counts, params, gc_phases)
    timed = timed_worst_duration(counts, params, gc_phases)
    return TimedUntimedComparison(timed, untimed, timed < untimed)
