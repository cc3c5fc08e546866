"""Run one netupdate CLI command in-process with a span around every layer call.

Usage: python3 traced_cli.py <report.json> <netupdate CLI arguments...>

Wrappers replace the package's public functions where they are looked up
at call time (config and cli import several of them by name), then
`cli.main` runs exactly the path of the untraced command. Spans stay in
memory; at exit the report gets each layer's self time (a span's duration
minus the part its child spans cover) and exact work counts.
"""

import json
import sys
import time
from collections import Counter

from netupdate import cli, config, consistency, planner, stats, topology
from netupdate.delays import DelayModel

ROOT = "cli.main"
TRACER = "tracer"   # bookkeeping done inside the traced process, charged to no layer


class Tracer:
    """In-memory spans and counts of one traced command."""

    def __init__(self):
        self.spans = []        # [layer, parent index, start ns, end ns]
        self.stack = []
        self.counts = Counter()
        self.missing = []      # wrap sites absent from this version of the package

    def call(self, layer, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        rec = [layer, stack[-1] if stack else -1, 0, 0]
        stack.append(len(spans))
        spans.append(rec)
        rec[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, owner, name, layer, after=None):
        """Span in `layer` around each call of owner.name; then after(result, args), if given."""
        fn = getattr(owner, name, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        call = self.call

        def traced(*args, **kwargs):
            result = call(layer, fn, args, kwargs)
            if after is not None:
                call(TRACER, after, (result, args), {})
            return result

        setattr(owner, name, traced)

    def count(self, owner, name, key, after=None):
        """Count calls of owner.name under `key`, without a span."""
        fn = getattr(owner, name, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, name, counted)

    def self_times(self) -> Counter:
        """Seconds of self time per layer."""
        own = [end - start for _, _, start, end in self.spans]
        for (_, parent, start, end) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = Counter()
        for (layer, _, _, _), ns in zip(self.spans, own):
            out[layer] += ns / 1e9
        return out


def install(t: Tracer) -> None:
    counts = t.counts

    def links(net, args):
        counts["topology.links"] += len(net.links)

    def pert_edges(graph, args):
        counts["planner.pert_edges"] += len(graph.edges)

    def control(run, args):
        counts["simulator.execs"] += len(run.exec_log)
        for fault in run.faults:
            counts[f"simulator.faults.{fault.kind}"] += 1

    def data(_, args):
        for traces in args[1].flow_traces.values():
            for trace in traces:
                counts["simulator.packets"] += 1
                counts["simulator.hops"] += len(trace.hops)
                counts["simulator.truncated"] += trace.truncated
                counts["simulator.stranded"] += trace.stranded
                counts["simulator.dropped"] += not (trace.delivered or trace.truncated
                                                    or trace.stranded)

    def inconsistency(report, args):
        run, flow = args
        counts["consistency.inconsistent"] += report.n_inconsistent
        counts["consistency.packets"] += len(run.flow_traces[flow.flow_id])

    def samples(trace, args):
        counts["stats.samples"] += len(trace.samples)

    t.wrap(config.Experiment, "materialize", "config.materialize")
    for name in ("leaf_spine", "load_topology"):
        t.wrap(topology, name, "topology.build", links)
    for name in ("label_change_update", "policy_update", "policy_initial_state",
                 "path_link_bound_ns"):
        t.wrap(topology, name, "topology.build")
    t.wrap(config.Point, "plan", "planner.plan")
    for name in ("build_pert_untimed", "build_pert_timed"):
        t.count(planner, name, "planner.pert_graphs", pert_edges)
    for name in ("run_timed", "run_untimed"):
        t.wrap(config, name, "simulator.control", control)
    t.wrap(config, "run_flows", "simulator.data", data)
    t.count(DelayModel, "sample", "delays.samples")
    t.wrap(consistency, "measure_inconsistency", "consistency.classify", inconsistency)
    t.count(consistency, "classify_packet", "consistency.classify_calls")
    t.count(cli, "classify_packet", "consistency.classify_calls")
    t.wrap(cli, "classify_packet", "consistency.classify")
    for name in ("cmd_plan", "cmd_simulate", "cmd_sweep", "cmd_analyze_trace"):
        t.wrap(cli, name, "cli.write")
    t.wrap(stats, "read_trace", "stats.read", samples)
    for name in ("percentile", "mean"):
        t.wrap(stats, name, "stats.percentile")


def main(argv) -> int:
    report_path, cli_args = argv[0], argv[1:]
    t = Tracer()
    install(t)
    code = t.call(ROOT, cli.main, (cli_args,), {})
    root = t.spans[0]
    report = {
        "exit": code,
        "inproc_s": (root[3] - root[2]) / 1e9,
        "self_s": dict(t.self_times()),
        "counts": dict(t.counts),
        "spans": len(t.spans),
        "missing": t.missing,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
