"""Command-line experiment harness.

Subcommands:
  plan           worst-case durations (timed and untimed) per sweep point
  simulate       one simulated run with flows, inconsistency CSV, message log
  sweep          simulated durations across seeds vs. the planned worst case
  analyze-trace  percentile / tail-ratio analysis of a delay trace file

Every CSV starts with a metadata comment line recording the effective
config hash, the seed list and the engine version, then a header row.
Outputs are byte-identical across repeated invocations with the same
config and seeds.

Exit codes: 0 success (recorded simulation faults are data, not failure),
2 configuration error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import partial
from pathlib import Path

from . import stats
from .config import ConfigError, Experiment, config_hash, parse_duration
from .simulator import ENGINE_VERSION

EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _meta_line(cfg_hash: str, seeds) -> str:
    return (f"# config={cfg_hash} seeds={','.join(str(s) for s in seeds)} "
            f"engine={ENGINE_VERSION}")


def _write_text(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _axis_cell(value) -> str:
    if isinstance(value, str):
        return str(parse_duration(value, "sweep.grid"))
    return str(value)


def cmd_plan(exp: Experiment, out: Path) -> int:
    lines = [_meta_line(exp.hash, exp.seeds),
             "axis_value,untimed_worst_ns,timed_worst_ns,timed_wins"]
    for axis_value, point in exp.points():
        untimed, timed, wins = point.plan()
        cell = _axis_cell(axis_value) if axis_value is not None else "-"
        lines.append(f"{cell},{untimed},{timed},{'true' if wins else 'false'}")
    _write_text(out / "plan.csv", lines)
    print(f"wrote {out / 'plan.csv'}")
    return 0


PACKET_BLOCK = 1024  # packets formatted per write when streaming run.json
_JSON_BOOL = ("false", "true")


def _run_header(run, exp_hash: str) -> dict:
    """run.json's fields other than "flows"."""
    p = run.params
    return {
        "meta": {"config": exp_hash, "engine": ENGINE_VERSION, "seed": run.seed,
                 "mode": run.mode,
                 "params_ns": {"dc": p.d_c, "dn": p.d_n, "delta_msg": p.delta_msg,
                               "delta_sched": p.delta_sched, "tsu": p.t_su}},
        "first_send_ns": run.first_send_ns,
        "first_exec_ns": run.first_exec_ns,
        "last_exec_ns": run.last_exec_ns,
        "update_duration_ns": run.update_duration_ns,
        "faults": [f._asdict() for f in run.faults],
    }


def _flow_summary(rep, packets) -> dict:
    """One flow's fields in run.json other than "packets"."""
    return {
        "n_inconsistent": rep.n_inconsistent,
        "rate_pps": rep.rate_pps,
        "inconsistency_ns": rep.inconsistency_ns,
        "dropped": int(packets.dropped.sum()),
        "truncated": int(packets.truncated.sum()),
        "stranded": int(packets.stranded.sum()),
    }


def _run_to_dict(run, exp_hash: str, reports) -> dict:
    """run.json as one document with a dict per packet: the oracle of _write_run."""
    flows = {}
    for rep in reports:
        packets = run.flow_traces[rep.flow_id]
        flows[rep.flow_id] = {
            **_flow_summary(rep, packets),
            "packets": [
                {"t_in": t_in, "result": result, "hops": hops, "delivered": delivered}
                for t_in, result, hops, delivered in zip(
                    packets.t_in.tolist(), rep.classes, packets.hops.tolist(),
                    packets.delivered.tolist(), strict=True)],
        }
    return {**_run_header(run, exp_hash), "flows": flows}


def _write_object(fh, fields: dict, level: int) -> None:
    """Write fields as json.dump(indent=2, sort_keys=True) lays out an object
    nested `level` deep. A callable value writes itself, given its level."""
    if not fields:
        fh.write("{}")
        return
    pad = "\n" + "  " * (level + 1)
    for i, key in enumerate(sorted(fields)):
        # json writes a non-string key as the text of its JSON value
        name = json.dumps(key if isinstance(key, str) else json.dumps(key))
        fh.write(("," if i else "{") + f"{pad}{name}: ")
        value = fields[key]
        if callable(value):
            value(level + 1)
        else:
            # a JSON string never holds a raw newline, so this only re-indents
            fh.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", pad))
    fh.write("\n" + "  " * level + "}")


def _write_packets(fh, packets, classes, level: int) -> None:
    """One flow's packet list, formatted from the walk's arrays PACKET_BLOCK
    packets per write, keys in sorted order."""
    if not len(packets.t_in):
        fh.write("[]")
        return
    pad = "\n" + "  " * (level + 1)
    key = pad + "  "
    result = {c: json.dumps(c) for c in set(classes)}
    fh.write("[")
    for start in range(0, len(packets.t_in), PACKET_BLOCK):
        stop = start + PACKET_BLOCK
        block = ",".join(
            f'{pad}{{{key}"delivered": {_JSON_BOOL[delivered]},{key}"hops": {hops},'
            f'{key}"result": {result[cls]},{key}"t_in": {t_in}{pad}}}'
            for delivered, hops, cls, t_in in zip(
                packets.delivered[start:stop].tolist(), packets.hops[start:stop].tolist(),
                classes[start:stop], packets.t_in[start:stop].tolist(), strict=True))
        fh.write(f",{block}" if start else block)
    fh.write("\n" + "  " * level + "]")


def _write_run(fh, run, exp_hash: str, reports) -> None:
    """Stream run.json to fh, byte-equal to json.dump(_run_to_dict(...), fh,
    indent=2, sort_keys=True), without a dict per packet or the whole text."""
    def write_flow(rep, level):
        packets = run.flow_traces[rep.flow_id]
        _write_object(fh, {**_flow_summary(rep, packets),
                           "packets": partial(_write_packets, fh, packets, rep.classes)},
                      level)

    flows = {rep.flow_id: partial(write_flow, rep) for rep in reports}
    _write_object(fh, {**_run_header(run, exp_hash),
                       "flows": partial(_write_object, fh, flows)}, 0)


def cmd_simulate(exp: Experiment, out: Path) -> int:
    seed = exp.seeds[0]
    # a simulate on a sweep config runs its first grid point
    axis_value, point = next(exp.points())
    if axis_value is not None:
        print(f"simulating single point {exp.axis}={axis_value}")
    run, reports = point.run(seed)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "run.json", "w", newline="\n") as fh:
        _write_run(fh, run, exp.hash, reports)
        fh.write("\n")

    lines = [_meta_line(exp.hash, [seed]),
             "flow_id,n_inconsistent,rate_pps,inconsistency_ns"]
    lines += [rep.csv_row() for rep in reports]
    _write_text(out / "inconsistency.csv", lines)
    _write_text(out / "messages.log", [m.format() for m in run.messages])
    print(f"wrote {out / 'run.json'} ({len(run.faults)} faults, "
          f"{len(reports)} flows)")
    return 0


def cmd_sweep(exp: Experiment, out: Path) -> int:
    dur_lines = [_meta_line(exp.hash, exp.seeds),
                 "axis_value,mode,seed_count,sim_mean_ns,sim_min_ns,sim_max_ns,plan_worst_ns"]
    inc_lines = [_meta_line(exp.hash, exp.seeds),
                 "axis_value,flow_id,seed_count,i_mean_ns,i_min_ns,i_max_ns"]
    have_flows = False
    for axis_value, point in exp.points():
        cell = _axis_cell(axis_value) if axis_value is not None else "-"
        untimed_worst, timed_worst, _ = point.plan()
        plan_worst = untimed_worst if point.mode == "untimed-greedy" else timed_worst
        durations = []
        inconsistency = {}
        for seed in exp.seeds:
            run, reports = point.run(seed)
            durations.append(run.update_duration_ns)
            for rep in reports:
                inconsistency.setdefault(rep.flow_id, []).append(rep.inconsistency_ns)
        mean = round(sum(durations) / len(durations))
        dur_lines.append(f"{cell},{point.mode},{len(durations)},{mean},"
                         f"{min(durations)},{max(durations)},{plan_worst}")
        for flow_id in sorted(inconsistency):
            vals = inconsistency[flow_id]
            have_flows = True
            inc_lines.append(f"{cell},{flow_id},{len(vals)},"
                             f"{round(sum(vals) / len(vals))},{min(vals)},{max(vals)}")
    _write_text(out / "sweep.csv", dur_lines)
    if have_flows:
        _write_text(out / "inconsistency_sweep.csv", inc_lines)
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_analyze_trace(trace_path: str, percentiles, out: Path) -> int:
    try:
        trace = stats.read_trace(trace_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"trace: {exc}") from None
    mean = stats.mean(trace)
    meta = {"trace": str(trace_path), "percentiles": list(percentiles)}
    lines = [_meta_line(config_hash(meta), []),
             "label,p,percentile_ns,mean_ns,ratio"]
    for p, value in zip(percentiles, stats.percentiles(trace, percentiles)):
        lines.append(f"{trace.label},{p:g},{value},{mean:.3f},{value / mean:.6f}")
    _write_text(out / "trace_stats.csv", lines)
    print(f"wrote {out / 'trace_stats.csv'}")
    return 0


def _parse_seeds(text: str):
    try:
        return [int(s) for s in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"--seeds: cannot parse {text!r}") from None


def _parse_percentiles(text: str):
    try:
        values = [float(p) for p in text.split(",") if p]
    except ValueError:
        raise ConfigError(f"--percentiles: cannot parse {text!r}") from None
    if not values or any(not 0 < p <= 1 for p in values):
        raise ConfigError("--percentiles: fractions must be in (0, 1]")
    return values


def _parse_grid(text: str):
    values = []
    for tok in text.replace(",", " ").split():
        try:
            values.append(int(tok))
        except ValueError:
            values.append(tok)  # duration string; validated at materialization
    if not values:
        raise ConfigError("--grid: at least one value required")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netupdate",
        description="Plan and simulate consistent network updates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seeds", help="override seed list, e.g. '0,1,2'")
        p.add_argument("--axis", help="override sweep axis")
        p.add_argument("--grid", help="override sweep grid, e.g. '6,12,24'")

    add_common(sub.add_parser("plan", help="closed-form worst cases per sweep point"))
    add_common(sub.add_parser("simulate", help="one seeded run with flows"))
    add_common(sub.add_parser("sweep", help="simulated durations across seeds"))

    pa = sub.add_parser("analyze-trace", help="percentile analysis of a delay trace")
    pa.add_argument("trace", help="trace file: one milliseconds value per line")
    pa.add_argument("--percentiles", default="0.999,0.9999,0.99999",
                    help="comma-separated fractions in (0, 1]")
    pa.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.command == "analyze-trace":
            return cmd_analyze_trace(args.trace, _parse_percentiles(args.percentiles), out)
        exp = Experiment.load(args.config,
                              seeds=_parse_seeds(args.seeds) if args.seeds else None,
                              axis=args.axis,
                              grid=_parse_grid(args.grid) if args.grid else None)
        if args.command == "plan":
            return cmd_plan(exp, out)
        if args.command == "simulate":
            return cmd_simulate(exp, out)
        if args.command == "sweep":
            return cmd_sweep(exp, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - surfaced as invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    # What the imports built lives until exit; freezing it spares every
    # collection, the one at exit included, a rescan of it. Only the process
    # entry freezes: tests and tracers call main() in a process they go on
    # using, and a freeze would outlive the call.
    gc.freeze()
    sys.exit(main())
