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
import math
import sys
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

from .model import ENGINE_VERSION, ConfigError, config_hash, parse_duration

if TYPE_CHECKING:
    from .config import Experiment

EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _meta_line(cfg_hash: str, seeds) -> str:
    return (f"# config={cfg_hash} seeds={','.join(str(s) for s in seeds)} "
            f"engine={ENGINE_VERSION}")


def _write_text(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _axis_cell(axis, value) -> str:
    """A sweep point's axis value as the point ran it: ns for a duration axis."""
    if axis is None:
        return "-"
    return str(value) if axis == "N" else str(parse_duration(value, "sweep.grid"))


def cmd_plan(exp: Experiment, out: Path) -> int:
    lines = [_meta_line(exp.hash, exp.seeds),
             "axis_value,untimed_worst_ns,timed_worst_ns,timed_wins"]
    for axis_value, point in exp.points():
        untimed, timed, wins = point.plan()
        lines.append(f"{_axis_cell(exp.axis, axis_value)},{untimed},{timed},"
                     f"{'true' if wins else 'false'}")
    _write_text(out / "plan.csv", lines)
    print(f"wrote {out / 'plan.csv'}")
    return 0


PACKET_BLOCK = 1024  # most packets of one run formatted per write when streaming run.json
_PAD, _KEY = "\n" + " " * 8, "\n" + " " * 10  # a packet's and its keys' indent
_SEP = _PAD + "},"   # what closes a packet before the next


def _run_doc(run, exp_hash: str, reports) -> dict:
    """run.json with each flow's "packets" NaN, a value no other field can take."""
    from .simulator import END_KINDS

    flows = {}
    for rep in reports:
        packets = run.flow_traces[rep.flow_id]
        flows[rep.flow_id] = {
            "n_inconsistent": rep.n_inconsistent,
            "rate_pps": rep.rate_pps,
            "inconsistency_ns": rep.inconsistency_ns,
            # "dropped", "stranded" and "truncated"
            **{kind: sum(count for count, _, end, _ in packets.runs if end == k)
               for k, kind in enumerate(END_KINDS) if k},
            "packets": float("nan"),
        }
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
        "flows": flows,
    }


def _write_run(fh, run, exp_hash: str, reports) -> None:
    """Stream run.json to fh, byte-equal to json.dumps(indent=2, sort_keys=True) of
    tests/oracles.py's run_to_dict, without a dict per packet or the whole text:
    json's text of _run_doc, split at its "packets" (a quote in a JSON string is
    written \\"), each gap filled in json's sorted flow order, a run's packets up to
    PACKET_BLOCK per write, each one head (its text up to its t_in value, built once
    a flow per (hops, end, agrees)) joined over their t_in."""
    from .consistency import CLASS_OF_AGREES

    head, *tails = json.dumps(_run_doc(run, exp_hash, reports), indent=2,
                              sort_keys=True).split('"packets": NaN')
    fh.write(head)
    for rep, tail in zip(sorted(reports, key=lambda r: r.flow_id), tails, strict=True):
        packets = run.flow_traces[rep.flow_id]
        fh.write('"packets": [')
        t_in, sep, heads = map(str, packets.t_in), "", {}
        for count, hops, end, code in packets.runs:
            if (key := (hops, end, code)) not in heads:
                head = (f'{_PAD}{{{_KEY}"delivered": {"false" if end else "true"},{_KEY}"hops": '
                        f'{hops},{_KEY}"result": "{CLASS_OF_AGREES[code]}",{_KEY}"t_in": ')
                heads[key] = head, _SEP + head   # and the joiner of its packets' t_in
            head, joiner = heads[key]
            for left in range(count, 0, -PACKET_BLOCK):   # the run's packets not yet written
                fh.write(sep)
                fh.write(head)
                fh.write(joiner.join(islice(t_in, min(left, PACKET_BLOCK))))
                sep = _SEP
        fh.write((_PAD + "}\n      ]" if len(packets) else "]") + tail)


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

    _write_text(out / "inconsistency.csv", [
        _meta_line(exp.hash, [seed]), "flow_id,n_inconsistent,rate_pps,inconsistency_ns",
        *(rep.csv_row() for rep in reports)])
    _write_text(out / "messages.log", [m.format() for m in run.messages])
    print(f"wrote {out / 'run.json'} ({len(run.faults)} faults, {len(reports)} flows)")
    return 0


def _mean_ns(values) -> int:
    """The exact mean of the ints, rounded half to even, at any magnitude."""
    q, r = divmod(sum(values), len(values))
    return q + (2 * r + (q & 1) > len(values))


def cmd_sweep(exp: Experiment, out: Path) -> int:
    dur_lines = [_meta_line(exp.hash, exp.seeds),
                 "axis_value,mode,seed_count,sim_mean_ns,sim_min_ns,sim_max_ns,plan_worst_ns"]
    inc_lines = [_meta_line(exp.hash, exp.seeds),
                 "axis_value,flow_id,seed_count,i_mean_ns,i_min_ns,i_max_ns"]
    for axis_value, point in exp.points():
        cell = _axis_cell(exp.axis, axis_value)
        plan_worst = point.worst_ns()
        durations = []
        inconsistency = {}
        for seed in exp.seeds:
            run, reports = point.run(seed)
            durations.append(run.update_duration_ns)
            for rep in reports:
                inconsistency.setdefault(rep.flow_id, []).append(rep.inconsistency_ns)
        dur_lines.append(f"{cell},{exp.mode},{len(durations)},{_mean_ns(durations)},"
                         f"{min(durations)},{max(durations)},{plan_worst}")
        for flow_id, vals in sorted(inconsistency.items()):
            inc_lines.append(f"{cell},{flow_id},{len(vals)},"
                             f"{_mean_ns(vals)},{min(vals)},{max(vals)}")
    _write_text(out / "sweep.csv", dur_lines)
    if len(inc_lines) > 2:  # a row past the meta line and the header
        _write_text(out / "inconsistency_sweep.csv", inc_lines)
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_analyze_trace(trace_path: str, percentiles, out: Path) -> int:
    from . import stats

    try:
        trace = stats.read_trace(trace_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"trace: {exc}") from None
    try:
        mean, values = stats.mean_and_percentiles(trace, percentiles)
    except ValueError as exc:   # only a zero mean can fail here: samples exist, ps are valid
        raise ConfigError(f"trace: {trace_path}: {exc}") from None
    meta = {"trace": str(trace_path), "percentiles": list(percentiles)}
    lines = [_meta_line(config_hash(meta), []),
             "label,p,percentile_ns,mean_ns,ratio"]
    for p, value in zip(percentiles, values):
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


def _grid_value(tok: str):
    """tok as the config's JSON grid would hold it: an int, another finite
    number, or else a string (a duration with a unit, read at materialization)."""
    for number in (int, float):
        try:
            value = number(tok)
        except ValueError:
            continue
        if math.isfinite(value):
            return value
    return tok


def _parse_grid(text: str):
    values = [_grid_value(tok) for tok in text.replace(",", " ").split()]
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
    """Run the command argv names; its exit code. Each layer imports what it
    uses, so a command loads only its own; the heap stays unfrozen, since
    tests and tracers call main() in a process that goes on."""
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.command == "analyze-trace":
            return cmd_analyze_trace(args.trace, _parse_percentiles(args.percentiles), out)
        from .config import Experiment

        exp = Experiment.load(args.config,
                              seeds=None if args.seeds is None else _parse_seeds(args.seeds),
                              axis=args.axis,
                              grid=None if args.grid is None else _parse_grid(args.grid))
        command = {"plan": cmd_plan, "simulate": cmd_simulate, "sweep": cmd_sweep}[args.command]
        return command(exp, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - surfaced as invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> int:
    """main() as the process entry, of `python -m netupdate.cli` and of the
    installed script. Once the command is done it freezes the heap, so the
    collection at interpreter exit has nothing to rescan."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
