"""Benchmark of the netupdate CLI: end-to-end metrics, or a traced per-layer split.

Usage, from the repository root:

    python3 benchmarks/bench.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

The workload's inputs are generated from --seed into .bench_work/. Every
command runs as `python3 -m netupdate.cli ...` in a fresh single-threaded
child process, one child at a time. The outputs of every command are
checked (see workloads.py); a row that fails a check is a failed operation.

Times are in reference seconds. Before and after every timed child, the
fixed reference task (reference_task.py) runs in a fresh interpreter; a
time is scaled by REFERENCE_S over the mean of those two reference times.
That cancels the drift of a shared host's core speed, which reaches 2x
over minutes and moves raw medians by more than any useful bound. The
raw medians are printed too.

--trace 0 first runs one traced command, untimed, whose exact counts give
the work per command, then for --seconds times set-up in fresh
interpreters and the command itself, and reports medians:

    wall_s       spawn of the CLI command to its exit, in reference seconds
    setup_s      import, Experiment.load and first materialize in a fresh
                 interpreter, in reference seconds
    peak_rss_mb  peak resident memory of the CLI process

It also prints runs_per_s, packets_per_s, error_rate and an output digest,
which are not scored.

--trace 1 alternates untraced commands with commands run under
traced_cli.py for --seconds and reports per-layer self times (medians, in
reference seconds) and exact work counts; counts that differ between two
traced commands make the result incorrect.

--smoke shrinks every input so that a run takes a few seconds; the
benchmark's own tests use it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 2 means the netupdate
sources were not found next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Inputs, output_digest  # noqa: E402

REFERENCE_S = 0.18   # the reference task's wall time on a quiet core of an Intel Xeon host
SETUP_REPS = 7
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
HARD_LIMIT_S = 150   # stop starting commands after this, whatever MIN_REPS says

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_TIMES = {
    "config.materialize_s": "config.materialize",
    "topology.build_s": "topology.build",
    "planner.plan_s": "planner.plan",
    "simulator.control_s": "simulator.control",
    "simulator.data_s": "simulator.data",
    "consistency.classify_s": "consistency.classify",
    "cli.write_s": "cli.write",
    "stats.read_s": "stats.read",
    "stats.percentile_s": "stats.percentile",
}
# counts that must repeat exactly for the same seed
COUNTS = ("topology.links", "planner.pert_edges", "simulator.execs",
          "simulator.faults.missed_schedule", "simulator.faults.bound_violation",
          "simulator.packets", "simulator.hops", "simulator.dropped", "simulator.truncated",
          "simulator.stranded", "delays.samples", "consistency.classify_calls",
          "consistency.packets", "consistency.inconsistent", "stats.samples")
# (rate name, count, layer time metric)
RATES = (("planner.pert_edges_per_s", "planner.pert_edges", "planner.plan_s"),
         ("simulator.execs_per_s", "simulator.execs", "simulator.control_s"),
         ("simulator.hops_per_s", "simulator.hops", "simulator.data_s"),
         ("consistency.packets_per_s", "consistency.packets", "consistency.classify_s"))
PER_LAYER = (*LAYER_TIMES, *COUNTS, "cli.bytes_written", *(rate for rate, _, _ in RATES),
             "consistency.inconsistent_ratio", "trace.overhead_ratio")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(cmd: list, cwd: Path, log: Path) -> dict:
    """Run one child to completion; its wall time, peak RSS and exit code."""
    start = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, cwd=cwd, env=_env(), stdout=fh, stderr=subprocess.STDOUT)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode}


class Runner:
    """Runs and checks the commands of one workload in one work directory."""

    def __init__(self, workload, inputs: Inputs, work: Path):
        self.workload, self.inputs, self.work = workload, inputs, work
        self.out = work / "out"
        self.attempted = self.failed = 0
        self.digests = set()

    def _command(self, traced: bool, report: Path | None = None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        prefix = ([sys.executable, str(HERE / "traced_cli.py"), str(report)] if traced
                  else [sys.executable, "-m", "netupdate.cli"])
        rep = _spawn(prefix + self.inputs.argv + ["--out", "out"], self.work,
                     self.work / "cli.log")
        attempted, failed = self.workload.check(self.out, self.inputs.expect)
        if rep["exit"] != 0:
            failed = attempted
        self.attempted += attempted
        self.failed += failed
        rep["bytes_written"] = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        self.digests.add(output_digest(self.out))
        return rep

    def untraced(self) -> dict:
        return self._command(False)

    def traced(self) -> dict:
        report_path = self.work / "trace.json"
        report_path.unlink(missing_ok=True)
        rep = self._command(True, report_path)
        try:
            rep["trace"] = json.loads(report_path.read_text())
        except (OSError, ValueError):
            rep["trace"] = None
        return rep

    def setup(self) -> float | None:
        rep = _spawn([sys.executable, str(HERE / "setup_probe.py"), *self.inputs.setup_args],
                     self.work, self.work / "setup.log")
        if rep["exit"] != 0:
            return None
        return float((self.work / "setup.log").read_text().split()[-1])

    def reference(self) -> float | None:
        """Wall time of the reference task, or None if it failed."""
        rep = _spawn([sys.executable, str(HERE / "reference_task.py")], self.work,
                     self.work / "reference.log")
        return rep["wall_s"] if rep["exit"] == 0 else None


def _running(start: float, seconds: float, done: int, minimum: int) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed < seconds or done < minimum and elapsed < HARD_LIMIT_S


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _bracketed(runner: Runner, step, more) -> list:
    """(scale, step()) pairs while more(pairs so far) holds, each step between two reference tasks.

    scale is REFERENCE_S over the mean of the two bracketing reference
    times, or None if either reference task failed.
    """
    pairs = []
    before = runner.reference()
    while more(len(pairs)):
        result = step()
        after = runner.reference()
        pairs.append((2 * REFERENCE_S / (before + after) if before and after else None, result))
        before = after
    return pairs


def measure_end_to_end(runner: Runner, seconds: float) -> tuple:
    warm = runner.traced()
    counts = (warm["trace"] or {}).get("counts", {})
    start = time.perf_counter()
    setups = _bracketed(runner, runner.setup, lambda n: n < SETUP_REPS)
    reps = _bracketed(runner, runner.untraced, lambda n: _running(start, seconds, n, MIN_REPS))
    ok = (warm["trace"] is not None and all(k and s is not None for k, s in setups)
          and all(k for k, _ in reps))
    scaled_setup = [s * k for k, s in setups if k and s is not None]
    scaled_wall = [rep["wall_s"] * k for k, rep in reps if k]
    metrics = {"wall_s": _median(scaled_wall), "setup_s": _median(scaled_setup),
               "peak_rss_mb": _median([rep["peak_rss_mb"] for _, rep in reps])}
    runs = runner.inputs.runs
    packets = counts.get("simulator.packets", 0)
    info = {
        "commands": len(reps),
        "runs_per_command": runs,
        "packets_per_command": packets,
        "runs_per_s": runs / metrics["wall_s"] if metrics["wall_s"] else 0.0,
        "packets_per_s": packets / metrics["wall_s"] if metrics["wall_s"] else 0.0,
        "raw_wall_s": _median([rep["wall_s"] for _, rep in reps]),
        "raw_setup_s": _median([s for _, s in setups if s is not None]),
        "reference_s": REFERENCE_S / (_median([k for k, _ in setups + reps if k]) or 1.0),
        "bytes_written": reps[-1][1]["bytes_written"],
        "samples": {"wall_s": scaled_wall, "setup_s": scaled_setup},
    }
    return metrics, info, ok


def _layer_metrics(rep: dict, scale: float) -> dict:
    report = rep["trace"]
    out = {name: report["self_s"].get(layer, 0.0) * scale for name, layer in LAYER_TIMES.items()}
    out.update({name: report["counts"].get(name, 0) for name in COUNTS})
    out["cli.bytes_written"] = rep["bytes_written"]
    return out


def measure_layers(runner: Runner, seconds: float) -> tuple:
    start = time.perf_counter()
    reps = _bracketed(runner, lambda: (runner.untraced(), runner.traced()),
                      lambda n: _running(start, seconds, n, 2))
    if not all(k and t["trace"] for k, (_, t) in reps):
        return dict.fromkeys(PER_LAYER, 0.0), None, False
    per_rep = [_layer_metrics(t, k) for k, (_, t) in reps]
    counts_repeat = all(m[c] == per_rep[0][c] for m in per_rep for c in COUNTS)
    metrics = {name: _median([m[name] for m in per_rep]) for name in LAYER_TIMES}
    metrics.update({name: per_rep[0][name] for name in COUNTS})
    metrics["cli.bytes_written"] = per_rep[0]["cli.bytes_written"]
    for rate, count, layer in RATES:
        metrics[rate] = metrics[count] / metrics[layer] if metrics[layer] else 0.0
    packets = metrics["consistency.packets"]
    metrics["consistency.inconsistent_ratio"] = (
        metrics["consistency.inconsistent"] / packets if packets else 0.0)
    metrics["trace.overhead_ratio"] = _median([t["wall_s"] / u["wall_s"] for _, (u, t) in reps])

    # Shares of the in-process time, for the printed table. The tracer's own
    # bookkeeping is not the program's time, so it is left out of the base.
    reports = [t["trace"] for _, (_, t) in reps]
    layers = {layer for report in reports for layer in report["self_s"]}
    layer_s = {layer: _median([report["self_s"].get(layer, 0.0) for report in reports])
               for layer in sorted(layers)}
    program_s = [report["inproc_s"] - report["self_s"].get("tracer", 0.0) for report in reports]
    non_cli = [sum(s for layer, s in report["self_s"].items()
                   if not layer.startswith("cli.") and layer != "tracer")
               for report in reports]
    inproc = _median(program_s)
    info = {"traced_commands": len(reps), "inproc_s": inproc, "layer_self_s": layer_s,
            "non_cli_share": _median([n / p for n, p in zip(non_cli, program_s) if p]),
            "counts_repeat": counts_repeat, "missing_wrap_sites": reports[0]["missing"]}
    return metrics, info, counts_repeat


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def provenance(args) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"git_revision": rev, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "platform": platform.platform(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}


def report(args, metrics: dict, info: dict | None, runner: Runner) -> None:
    print(f"netupdate benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}{', smoke' if args.smoke else ''}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit_of(name)}")
    if args.trace and info:
        print(f"  medians of {info['traced_commands']} traced commands; raw in-process time "
              f"{info['inproc_s']:.4f} s, {info['non_cli_share']:.1%} of it in non-cli "
              f"layers; counts repeat: {info['counts_repeat']}")
        for layer, s in info["layer_self_s"].items():
            print(f"    self {layer:28s} {s:10.4f} s {s / info['inproc_s']:7.1%}")
        if info["missing_wrap_sites"]:
            print(f"  wrap sites not found: {', '.join(info['missing_wrap_sites'])}")
    elif not args.trace:
        for name, unit in (("runs_per_s", "1/s"), ("packets_per_s", "1/s")):
            value = f"{info[name]:16.6g}" if info[name] else f"{'n/a':>16s}"
            print(f"  {name:34s} {value} {unit}")
        print(f"  {'error_rate':34s} {runner.failed / max(runner.attempted, 1):16.6g} ratio "
              f"({runner.failed} of {runner.attempted} output rows failed)")
        print(f"  medians of {info['commands']} commands and {SETUP_REPS} set-ups; raw "
              f"wall {info['raw_wall_s']:.4f} s, raw set-up {info['raw_setup_s']:.4f} s, "
              f"reference task {info['reference_s']:.4f} s (scaled to {REFERENCE_S} s)")
    digests = sorted(runner.digests)
    print(f"  output_digest {digests[0] if len(digests) == 1 else digests} (not scored)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/netupdate/cli.py", "configs/netrail_knob_exp.json",
                           "configs/sprint_knob.json", "topologies/sprint.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: netupdate sources not found under {ROOT}: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(workload, workload.generate(args.seed, ROOT, work, args.smoke), work)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, info, ok = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = ok and runner.failed == 0 and runner.attempted > 0
    report(args, metrics, info, runner)
    print("detail: " + json.dumps({"provenance": provenance(args), "info": info},
                                  sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
