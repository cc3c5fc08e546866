"""Run bench.py over several seeds per workload and report each metric's spread.

Usage, from the repository root:

    python3 benchmarks/stability.py

For each workload in BENCHMARK.json, RUNS untraced runs with consecutive
seeds from FIRST_SEED give, per end-to-end metric, the median and the
interquartile range as a share of the median (statistics.quantiles, n=4).
The spread is compared with the bound in BENCHMARK.json; a spread under a
third of the bound is marked steady. Then TRACE_REPEATS traced runs of
FIRST_SEED check that the exact counts repeat. Runs are made one at a
time. Every result, with provenance, is written to benchmarks/reference.json.
The exit code is 0 only if every workload is correct and steady.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
FIRST_SEED = 1000
TRACE_REPEATS = 2
REPEATED_COUNTS = ("simulator.execs", "simulator.packets", "simulator.hops", "delays.samples",
                   "consistency.classify_calls", "consistency.inconsistent")


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return {"seed": seed, "trace": trace, **json.loads(lines[-1]), "detail": detail}


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results, steady = {}, True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(RUNS):
            runs.append(bench(spec, name, FIRST_SEED + i, 0))
            r = runs[-1]
            print(f"{name} seed {r['seed']}: correct={r['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            m = metric["name"]
            med, share = spread([r["metrics"][m]["value"] for r in runs])
            ok = share < metric["bound"] / 3
            steady &= ok and all(r["correct"] for r in runs)
            summary[m] = {"median": med, "iqr_share": share, "bound": metric["bound"]}
            print(f"  {name:16s} {m:12s} median {med:10.4g}  IQR/median {share:6.3f}  "
                  f"bound {metric['bound']}  {'steady' if ok else 'NOT STEADY'}")
        traced = [bench(spec, name, FIRST_SEED, 1) for _ in range(TRACE_REPEATS)]
        repeat = all(t["metrics"][c]["value"] == traced[0]["metrics"][c]["value"]
                     for t in traced for c in REPEATED_COUNTS)
        steady &= repeat and all(t["correct"] for t in traced)
        print(f"  {name:16s} traced x{len(traced)}: counts repeat {repeat}", flush=True)
        results[name] = {"summary": summary, "runs": runs, "traced": traced}
    (ROOT / "benchmarks" / "reference.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
