"""Tests of the benchmark itself: python3 -m pytest benchmarks

They run bench.py in its --smoke mode, so every input is tiny.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
from traced_cli import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
# The six end-to-end metrics a user sees, as printed for every workload.
PRINTED = {"wall_s": "s", "setup_s": "s", "runs_per_s": "1/s", "packets_per_s": "1/s",
           "peak_rss_mb": "MB", "error_rate": "ratio"}


def run_bench(workload, trace, cwd=bench.ROOT, script=HERE / "bench.py"):
    return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "3",
                           "--seconds", "0.5", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        printed = {parts[0]: parts[2] for parts in map(str.split, lines) if len(parts) > 2}
        assert {name: printed.get(name) for name in PRINTED} == PRINTED


CORRUPT = {  # output file, field of its last row, corrupted value
    "knob-exp": ("sweep.csv", 5, lambda row: str(int(row[6]) + 1)),
    "fabric-untimed": ("sweep.csv", 2, lambda row: str(int(row[2]) - 1)),
    "simulate-dense": ("inconsistency.csv", 1, lambda row: "1"),
    "trace-tail": ("trace_stats.csv", 2, lambda row: str(int(row[2]) + 1)),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_row_raises_error_rate(workload, tmp_path):
    w = WORKLOADS[workload]
    runner = bench.Runner(w, w.generate(3, bench.ROOT, tmp_path, True), tmp_path)
    assert runner.untraced()["exit"] == 0
    assert runner.failed == 0 and runner.attempted > 0

    name, field, value = CORRUPT[workload]
    path = runner.out / name
    lines = path.read_text().splitlines()
    row = lines[-1].split(",")
    row[field] = value(row)
    lines[-1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    attempted, failed = w.check(runner.out, runner.inputs.expect)
    assert failed / attempted > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("knob-exp", 0, cwd=tmp_path, script=tmp_path / "benchmarks" / "bench.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    t = Tracer()
    t.spans = [["a", -1, 0, 100], ["b", 0, 10, 40], ["c", 1, 20, 30], ["b", 0, 50, 60]]
    assert t.self_times() == pytest.approx({"a": 60e-9, "b": 30e-9, "c": 10e-9})
