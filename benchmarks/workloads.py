"""Seeded workload generators and output checks for the netupdate benchmark.

A workload turns a seed into input files in a work directory, names the
netupdate CLI command that consumes them, and checks that command's
outputs. The program only ever sees the generated files.

The checks hold for every random stream: they test orderings, row and
packet counts, the consistency theorem and exact nearest-rank values,
never a simulated value that a change to the random stream would move.
Each expected output row is one operation; a row that is missing, extra
or breaks its check is one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PERCENTILES = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)

_UNIT_NS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}


@dataclass
class Inputs:
    """What one generated workload hands to the CLI and to the checks."""

    argv: list            # CLI arguments relative to the work directory, without --out
    setup_args: list      # arguments of setup_probe.py: [] or [config, axis value as JSON]
    expect: dict          # what the checks compare the outputs against
    runs: int             # simulated (point, seed) runs per command


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable    # (seed, root, work, smoke) -> Inputs
    check: Callable       # (out, expect) -> (attempted, failed)


def derive_seeds(seed: int, count: int) -> list:
    """Simulation seeds for a config, drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _duration_ns(text) -> int:
    if isinstance(text, int):
        return text
    m = re.fullmatch(r"([0-9]+(?:\.[0-9]+)?)(ns|us|ms|s)", text.strip())
    return int(round(float(m.group(1)) * _UNIT_NS[m.group(2)]))


def _write_config(work: Path, name: str, doc: dict) -> str:
    work.mkdir(parents=True, exist_ok=True)
    (work / name).write_text(json.dumps(doc, indent=2) + "\n")
    return name


def _shipped(root: Path, config: str) -> dict:
    """A shipped config with its topology path made absolute."""
    doc = json.loads((root / "configs" / config).read_text())
    topo = doc["topology"]
    if "path" in topo:
        topo["path"] = str((root / "configs" / topo["path"]).resolve())
    return doc


def _sweep_inputs(work: Path, name: str, doc: dict) -> Inputs:
    config = _write_config(work, name, doc)
    grid = doc["sweep"]["grid"]
    cells = [str(_duration_ns(v)) if doc["sweep"]["axis"] in ("d", "dc", "dn", "delta_sched")
             else str(v) for v in grid]
    flows = sorted(f["flow_id"] for f in doc.get("flows", []))
    expect = {"seeds": doc["seeds"], "mode": doc["mode"], "cells": cells, "flows": flows}
    return Inputs(["sweep", "--config", config], [config, json.dumps(grid[0])],
                  expect, len(grid) * len(doc["seeds"]))


# -- generators ------------------------------------------------------------


def gen_knob_exp(seed: int, root: Path, work: Path, smoke: bool) -> Inputs:
    doc = _shipped(root, "netrail_knob_exp.json")
    # Two seeds, so that every row aggregates over seeds and its ordering
    # and seed-count checks can fail; every other d point keeps it short.
    doc["seeds"] = derive_seeds(seed, 2)
    for flow in doc["flows"]:
        flow["rate_pps"] = 500 if smoke else 1000
    doc["sweep"]["grid"] = doc["sweep"]["grid"][:2] if smoke else doc["sweep"]["grid"][::2]
    return _sweep_inputs(work, "knob_exp.json", doc)


def gen_fabric_untimed(seed: int, root: Path, work: Path, smoke: bool) -> Inputs:
    # Largest fabric first, so that the first materialization, which setup_s
    # times, builds the 192-switch fabric's 8,192 links.
    doc = {
        "topology": {"kind": "leaf_spine", "n": 48},
        "procedure": {"kind": "two-phase+gc"},
        "params": {"dc": "4.865ms", "dn": "0.262ms", "delta_msg": "5.24ms",
                   "delta_sched": "1.297ms"},
        "mode": "untimed-greedy",
        "seeds": derive_seeds(seed, 2),
        "sweep": {"axis": "N", "grid": [12, 6] if smoke else [192, 48]},
    }
    return _sweep_inputs(work, "fabric_untimed.json", doc)


def gen_simulate_dense(seed: int, root: Path, work: Path, smoke: bool) -> Inputs:
    shipped = _shipped(root, "sprint_knob.json")
    rate = 500 if smoke else 15_000
    doc = {
        "topology": {**shipped["topology"], "delay_mode": "constant"},
        "procedure": {"kind": "two-phase+gc", "old_tag": "A", "new_tag": "B"},
        "params": shipped["params"],
        "mode": "untimed-greedy",
        "start_time": "1s",
        # A constant message gap keeps the update's length, and with it the
        # packet count, nearly the same for every seed; the seed still draws
        # the controller delays.
        "delays": {"gap": {"kind": "constant", "value": shipped["params"]["delta_msg"]}},
        "flows": [{"flow_id": f["flow_id"], "ingress": f["ingress"], "rate_pps": rate,
                   "path": f["path"]} for f in shipped["flows"]],
        "seeds": derive_seeds(seed, 1),
    }
    config = _write_config(work, "simulate_dense.json", doc)
    expect = {"seed": doc["seeds"][0],
              "flows": {f["flow_id"]: rate for f in doc["flows"]}}
    return Inputs(["simulate", "--config", config], [config], expect, 1)


def gen_trace_tail(seed: int, root: Path, work: Path, smoke: bool) -> Inputs:
    rng = random.Random(seed)
    n = 2_000 if smoke else 200_000
    # Long-tailed round-trip times in integer nanoseconds: lognormal around 30 ms.
    samples = [int(rng.lognormvariate(math.log(30e6), 0.6)) for _ in range(n)]
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "rtt.txt", "w") as fh:
        fh.write(f"# round-trip times in ms, lognormal, seed {seed}\n")
        fh.writelines(f"{v // 1_000_000}.{v % 1_000_000:06d}\n" for v in samples)
    ordered = sorted(samples)
    mean = sum(samples) / n
    rows = []
    for p in PERCENTILES:
        value = ordered[math.ceil(p * n) - 1]
        rows.append(["rtt.txt", f"{p:g}", str(value), f"{mean:.3f}", f"{value / mean:.6f}"])
    argv = ["analyze-trace", "rtt.txt", "--percentiles", ",".join(f"{p:g}" for p in PERCENTILES)]
    return Inputs(argv, [], {"rows": rows}, 0)


# -- checks ----------------------------------------------------------------


def _table(path: Path, header: str, seeds) -> list | None:
    """Data rows of a CLI CSV, or None when the file, its meta line or its header is wrong."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    meta = r"# config=[0-9a-f]{12} seeds=" + ",".join(str(s) for s in seeds) + r"( .*)?"
    if len(lines) < 2 or not re.fullmatch(meta, lines[0]) or lines[1] != header:
        return None
    return [line.split(",") for line in lines[2:]]


def _score(rows, expected, ok) -> tuple:
    """(attempted, failed) for rows checked in order against expected rows."""
    rows = rows or []
    attempted = max(len(rows), len(expected))
    passed = 0
    for row, exp in zip(rows, expected):
        try:
            passed += bool(ok(row, exp))
        except (ValueError, TypeError, KeyError, IndexError):
            pass
    return attempted, attempted - passed


def _sweep_row_ok(row, exp) -> bool:
    cell, mode, count, mean, lo, hi, worst = row
    return ([cell, mode, int(count)] == exp
            and 0 <= int(lo) <= int(mean) <= int(hi) <= int(worst))


def _flow_row_ok(row, exp) -> bool:
    cell, flow_id, count, mean, lo, hi = row
    return [cell, flow_id, int(count)] == exp and 0 <= int(lo) <= int(mean) <= int(hi)


def check_sweep(out: Path, expect: dict) -> tuple:
    """Each sweep row: sim_min <= sim_mean <= sim_max <= plan_worst_ns over every seed."""
    seeds, n = expect["seeds"], len(expect["seeds"])
    rows = _table(out / "sweep.csv",
                  "axis_value,mode,seed_count,sim_mean_ns,sim_min_ns,sim_max_ns,plan_worst_ns",
                  seeds)
    attempted, failed = _score(rows, [[c, expect["mode"], n] for c in expect["cells"]],
                               _sweep_row_ok)
    if expect["flows"]:
        rows = _table(out / "inconsistency_sweep.csv",
                      "axis_value,flow_id,seed_count,i_mean_ns,i_min_ns,i_max_ns", seeds)
        a, f = _score(rows, [[c, fid, n] for c in expect["cells"] for fid in expect["flows"]],
                      _flow_row_ok)
        attempted, failed = attempted + a, failed + f
    return attempted, failed


def expected_packets(run: dict, rate: float) -> tuple:
    """(first injection time, packet count) of a flow over the run's default window."""
    spacing = int(round(1e9 / rate))
    margin = run["meta"]["params_ns"]["dn"] + 2 * spacing
    t0 = run["first_exec_ns"] - margin
    t1 = run["last_exec_ns"] + margin
    return t0, max(1, -(-(t1 - t0) // spacing))


def check_simulate(out: Path, expect: dict) -> tuple:
    """Each flow: the expected packet count, every packet delivered and consistent.

    Untimed-greedy two-phase updates are consistent by theorem, so
    n_inconsistent must be 0 whatever the random stream.
    """
    try:
        run = json.loads((out / "run.json").read_text())
    except (OSError, ValueError):
        run = None
    rows = _table(out / "inconsistency.csv", "flow_id,n_inconsistent,rate_pps,inconsistency_ns",
                  [expect["seed"]]) or []
    by_flow = {row[0]: row for row in rows}

    def ok(flow_id, rate):
        flow = run["flows"][flow_id]
        t0, count = expected_packets(run, rate)
        packets = flow["packets"]
        return (flow["n_inconsistent"] == 0 and len(packets) == count
                and packets[0]["t_in"] == t0
                and all(p["delivered"] and p["result"] != "inconsistent" for p in packets)
                and by_flow[flow_id] == [flow_id, "0", str(rate), "0"])

    flows = sorted(expect["flows"].items())
    extra = len(set(by_flow) - set(expect["flows"]))
    failed = extra
    for flow_id, rate in flows:
        try:
            failed += not ok(flow_id, rate)
        except (TypeError, KeyError, IndexError):
            failed += 1
    return len(flows) + extra, failed


def check_trace(out: Path, expect: dict) -> tuple:
    """Each percentile row equals the nearest-rank value of the generated samples."""
    rows = _table(out / "trace_stats.csv", "label,p,percentile_ns,mean_ns,ratio", [])
    return _score(rows, expect["rows"], lambda row, exp: row == exp)


def output_digest(out: Path) -> str:
    """sha256 over every output file's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (
    Workload("knob-exp",
             "timed-knob sweep of the shipped netrail_knob_exp config: the data plane "
             "and classification take nearly all the time",
             gen_knob_exp, check_sweep),
    Workload("fabric-untimed",
             "untimed two-phase+gc sweep of leaf-spine fabrics up to 192 switches, no flows: "
             "the control plane dominates, the data plane is bypassed",
             gen_fabric_untimed, check_sweep),
    Workload("simulate-dense",
             "one simulate run on sprint with constant delays and dense flows: lookups, "
             "double classification and writing every packet to JSON",
             gen_simulate_dense, check_simulate),
    Workload("trace-tail",
             "analyze-trace on a long-tailed RTT trace: trace parsing and a full sort per "
             "percentile, the only workload that exercises stats",
             gen_trace_tail, check_trace),
)}
