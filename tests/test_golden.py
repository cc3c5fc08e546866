"""Byte-identity gate: plan, simulate and sweep on every shipped config,
and analyze-trace on a trace written from a fixed seed.

tests/golden.json pins, for each (command, input) pair, the exit code, the
text on stderr and the sha256 of every output file. stdout is left out
because it echoes the output path. A refactor must leave all of it as it is.

Only a change that moves outputs on purpose, and says so in CHANGES.md,
regenerates the file:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = sorted((REPO / "configs").glob("*.json"))
COMMANDS = ("plan", "simulate", "sweep")
TRACE = "rtt_golden.txt"
CASES = [f"{command} {cfg.name}" for cfg in CONFIGS for command in COMMANDS]
CASES.append(f"analyze-trace {TRACE}")


def write_trace(path: Path) -> None:
    """A 5,000-sample lognormal RTT trace (ms) with comments and blank lines."""
    rng = random.Random(20150501)
    lines = ["# round-trip times in ms, lognormal around 30 ms", ""]
    for i in range(5_000):
        ms = f"{rng.lognormvariate(3.4, 0.6):.6f}"
        if i % 997 == 0:
            lines.append(f"{ms}  # inline comment")
        elif i % 499 == 0:
            lines.extend(["", f"  {ms}  "])
        else:
            lines.append(ms)
    path.parent.mkdir(parents=True)
    path.write_text("\n".join(lines) + "\n# end of trace\n")


def run_case(case: str, workdir: Path) -> dict:
    """Run one `<command> <input>` pair in-process; its pinned fingerprint."""
    from netupdate.cli import main

    command, name = case.split()
    out = workdir / name / command
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        if command == "analyze-trace":
            # The trace path enters the config hash, so it is given relative to its directory.
            write_trace(out.parent / "in" / name)
            cwd = os.getcwd()
            os.chdir(out.parent / "in")
            try:
                code = main([command, name, "--percentiles", "0.5,0.9,0.99,0.999,1",
                             "--out", str(out)])
            finally:
                os.chdir(cwd)
        else:
            code = main([command, "--config", str(REPO / "configs" / name), "--out", str(out)])
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit": code, "stderr": err.getvalue(), "files": files}


def test_golden_covers_every_shipped_config():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_outputs_are_byte_identical(case, tmp_path):
    assert run_case(case, tmp_path) == json.loads(GOLDEN.read_text())[case]


def test_large_fabric_sweep_is_byte_identical(tmp_path):
    """sweep.csv on fabrics of 192 and 384 switches, past every shipped grid."""
    from netupdate.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", str(REPO / "configs" / "leafspine_sweep.json"),
                     "--grid", "192,384", "--seeds", "0,1", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == (
        "22e7f4744d1f5ecd8c509dc27e69965f7a503cf683e72bc953f9bcd3709c84e3")


def test_in_process_main_leaves_the_heap_unfrozen(tmp_path):
    frozen = gc.get_freeze_count()
    assert run_case("plan leafspine_sweep.json", tmp_path)["exit"] == 0
    assert gc.get_freeze_count() == frozen


def test_process_entry_writes_the_golden_plan(tmp_path):
    """python -m netupdate.cli freezes the heap before main(); the bytes stay."""
    import netupdate

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(netupdate.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "netupdate.cli", "plan",
         "--config", str(REPO / "configs" / "leafspine_sweep.json"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert {"exit": proc.returncode, "stderr": proc.stderr, "files": files} == (
        json.loads(GOLDEN.read_text())["plan leafspine_sweep.json"])


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: run_case(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} cases)")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    regenerate()
