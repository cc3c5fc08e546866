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
import platform
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
    return {"exit": code, "stderr": err.getvalue(), "files": file_digests(out)}


def file_digests(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


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
        "2bf2f41769f189623b75eaf08a0e8f088a4e2e32709e8319b88c02ab9148f80f")


@pytest.mark.parametrize("mode, axis, grid, digests", [
    ("untimed-greedy", "dc", "2ms,4.865ms,9ms",
     ("cd742737edf40d013d25391811d2b688a0fb024d8602a35df4cfe0936f452f23",
      "67671a1a27cccc281e47c4079aec17386439073d829fe11ba664df85e7a35c94")),
    ("timed-worst-case", "delta_sched", "0ms,1.297ms,4ms",
     ("67671d66fe2ff6fe56f790b7a6f2838d5ffe481ca83be38c4606ef2f3c8f8443",
      "1608a204b55d42e7ff9b6d1d5e1c292b1fc87beb9fe813807e40bc14fbfb6a4a")),
    ("timed-knob", "dn", "1ms,4ms,12ms",
     ("d08a4220ff487774e747b03aaf9e081a345101452f49e719ba02667339519829",
      "1cb588cf372472cfecc346c5c4644bca0b8b8ad6a5c5b3e4bd22de22f83d3c94")),
])
def test_params_axis_sweep_is_byte_identical(mode, axis, grid, digests, tmp_path):
    """sweep.csv and inconsistency_sweep.csv of sprint_knob's flows swept over a
    params axis, whose points share one network, flow set and procedure."""
    from netupdate.cli import main

    doc = json.loads((REPO / "configs" / "sprint_knob.json").read_text())
    doc["mode"] = mode
    if mode == "timed-knob":
        doc["knob_d"] = "10ms"
    # the config keeps its relative topology path, so its hash is the same in any checkout
    (tmp_path / "topologies").mkdir()
    (tmp_path / "topologies" / "sprint.json").write_bytes(
        (REPO / "topologies" / "sprint.json").read_bytes())
    (tmp_path / "configs").mkdir()
    (config := tmp_path / "configs" / "sprint_params.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", str(config), "--axis", axis, "--grid", grid,
                     "--seeds", "0,1", "--out", str(out)]) == 0
    assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("sweep.csv", "inconsistency_sweep.csv")) == digests


def test_fabric_sweep_handing_the_draw_over_to_numpy_is_byte_identical(tmp_path):
    """A flowless 768-switch sweep in a process without numpy: the first runs'
    control-plane blocks are drawn in Python until PY_UNIFORMS runs out, the
    rest by numpy. The digest was computed when numpy drew them all."""
    from conftest import child_env
    from netupdate.delays import PY_UNIFORMS

    seeds, block = 24, 3 * 2048   # a leaf_spine(768) update sends 2,048 messages
    assert block <= PY_UNIFORMS < seeds * block
    code = ("import sys\n"
            "from netupdate.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy' in sys.modules)\n"
            "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "sweep",
         "--config", str(REPO / "configs" / "leafspine_sweep.json"), "--grid", "768",
         "--seeds", ",".join(map(str, range(seeds))), "--out", str(tmp_path)],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout.splitlines()[-1]) == (0, "", "True")
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == (
        "2c53d9c6a2f340b80d83e7602ce8d3c8a826db34fbdcef5a1e909dce06b01a87")


# numpy's baseline kernels: np.log1p, which the exponential inverse CDF calls,
# gives other bits under them than under AVX-512 for some inputs
BASELINE_KERNELS = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the dispatch gate names x86 CPU features")
def test_exponential_cases_are_byte_identical_under_the_baseline_kernels():
    """Every golden case with exponential delays, rerun in a child whose numpy
    dispatches to its baseline kernels, must give the pinned bytes."""
    from conftest import child_env

    cases = [case for case in CASES if case.split()[1].endswith("_exp.json")]
    assert len(cases) == 9
    code = ("import json, sys, tempfile\n"
            "from pathlib import Path\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_golden import run_case\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    print(json.dumps({case: run_case(case, Path(tmp))\n"
            "                      for case in sys.argv[2:]}))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent), *cases],
        env=child_env(NPY_DISABLE_CPU_FEATURES=BASELINE_KERNELS),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = json.loads(GOLDEN.read_text())
    assert json.loads(proc.stdout.splitlines()[-1]) == {case: golden[case] for case in cases}


def test_in_process_main_leaves_the_heap_unfrozen(tmp_path):
    frozen = gc.get_freeze_count()
    assert run_case("plan leafspine_sweep.json", tmp_path)["exit"] == 0
    assert gc.get_freeze_count() == frozen


def test_process_entry_writes_the_golden_plan(tmp_path):
    """python -m netupdate.cli freezes the heap once the command is done; the bytes stay."""
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


# the python -m launch of tests/test_cli.py's process entries; nothing in it imports numpy
PYTHON_M = ("import runpy, sys\n"
            "try:\n    runpy.run_module('netupdate.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    code = exc.code\n"
            "from netupdate import delays\n"
            "print(delays._py_uniforms_left < delays.PY_UNIFORMS)\n"
            "sys.exit(code)\n")


@pytest.mark.parametrize("case", ["simulate sprint_knob.json", "sweep sprint_knob.json"])
def test_process_entry_draws_in_python_before_the_walk_loads_numpy(case, tmp_path):
    """python -m netupdate.cli loads numpy only when the walk needs it, so a
    flows run draws its first control-plane block in Python; the bytes stay."""
    from conftest import child_env

    command, name = case.split()
    proc = subprocess.run(
        [sys.executable, "-c", PYTHON_M, command,
         "--config", str(REPO / "configs" / name), "--out", str(tmp_path)],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "True"
    assert {"exit": proc.returncode, "stderr": proc.stderr, "files": file_digests(tmp_path)} == (
        json.loads(GOLDEN.read_text())[case])


def test_knob_exp_sweep_never_loads_numpy(tmp_path):
    """The benchmark's knob-exp shape, python -m netupdate.cli sweep of
    netrail_knob_exp at 1,000 pps, 2 seeds and 4 knob points: only the
    packets a draw can change draw, all in Python, so numpy is never loaded;
    the bytes are those of a process that imported numpy first, where numpy
    draws them all. (At the shipped 5,000 pps the rows outgrow PY_UNIFORMS.)"""
    from conftest import child_env

    doc = json.loads((REPO / "configs" / "netrail_knob_exp.json").read_text())
    for flow in doc["flows"]:
        flow["rate_pps"] = 1000
    (tmp_path / "topologies").mkdir()
    (tmp_path / "topologies" / "netrail.json").write_bytes(
        (REPO / "topologies" / "netrail.json").read_bytes())
    (tmp_path / "configs").mkdir()
    (config := tmp_path / "configs" / "knob_exp.json").write_text(json.dumps(doc))
    code = ("import runpy, sys\n"
            "try:\n    runpy.run_module('netupdate.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    code = exc.code\n"
            "print('numpy' in sys.modules)\n"
            "sys.exit(code)\n")
    got = []
    for first in ("", "import numpy\n"):
        out = tmp_path / str(len(got))
        proc = subprocess.run(
            [sys.executable, "-c", first + code, "sweep", "--config", str(config),
             "--seeds", "0,1", "--grid", "0ms,20ms,80ms,160ms", "--out", str(out)],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        got.append((proc.stdout.splitlines()[-1], file_digests(out)))
    assert [numpy for numpy, _ in got] == ["False", "True"]
    assert got[0][1] == got[1][1] and set(got[0][1]) == {"sweep.csv", "inconsistency_sweep.csv"}


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: run_case(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} cases)")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    regenerate()
