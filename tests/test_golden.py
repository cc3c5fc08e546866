"""Byte-identity gate: plan, simulate and sweep on every shipped config.

tests/golden.json pins, for each (command, config) pair, the exit code, the
text on stderr and the sha256 of every output file. stdout is left out
because it echoes the output path. A refactor must leave all of it as it is.

Only a change that moves outputs on purpose, and says so in CHANGES.md,
regenerates the file:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = sorted((REPO / "configs").glob("*.json"))
COMMANDS = ("plan", "simulate", "sweep")
CASES = [f"{command} {cfg.name}" for cfg in CONFIGS for command in COMMANDS]


def run_case(case: str, workdir: Path) -> dict:
    """Run one `<command> <config>` pair in-process; its pinned fingerprint."""
    from netupdate.cli import main

    command, name = case.split()
    out = workdir / name / command
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(REPO / "configs" / name), "--out", str(out)])
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit": code, "stderr": err.getvalue(), "files": files}


def test_golden_covers_every_shipped_config():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_outputs_are_byte_identical(case, tmp_path):
    assert run_case(case, tmp_path) == json.loads(GOLDEN.read_text())[case]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: run_case(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} cases)")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    regenerate()
