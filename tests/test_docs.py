"""The README's code must run as printed, and its formats must match the writer."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_readme_library_use_block_runs():
    readme = (REPO / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "167305000"


def _keys(value) -> set:
    """Every object key in a JSON value, at any depth."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def test_readme_run_json_keys_match_a_real_run(tmp_path):
    from netupdate.cli import main

    readme = (REPO / "README.md").read_text()
    section = readme[readme.index("## Output formats"):]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    documented = set(re.findall(r'"([^"]+)"\s*:', block))

    # netrail_knob.json, with a t_su too short for its schedule so that
    # run.json carries faults as well
    doc = json.loads((REPO / "configs" / "netrail_knob.json").read_text())
    doc["topology"]["path"] = str(REPO / "topologies" / "netrail.json")
    doc["params"]["tsu"] = "1ns"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["faults"] and run["flows"]["f1"]["packets"]
    # one flow stands for all; the README names it f1
    run["flows"] = {"f1": run["flows"]["f1"]}
    assert documented == _keys(run)
