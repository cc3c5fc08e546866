"""Mutation fuzz of the config boundary.

Each example takes one shipped config, or a variant of one that sets the
optional fields no shipped config sets, and sets one field of it, or of the
topology file it loads, to one bad value. It runs `plan` in-process, or
`simulate` where the field reaches the run (flows and delays), and requires
exit 0 or 2. A config error must name the mutated field: the message's
leading field path is the mutated path, a list or list entry that holds it
(`seeds` for `seeds[1]`, `links[0]` for `links[0].b`), or a field inside it
(`procedure.kind` when `procedure` became `{}`). Errors in a topology file
read `topology: <path in the file>: ...`.

The trace fuzz runs `analyze-trace` in-process on generated trace texts:
non-negative millisecond values, all-zero traces among them, with comments
and blank lines. It requires exit 0, or exit 2 with a `trace:` error.
"""

import contextlib
import copy
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from netupdate.cli import main

REPO = Path(__file__).resolve().parents[1]

# float("inf") is what json.loads makes of 1e400
BAD_VALUES = (None, "x", [], {}, -1, 0, float("inf"), [[1]], True, 1.5, [None], {"a": 1})


def _shipped() -> dict:
    docs = {}
    for path in sorted((REPO / "configs").glob("*.json")):
        doc = json.loads(path.read_text())
        if doc["topology"]["kind"] == "file":
            doc["topology"]["path"] = str((path.parent / doc["topology"]["path"]).resolve())
        docs[path.stem] = doc
    return docs


def _configs() -> dict:
    """The shipped configs plus variants that set every optional field."""
    docs = _shipped()
    point = copy.deepcopy(docs["sprint_knob"])
    del point["sweep"]
    point.update(knob_d="4ms", delays={
        "ctrl": {"kind": "exponential", "mean": "2ms", "cap": "20ms"},
        "gap": {"kind": "empirical", "samples": ["1ms", 2_000_000]}})
    point["params"]["tsu"] = "40ms"
    point["flows"][1] = {"flow_id": "f2", "ingress": "NYC", "mbps": 40, "packet_bytes": 500,
                         "path": ["NYC", "DC", "ATL"]}
    docs["sprint_knob+optional"] = point
    docs["sprint_knob+constant"] = {**copy.deepcopy(point), "delays": {
        "ctrl": {"kind": "constant", "value": "3ms"}, "gap": {"kind": "uniform", "hi": "5ms"}}}
    kphase = copy.deepcopy(docs["leafspine_plan_dc"])
    kphase["procedure"] = {"kind": "k-phase", "phases": [["leaf1", "leaf2"], ["spine1"], ["leaf1"]],
                           "gc_phases": [3]}
    docs["leafspine_plan_dc+k-phase"] = kphase
    phase2 = copy.deepcopy(docs["leafspine_sweep"])
    phase2["procedure"]["phase2_switches"] = ["leaf1", "leaf3"]
    docs["leafspine_sweep+phase2"] = phase2
    return docs


CONFIGS = _configs()


def _topologies() -> dict:
    """{name: (config, the topology file it loads)}: each shipped topology,
    plus one whose first link has an explicit delay_ns."""
    out = {}
    for name in ("compuserve", "netrail", "sprint"):
        out[name] = (f"{name}_knob", json.loads((REPO / "topologies" / f"{name}.json").read_text()))
    delay_ns = copy.deepcopy(out["netrail"][1])
    delay_ns["links"][0]["delay_ns"] = 3_000_000
    out["netrail+delay_ns"] = ("netrail_knob", delay_ns)
    return out


TOPOLOGIES = _topologies()


def _paths(value, prefix=()):
    """Every field path in a JSON value, containers included."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _name(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _runs_flows(path) -> bool:
    return path[0] in ("flows", "delays")


CONFIG_CASES = [(name, path) for name, doc in CONFIGS.items() for path in _paths(doc)]
PLAN_CASES = [("config", name, path) for name, path in CONFIG_CASES if not _runs_flows(path)]
PLAN_CASES += [("topology", name, path) for name, (_, topo) in TOPOLOGIES.items()
               for path in _paths(topo)]
SIMULATE_CASES = [("config", name, path) for name, path in CONFIG_CASES if _runs_flows(path)]


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return doc


def run_mutant(tmp: Path, where: str, name: str, path, value):
    """(exit code, stderr) of the command the case runs on the mutated config."""
    if where == "topology":
        config, topology = TOPOLOGIES[name]
        topo = tmp / "topo.json"
        topo.write_text(json.dumps(_set(topology, path, value)))
        doc = _set(CONFIGS[config], ("topology", "path"), str(topo))
    else:
        doc = _set(CONFIGS[name], path, value)
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(doc))
    command = "simulate" if where == "config" and _runs_flows(path) else "plan"
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(cfg), "--out", str(tmp / "out")])
    return code, stderr.getvalue()


def _related(named: str, mutated: str) -> bool:
    """named is mutated, a list or list entry holding it, or a field inside it."""
    if named == mutated:
        return True
    if mutated.startswith(named):
        rest = mutated[len(named):]
        return rest[0] == "[" or (named.endswith("]") and rest[0] == ".")
    return named.startswith(mutated) and named[len(mutated)] in ".["


def check_mutant(where: str, name: str, path, value, code: int, err: str) -> None:
    assert code in (0, 2), err
    if code == 0:
        return
    mutated = _name(path)
    prefix = "config error: topology: " if where == "topology" else "config error: "
    assert err.startswith(prefix), err
    named = err[len(prefix):].split(": ", 1)[0]
    if (where == "topology" and re.fullmatch(r"nodes\[\d+\]\.id", mutated)
            and not isinstance(value, (list, dict))):
        # a scalar renames the node, so the first reference to its old name fails
        old = TOPOLOGIES[name][1]["nodes"][path[1]]["id"]
        assert f"unknown node {old!r}" in err, err
        return
    assert _related(named, mutated), (mutated, err)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(case=st.sampled_from(PLAN_CASES), value=st.sampled_from(BAD_VALUES))
def test_plan_exits_zero_or_names_the_mutated_field(scratch, case, value):
    code, err = run_mutant(scratch, *case, value)
    check_mutant(*case, value, code, err)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=st.sampled_from(SIMULATE_CASES), value=st.sampled_from(BAD_VALUES))
def test_simulate_exits_zero_or_names_the_mutated_field(scratch, case, value):
    code, err = run_mutant(scratch, *case, value)
    check_mutant(*case, value, code, err)


_MS = st.one_of(st.sampled_from(["0", "0.0", "0e0", "0.0000001", "1e-07", "1000000000000"]),
                st.integers(0, 10**12).map(str),
                st.floats(0, 1e12, allow_nan=False).map(repr))
_TRACE_LINES = st.lists(st.one_of(
    _MS, _MS.map(lambda ms: f"  {ms}  # sample"), st.sampled_from(["", "   ", "# comment"])),
    max_size=12)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(lines=_TRACE_LINES)
def test_analyze_trace_exits_zero_or_names_the_trace(scratch, lines):
    trace = scratch / "trace.txt"
    trace.write_text("\n".join(lines) + "\n")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["analyze-trace", str(trace), "--out", str(scratch / "trace-out")])
    err = stderr.getvalue()
    assert code in (0, 2), err
    assert code == 0 or err.startswith(f"config error: trace: {trace}"), err
