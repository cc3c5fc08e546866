"""The package root: its lazily imported names against the list it once imported eagerly."""

import subprocess
import sys
from importlib import import_module

import pytest

import netupdate

from conftest import child_env

# every name the package root re-exports, and the module that defines it
EXPORTS = {
    "consistency": ["CONSISTENT_NEW", "CONSISTENT_OLD", "INCONSISTENT", "InconsistencyReport",
                    "TestFlow", "classify_packet", "knob_schedule", "measure_inconsistency",
                    "simultaneous_schedule"],
    "delays": ["DelayModel"],
    "model": ["DELIVER", "DROP", "Action", "ForwardingState", "Link", "Network", "Schedule",
              "SingletonUpdate", "SystemParameters", "TimedUpdateProcedure", "UpdateProcedure"],
    "planner": ["PertGraph", "build_pert_counts", "build_pert_timed_counts",
                "compare_timed_untimed", "longest_path", "timed_worst_duration",
                "untimed_worst_duration", "worst_case_schedule"],
    "simulator": ["RunDelays", "RunResult", "StateTimeline", "forward_packet", "run_flows",
                  "run_timed", "run_untimed"],
    "stats": ["DelayTrace", "read_trace", "tail_ratio"],
    "topology": ["haversine_km", "label_change_update", "leaf_spine", "load_topology",
                 "path_link_bound_ns", "policy_initial_state", "policy_update"],
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names}


def test_the_root_exports_the_46_names():
    assert len(NAMES) == 46
    assert sorted(netupdate.__all__) == sorted(NAMES)


@pytest.mark.parametrize("name", sorted(NAMES))
def test_each_name_is_its_modules_object(name):
    assert getattr(netupdate, name) is getattr(import_module(f"netupdate.{NAMES[name]}"), name)


def test_star_import_and_dir_give_the_names():
    namespace = {}
    exec("from netupdate import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert set(NAMES) <= set(dir(netupdate))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'netupdate' has no attribute 'no_such_name'"):
        netupdate.no_such_name  # noqa: B018
    assert not hasattr(netupdate, "Experiment")


def test_submodules_import_from_the_root():
    from netupdate import simulator, stats

    assert simulator is sys.modules["netupdate.simulator"]
    assert stats is sys.modules["netupdate.stats"]


# dir() of a fresh import, before any name is used, lists the names too
def test_importing_the_root_loads_no_module_until_a_name_is_used():
    code = ("import sys, netupdate\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('netupdate.'))\n"
            "print(sorted(set(netupdate.__all__) - set(dir(netupdate))), loaded())\n"
            "netupdate.DelayTrace\n"
            "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[] []", "['netupdate.delays', 'netupdate.model', 'netupdate.stats']"]
