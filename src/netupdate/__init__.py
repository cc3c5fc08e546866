"""Planning, simulation, and consistency measurement of SDN network updates.

The package analyzes and executes phased forwarding-rule updates: greedy
untimed procedures driven by delay bounds, and timed procedures where every
phase runs at a scheduled clock time. It computes worst-case update
durations (one closed form per execution mode, cross-checked against PERT
longest paths), generates worst-case and knob-tuned schedules, simulates
runs deterministically, and measures the per-packet inconsistency of test
flows.

Importing the package loads none of its modules: each name below is
imported from its module on first use, so a command loads only its layers.
"""

from importlib import import_module

_EXPORTS = {  # module -> the names the package re-exports from it
    "consistency": ("CONSISTENT_NEW", "CONSISTENT_OLD", "INCONSISTENT", "InconsistencyReport",
                    "TestFlow", "knob_schedule", "measure_inconsistency", "simultaneous_schedule",
                    "worst_case_schedule"),
    "delays": ("DelayModel",),
    "model": ("DELIVER", "DROP", "Action", "ForwardingState", "Link", "Network", "Schedule",
              "SingletonUpdate", "SystemParameters", "TimedUpdateProcedure", "UpdateProcedure"),
    "planner": ("PertGraph", "build_pert_counts", "build_pert_timed_counts",
                "compare_timed_untimed", "longest_path", "timed_worst_duration",
                "untimed_worst_duration"),
    "simulator": ("RunDelays", "RunResult", "forward_packet", "run_flows", "run_timed",
                  "run_untimed"),
    "stats": ("DelayTrace", "read_trace", "tail_ratio"),
    "topology": ("haversine_km", "label_change_update", "leaf_spine", "load_topology",
                 "path_link_bound_ns", "policy_initial_state", "policy_update"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A re-exported name, imported from its module and kept here on first use."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
