"""Planning, simulation, and consistency measurement of SDN network updates.

The package analyzes and executes phased forwarding-rule updates: greedy
untimed procedures driven by delay bounds, and timed procedures where every
phase runs at a scheduled clock time. It computes worst-case update
durations (one closed form per execution mode, cross-checked against PERT
longest paths), generates worst-case and knob-tuned schedules, simulates
runs deterministically, and measures the per-packet inconsistency of test
flows.
"""

from .consistency import (
    CONSISTENT_NEW,
    CONSISTENT_OLD,
    INCONSISTENT,
    InconsistencyReport,
    TestFlow,
    classify_packet,
    knob_schedule,
    measure_inconsistency,
    simultaneous_schedule,
)
from .delays import DelayModel
from .model import (
    DELIVER,
    DROP,
    Action,
    ForwardingState,
    Link,
    Network,
    Schedule,
    SingletonUpdate,
    SystemParameters,
    TimedUpdateProcedure,
    UpdateProcedure,
)
from .planner import (
    PertGraph,
    build_pert_counts,
    build_pert_timed_counts,
    compare_timed_untimed,
    longest_path,
    timed_worst_duration,
    untimed_worst_duration,
    worst_case_schedule,
)
from .simulator import (
    RunDelays,
    RunResult,
    StateTimeline,
    forward_packet,
    inject_flow,
    run_flows,
    run_timed,
    run_untimed,
)
from .stats import DelayTrace, percentile, read_trace, tail_ratio
from .topology import (
    haversine_km,
    label_change_update,
    leaf_spine,
    load_topology,
    path_link_bound_ns,
    policy_initial_state,
    policy_update,
)

__version__ = "0.1.0"
