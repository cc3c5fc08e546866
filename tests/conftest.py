"""Shared fixtures: canonical parameters, small networks, and flow setups."""

import contextlib
import os
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

import netupdate
from netupdate import (
    DelayModel,
    Link,
    Network,
    RunResult,
    SystemParameters,
    TestFlow,
)
from netupdate import delays
from netupdate.simulator import ExecRecord
from netupdate.topology import label_change_update

# testbed-style 99.9th percentile bounds used across duration experiments (ms)
DC_NS = 4_865_000
DN_NS = 262_000
DELTA_NS = 5_240_000
DSCHED_NS = 1_297_000

MS = 1_000_000


@pytest.fixture
def testbed_params():
    return SystemParameters(d_c=DC_NS, d_n=DN_NS, delta_msg=DELTA_NS,
                            delta_sched=DSCHED_NS)


def child_env(**extra):
    """os.environ with this package's source first on PYTHONPATH, and extra."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(netupdate.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    return env


def line_network(link_delays_ns, ingress_port=0):
    """Chain S1 - S2 - ... with one constant-delay link per entry."""
    n = len(link_delays_ns) + 1
    switches = tuple(f"S{i}" for i in range(1, n + 1))
    links = tuple(
        Link((switches[i], 2), (switches[i + 1], 1), DelayModel.constant(d))
        for i, d in enumerate(link_delays_ns))
    return Network(switches, links, frozenset({(switches[0], ingress_port)}))


def exec_run(net: Network, initial, updates, seed: int = 0) -> RunResult:
    """A run whose executions are the (time, update) pairs, in that order."""
    return RunResult(seed=seed, params=SystemParameters(0, 0, 0, 0), net=net,
                     old_config=initial, updates=[u for _, u in updates],
                     exec_log=[ExecRecord(t, u.target, 1, u.mode, i)
                               for i, (t, u) in enumerate(updates)],
                     send_ns=[0] * len(updates), faults=[])


def line_flow_setup(total_delay_ns, hops=2, rate_pps=5000.0, flow_id="f1"):
    """(net, flow, path, initial_state, two-phase+gc procedure) over a chain.

    The chain splits total_delay_ns evenly across ``hops`` links, so the
    end-to-end constant delay equals total_delay_ns exactly.
    """
    assert total_delay_ns % hops == 0
    net = line_network([total_delay_ns // hops] * hops)
    path = list(net.switches)
    flow = TestFlow(flow_id, path[0], 0, rate_pps)
    initial, proc = label_change_update(net, [(flow, path)])
    return net, flow, path, initial, proc


def per_packet(runs) -> SimpleNamespace:
    """FlowPackets.runs expanded to per-packet lists hops, end and agrees, in
    injection order."""
    rows = [value for count, *value in runs for _ in range(count)]
    return SimpleNamespace(**{name: [row[i] for row in rows]
                              for i, name in enumerate(("hops", "end", "agrees"))})


@contextlib.contextmanager
def numpy_unloaded(budget: int):
    """delays.quantile_block as in a process that has not loaded numpy and may
    still draw budget uniforms in Python; yields delays, whose _py_uniforms_left
    says how much of it is left."""
    with mock.patch.object(delays, "sys", SimpleNamespace(modules={})), \
            mock.patch.object(delays, "_py_uniforms_left", budget):
        yield delays
