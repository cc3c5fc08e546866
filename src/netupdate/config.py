"""Experiment configuration: one JSON document describing topology,
procedure, parameters, schedule mode, flows, seeds, and an optional sweep
axis. The CLI materializes a config into concrete runs; durations in
configs accept ns/us/ms/s suffixed strings and are normalized to integer
nanoseconds on parse. Every field is read through model.field, which names
the field in its error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from . import consistency, topology
from .delays import DEFAULT_EXP_CAP_FACTOR, DelayModel
from .model import (
    ConfigError,
    ForwardingState,
    Schedule,
    SystemParameters,
    TimedUpdateProcedure,
    UpdateProcedure,
    config_hash,
    field,
    lookup_rule,
    parse_duration,  # noqa: F401 - part of this module's API
)
from .simulator import (
    PacketCapError,
    RunDelays,
    TimeRangeError,
    run_flows,
    run_timed,
    run_untimed,
)

MODES = ("untimed-greedy", "timed-worst-case", "timed-knob", "simultaneous")
AXES = ("N", "dc", "dn", "delta_sched", "d")
PROCEDURES = ("two-phase", "two-phase+gc", "k-phase")


def _delay_model(dspec: dict, key: str, default: DelayModel) -> DelayModel:
    """delays[key] as a DelayModel, or default if it is absent."""
    spec, path = field(dspec, key, "delays", "object", default=None), f"delays.{key}"
    if spec is None:
        return default
    kind = field(spec, "kind", path, ("constant", "uniform", "exponential", "empirical"))
    if kind == "constant":
        return DelayModel.constant(field(spec, "value", path, "duration"))
    if kind == "uniform":
        return DelayModel.uniform(field(spec, "hi", path, "duration"))
    if kind == "exponential":
        mean = field(spec, "mean", path, "duration")
        cap = field(spec, "cap", path, "duration", lo=1 if mean else None, default=None)
        try:  # the default cap, 10 x mean, may pass int64
            return DelayModel.exponential(mean, cap)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    samples = field(spec, "samples", path, "non-empty list")
    return DelayModel.empirical(
        [field(samples, i, f"{path}.samples", "duration") for i in range(len(samples))])


class Point(NamedTuple):
    """One fully materialized experiment point (a single sweep position); its
    schedule is None for untimed-greedy, whose controller waits out each phase."""

    net: object
    params: SystemParameters
    proc: UpdateProcedure
    initial_state: ForwardingState
    flows: list
    rate_fields: dict   # flow_id -> the config field of its rate, e.g. "flows[0].rate_pps"
    schedule: Schedule | None
    start_time: int
    delays: RunDelays | None

    def plan(self):
        """(untimed_worst_ns, timed_worst_ns, timed_wins) for this point; a timed
        point plans its own worst case, an untimed one the worst-case schedule's."""
        from . import planner

        timed, untimed, _ = planner.compare_timed_untimed(self.proc, self.params)
        if self.schedule is not None:
            timed = self.worst_ns()
        return untimed, timed, timed < untimed

    def worst_ns(self) -> int:
        """The planned worst case of this point's own mode: a timed point's schedule
        span plus delta_sched, which needs no planner, else plan()'s untimed one."""
        if (sched := self.schedule) is None:
            return self.plan()[0]
        return sched.last_time() + self.params.delta_sched - sched.first_time()

    def run(self, seed: int):
        """Simulate this point under one seed; returns (RunResult, reports)."""
        if self.schedule is None:
            run = run_untimed(self.net, self.proc, self.params, self.delays,
                              seed=seed, initial_state=self.initial_state,
                              start_time=self.start_time)
        else:
            run = run_timed(self.net, TimedUpdateProcedure(self.proc, self.schedule), self.params,
                            self.delays, seed=seed, initial_state=self.initial_state)
        reports = []
        if self.flows:
            try:
                run_flows(self.net, run, self.flows)
            except PacketCapError as exc:
                raise ConfigError(f"{self.rate_fields[exc.flow_id]}: {exc}") from None
            except TimeRangeError as exc:
                raise ConfigError(f"topology: {exc}") from None
            reports = [consistency.measure_inconsistency(run, f)
                       for f in sorted(self.flows, key=lambda f: f.flow_id)]
        return run, reports


def _switches(net, switches, path: str) -> list:
    """switches, named path, if it is a non-empty list of distinct switches of net."""
    for i in range(len(field(switches, None, path, "non-empty list"))):
        if field(switches, i, path, net.ports) in switches[:i]:
            raise ConfigError(f"{path}[{i}]: duplicate switch {switches[i]!r}")
    return switches


def _check_routes(net, flows, paths, initial, proc, note: str) -> None:
    """Raise a ConfigError unless both configurations deliver each flow along its path."""
    new = initial.apply(*(u for u, _ in proc.items)) if flows else initial
    for i, flow in enumerate(flows):
        for name, state in (("old", initial), ("new", new)):
            path, port, tag = paths[flow.flow_id], flow.ingress_port, None
            for j, switch in enumerate(path):
                action = lookup_rule(state.tables[switch], flow.flow_id, tag, port)
                if action.kind == "deliver" and j + 1 == len(path):
                    break
                peer = net.peer(switch, action.out_port)
                if peer is None or j + 1 == len(path) or peer[0] != path[j + 1]:
                    how = "drops" if action.kind == "drop" else "misroutes"
                    raise ConfigError(f"flows[{i}].path: the {name} configuration {how} "
                                      f"{flow.flow_id} at {switch!r}{note}")
                port, tag = peer[1], action.new_tag if action.kind == "forward_tagged" else tag


class Experiment:
    """Parsed experiment configuration plus sweep materialization.

    seeds, axis and grid override the document's (the CLI's --seeds, --axis
    and --grid); they are written into the document, so its hash covers them.
    """

    def __init__(self, doc: dict, base_dir: Path | None = None,
                 seeds=None, axis=None, grid=None):
        doc = dict(field(doc, None, "config", "object"))
        if seeds is not None:
            doc["seeds"] = seeds
        if axis is not None or grid is not None:
            sweep = doc.get("sweep")
            sweep = dict(sweep) if isinstance(sweep, dict) else {}
            sweep.update({k: v for k, v in (("axis", axis), ("grid", grid)) if v is not None})
            doc["sweep"] = sweep
        self.doc = doc
        self.base_dir = base_dir or Path(".")
        self.mode = field(doc, "mode", "", MODES, default="untimed-greedy")
        seeds = field(doc, "seeds", "", "non-empty list", default=[0])
        self.seeds = [field(seeds, i, "seeds", "int", lo=0) for i in range(len(seeds))]
        sweep = field(doc, "sweep", "", "object", default=None)
        self.axis = None if sweep is None else field(sweep, "axis", "sweep", AXES)
        self.grid = [] if sweep is None else field(sweep, "grid", "sweep", "non-empty list")
        if self.axis == "d" and self.mode != "timed-knob":
            raise ConfigError("sweep.axis: 'd' sweeps require timed-knob mode")
        self.hash = config_hash(doc)
        self._built = None   # materialize's network, flows and procedure, routes checked

    @classmethod
    def load(cls, path, **overrides) -> "Experiment":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config: file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {path}: {exc}") from None
        return cls(doc, base_dir=path.parent, **overrides)

    # -- materialization ---------------------------------------------------

    def _build_network(self, read, axis_field: str):
        spec = field(self.doc, "topology", "", "object")
        if field(spec, "kind", "topology", ("leaf_spine", "file")) == "leaf_spine":
            n = read("N", spec, "n", "topology", "int", lo=3, hi=topology.MAX_LEAF_SPINE_N)
            try:
                return topology.leaf_spine(n)
            except ValueError as exc:
                raise ConfigError(f"{axis_field if self.axis == 'N' else 'topology.n'}: "
                                  f"{exc}") from None
        if self.axis == "N":
            raise ConfigError("sweep.axis: N sweeps require a leaf_spine topology")
        path = Path(field(spec, "path", "topology", "string"))
        if not path.is_absolute():
            path = self.base_dir / path
        if not path.is_file():
            raise ConfigError(f"topology.path: file not found: {path}")
        options = dict(
            propagation_us_per_km=field(spec, "propagation_us_per_km", "topology", "number",
                                        lo=0, hi=10**6, default=5.0),
            delay_mode=field(spec, "delay_mode", "topology", topology.DELAY_MODES,
                             default="constant"),
            cap_factor=field(spec, "cap_factor", "topology", "number", lo=1, hi=10**6,
                             default=DEFAULT_EXP_CAP_FACTOR))
        try:
            return topology.load_topology(path, **options)
        except ValueError as exc:
            raise ConfigError(f"topology: {exc}") from None

    def _build_flows(self, net):
        flows, paths, rate_fields = [], {}, {}
        specs = field(self.doc, "flows", "", "non-empty list", default=[])
        ingress = dict.fromkeys(sw for sw in net.switches
                                if (sw, topology.INGRESS_PORT) in net.ingress_ports)
        for i in range(len(specs)):
            spec, where = field(specs, i, "flows", "object"), f"flows[{i}]"
            flow_id = field(spec, "flow_id", where, "string")
            if flow_id in paths:
                raise ConfigError(f"{where}.flow_id: duplicate id {flow_id!r}")
            switch = field(spec, "ingress", where, ingress)
            path = field(spec, "path", where, "non-empty list")
            field(path, 0, f"{where}.path", (switch,))
            for j in range(1, len(path)):
                if net.link_between(path[j - 1], field(path, j, f"{where}.path", "node")) is None:
                    raise ConfigError(f"{where}.path[{j}]: no link between "
                                      f"{path[j - 1]!r} and {path[j]!r}")
            rate_key = "mbps" if "mbps" in spec and "rate_pps" not in spec else "rate_pps"
            args = (flow_id, switch, topology.INGRESS_PORT,
                    float(field(spec, rate_key, where, "number")))
            make = consistency.TestFlow
            if rate_key == "mbps":
                make = consistency.TestFlow.from_bitrate
                args += (field(spec, "packet_bytes", where, "int", lo=1, default=1000),)
            try:
                flow = make(*args)
            except ValueError as exc:
                raise ConfigError(f"{where}.{rate_key}: {exc}") from None
            flows.append(flow)
            paths[flow_id] = path
            rate_fields[flow_id] = f"{where}.{rate_key}"
        return flows, paths, rate_fields

    def _build_procedure(self, net, flows, paths):
        spec = field(self.doc, "procedure", "", "object", default={"kind": "two-phase+gc"})
        kind = field(spec, "kind", "procedure", PROCEDURES)
        if kind == "k-phase":
            phases = field(spec, "phases", "procedure", "non-empty list")
            sets = [_switches(net, phases[j], f"procedure.phases[{j}]")
                    for j in range(len(phases))]
            gc = field(spec, "gc_phases", "procedure", "list", default=[])
            return (*topology.stub_update(net, sets, frozenset(
                field(gc, i, "procedure.gc_phases", "int", lo=1, hi=len(sets))
                for i in range(len(gc)))), " (k-phase procedures install no flow rules)")
        if flows:
            old_tag = field(spec, "old_tag", "procedure", "string", default="A")
            new_tag = field(spec, "new_tag", "procedure", "string", default="B")
            if new_tag == old_tag:   # phase 3 would remove the flows' only rules
                raise ConfigError(f"procedure.new_tag: expected a string other than old_tag "
                                  f"{old_tag!r}, got {new_tag!r}")
            initial, proc = topology.label_change_update(
                net, [(f, paths[f.flow_id]) for f in flows], old_tag, new_tag)
            if kind == "two-phase":
                proc = UpdateProcedure(tuple((u, p) for u, p in proc.items if p <= 2))
            return proc, initial, ""
        phase2 = (_switches(net, spec["phase2_switches"], "procedure.phase2_switches")
                  if "phase2_switches" in spec else None)
        try:
            proc = topology.policy_update(net, phase2, with_gc=kind == "two-phase+gc")
        except ValueError as exc:
            raise ConfigError(f"procedure: {exc}") from None
        return proc, topology.policy_initial_state(net), ""

    def materialize(self, axis_value=None, axis_field: str = "sweep.grid") -> Point:
        """The Point with the swept field set to axis_value, which errors name
        axis_field. The network, flows and procedure are built, and their routes
        checked, once (at each point of an N axis); a point reads its params, delays
        and schedule, and timed-knob its knob d after the two-phase + GC check."""
        def read(axis, container, key, path, kind, **bounds):
            if self.axis == axis:
                return field(axis_value, None, axis_field, kind, **bounds)
            return field(container, key, path, kind, **bounds)

        if self.axis == "N" or self._built is None:
            net = self._build_network(read, axis_field)
            flows, paths, rate_fields = self._build_flows(net)
            proc, initial, note = self._build_procedure(net, flows, paths)
            _check_routes(net, flows, paths, initial, proc, note)
            self._built = net, flows, paths, rate_fields, proc, initial
        net, flows, paths, rate_fields, proc, initial = self._built
        pspec = field(self.doc, "params", "", "object")
        dn_auto = self.axis != "dn" and pspec.get("dn") == "auto"
        ns = {key: read(key, pspec, key, "params", "duration")
              for key in ("dc", "delta_msg", "delta_sched") + (() if dn_auto else ("dn",))}
        if dn_auto:
            if not flows:
                raise ConfigError("params.dn: 'auto' requires flows with paths")
            ns["dn"] = field(max(topology.path_link_bound_ns(net, paths[f.flow_id])
                                 for f in flows), None, "params.dn", "duration")
        params = SystemParameters(
            d_c=ns["dc"], d_n=ns["dn"], delta_msg=ns["delta_msg"],
            delta_sched=ns["delta_sched"],
            t_su=field(pspec, "tsu", "params", "duration", default=None))

        delays = None
        if (dspec := field(self.doc, "delays", "", "object", default=None)) is not None:
            default = RunDelays.default(params)
            delays = RunDelays(ctrl=_delay_model(dspec, "ctrl", default.ctrl),
                               gap=_delay_model(dspec, "gap", default.gap))

        start_time = field(self.doc, "start_time", "", "duration", default=10**9)
        schedule = None
        if self.mode == "timed-worst-case":
            schedule = consistency.worst_case_schedule(proc, start_time, params)
        elif self.mode == "timed-knob":
            if proc.num_phases != 3 or proc.gc_phases() != frozenset({3}):
                raise ConfigError(
                    "mode: timed-knob requires a two-phase + garbage-collection procedure")
            knob_d = read("d", self.doc, "knob_d", "", "duration")
            schedule = consistency.knob_schedule(start_time, knob_d, params)
        elif self.mode == "simultaneous":
            schedule = consistency.simultaneous_schedule(start_time, proc.num_phases)
        return Point(net=net, params=params, proc=proc, initial_state=initial,
                     flows=flows, rate_fields=rate_fields, schedule=schedule,
                     start_time=start_time, delays=delays)

    def points(self):
        """(axis_value_or_None, Point) for every sweep position."""
        if self.axis is None:
            yield None, self.materialize()
        else:
            for i, value in enumerate(self.grid):
                yield value, self.materialize(value, f"sweep.grid[{i}]")
