"""Experiment configuration: one JSON document describing topology,
procedure, parameters, schedule mode, flows, seeds, and an optional sweep
axis. The CLI materializes a config into concrete runs; durations in
configs accept ns/us/ms/s suffixed strings and are normalized to integer
nanoseconds on parse. Every field is read through model.field, which names
the field in its error.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

from . import consistency, planner, topology
from .delays import DEFAULT_EXP_CAP_FACTOR, DelayModel
from .model import (
    ConfigError,
    ForwardingState,
    Schedule,
    SystemParameters,
    TimedUpdateProcedure,
    UpdateProcedure,
    field,
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
PROCEDURES = ("two-phase", "two-phase+gc", "ordered", "k-phase")


def config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


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
        return DelayModel.exponential(
            mean, field(spec, "cap", path, "duration", lo=1 if mean else None, default=None))
    samples = field(spec, "samples", path, "non-empty list")
    return DelayModel.empirical(
        [field(samples, i, f"{path}.samples", "duration") for i in range(len(samples))])


class Point(NamedTuple):
    """One fully materialized experiment point (a single sweep position)."""

    net: object
    params: SystemParameters
    proc: UpdateProcedure
    initial_state: ForwardingState
    flows: list
    rate_fields: dict   # flow_id -> the config field of its rate, e.g. "flows[0].rate_pps"
    mode: str
    knob_d: int | None
    start_time: int
    delays: RunDelays | None

    def schedule(self) -> Schedule:
        if self.mode == "timed-worst-case":
            return planner.worst_case_schedule(self.proc, self.start_time, self.params)
        if self.mode == "timed-knob":
            if self.proc.num_phases != 3 or self.proc.gc_phases() != frozenset({3}):
                raise ConfigError(
                    "mode: timed-knob requires a two-phase + garbage-collection procedure")
            return consistency.knob_schedule(self.start_time, self.knob_d, self.params)
        if self.mode == "simultaneous":
            return Schedule.build(dict.fromkeys(range(1, self.proc.num_phases + 1),
                                                self.start_time))
        raise ConfigError(f"mode: {self.mode!r} has no schedule")

    def plan(self):
        """(untimed_worst_ns, timed_worst_ns, timed_wins) for this point; the
        configured schedule of timed-knob and simultaneous sets timed_worst_ns."""
        timed, untimed, wins = planner.compare_timed_untimed(self.proc, self.params)
        if self.mode in ("timed-knob", "simultaneous"):
            sched = self.schedule()
            timed = sched.last_time() + self.params.delta_sched - sched.first_time()
            wins = timed < untimed
        return untimed, timed, wins

    def run(self, seed: int):
        """Simulate this point under one seed; returns (RunResult, reports)."""
        if self.mode == "untimed-greedy":
            run = run_untimed(self.net, self.proc, self.params, self.delays,
                              seed=seed, initial_state=self.initial_state,
                              start_time=self.start_time)
        else:
            tproc = TimedUpdateProcedure(self.proc, self.schedule())
            run = run_timed(self.net, tproc, self.params, self.delays,
                            seed=seed, initial_state=self.initial_state)
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
    """switches, named path, if it is a non-empty list of switches of net."""
    for i in range(len(field(switches, None, path, "non-empty list"))):
        field(switches, i, path, net.ports)
    return switches


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
        self.hash = config_hash(doc)
        self._net = None   # the network, once materialize has built it

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
        if kind in ("ordered", "k-phase"):
            phases = field(spec, "phases", "procedure", "non-empty list")
            sets = [_switches(net, phases[j], f"procedure.phases[{j}]")
                    for j in range(len(phases))]
            gc = field(spec, "gc_phases", "procedure", "list", default=[])
            return topology.stub_update(net, sets, frozenset(
                field(gc, i, "procedure.gc_phases", "int", lo=1, hi=len(sets))
                for i in range(len(gc))))
        if flows:
            old_tag, new_tag = (field(spec, key, "procedure", "string", default=tag)
                                for key, tag in (("old_tag", "A"), ("new_tag", "B")))
            initial, proc = topology.label_change_update(
                net, [(f, paths[f.flow_id]) for f in flows], old_tag, new_tag)
            if kind == "two-phase":
                proc = UpdateProcedure(tuple((u, p) for u, p in proc.items if p <= 2))
            return proc, initial
        phase2 = (_switches(net, spec["phase2_switches"], "procedure.phase2_switches")
                  if "phase2_switches" in spec else None)
        try:
            proc = topology.policy_update(net, phase2, with_gc=kind == "two-phase+gc")
        except ValueError as exc:
            raise ConfigError(f"procedure: {exc}") from None
        return proc, topology.policy_initial_state(net)

    def materialize(self, axis_value=None, axis_field: str = "sweep.grid") -> Point:
        """The Point with the swept field set to axis_value, which errors name
        axis_field. The network is built once and reused unless the axis is N."""
        def read(axis, container, key, path, kind, **bounds):
            if self.axis == axis:
                return field(axis_value, None, axis_field, kind, **bounds)
            return field(container, key, path, kind, **bounds)

        if self.axis == "N" or self._net is None:
            self._net = self._build_network(read, axis_field)
        net = self._net
        flows, paths, rate_fields = self._build_flows(net)
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
        proc, initial = self._build_procedure(net, flows, paths)

        knob_d = None
        if self.mode == "timed-knob":
            knob_d = read("d", self.doc, "knob_d", "", "duration")
        elif self.axis == "d":
            raise ConfigError("sweep.axis: 'd' sweeps require timed-knob mode")

        delays = None
        dspec = field(self.doc, "delays", "", "object", default=None)
        if dspec is not None:
            delays = RunDelays(ctrl=_delay_model(dspec, "ctrl", DelayModel.uniform(params.d_c)),
                               gap=_delay_model(dspec, "gap", DelayModel.uniform(params.delta_msg)))

        start_time = field(self.doc, "start_time", "", "duration", default=10**9)
        return Point(net=net, params=params, proc=proc, initial_state=initial,
                     flows=flows, rate_fields=rate_fields, mode=self.mode, knob_d=knob_d,
                     start_time=start_time, delays=delays)

    def points(self):
        """(axis_value_or_None, Point) for every sweep position."""
        if self.axis is None:
            yield None, self.materialize()
        else:
            for i, value in enumerate(self.grid):
                yield value, self.materialize(value, f"sweep.grid[{i}]")
