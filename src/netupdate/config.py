"""Experiment configuration: one JSON document describing topology,
procedure, parameters, schedule mode, flows, seeds, and an optional sweep
axis. The CLI materializes a config into concrete runs; durations in
configs accept ns/us/ms/s suffixed strings and are normalized to integer
nanoseconds on parse.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import NamedTuple

from . import consistency, planner, topology
from .delays import DelayModel
from .model import (
    MAX_DURATION_NS,
    ForwardingState,
    Schedule,
    SystemParameters,
    TimedUpdateProcedure,
    UpdateProcedure,
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

_DURATION_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(ns|us|ms|s)\s*$")
_UNIT_NS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def parse_duration(value, field: str = "duration") -> int:
    """'5.24ms' / '200us' / plain number (nanoseconds) -> integer nanoseconds.

    Durations must be finite and at most MAX_DURATION_NS, so that sums of a
    few of them stay far inside the int64 nanosecond range.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a duration, got {value!r}")
    if isinstance(value, (int, float)):
        if value < 0:
            raise ConfigError(f"{field}: duration must be >= 0")
        ns = value
    elif isinstance(value, str) and (m := _DURATION_RE.match(value)):
        ns = float(m.group(1)) * _UNIT_NS[m.group(2)]
    elif isinstance(value, str) and value.strip().isdigit():
        ns = int(value.strip())
    else:
        raise ConfigError(f"{field}: cannot parse duration {value!r}")
    # NaN fails every comparison, so test for the valid range
    if not 0 <= ns <= MAX_DURATION_NS:
        raise ConfigError(f"{field}: duration {value!r} is not a number of ns in [0, 10^18]")
    return int(round(ns))


def config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _parse_delay_model(spec, field: str) -> DelayModel:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{field}: expected an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "constant":
            return DelayModel.constant(parse_duration(spec["value"], f"{field}.value"))
        if kind == "uniform":
            return DelayModel.uniform(parse_duration(spec["hi"], f"{field}.hi"))
        if kind == "exponential":
            mean = parse_duration(spec["mean"], f"{field}.mean")
            cap = parse_duration(spec["cap"], f"{field}.cap") if "cap" in spec else None
            return DelayModel.exponential(mean, cap)
        if kind == "empirical":
            return DelayModel.empirical(
                [parse_duration(s, f"{field}.samples") for s in spec["samples"]])
    except KeyError as exc:
        raise ConfigError(f"{field}: missing {exc.args[0]!r}") from None
    raise ConfigError(f"{field}.kind: unknown delay model {kind!r}")


class Point(NamedTuple):
    """One fully materialized experiment point (a single sweep position)."""

    net: object
    params: SystemParameters
    proc: UpdateProcedure
    initial_state: ForwardingState
    flows: list
    flow_paths: dict
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
        """(untimed_worst_ns, timed_worst_ns, timed_wins) for this point."""
        counts, gc = self.proc.phase_counts(), self.proc.gc_phases()
        untimed = planner.untimed_worst_duration(counts, self.params, gc)
        if self.mode in ("timed-knob", "simultaneous"):
            sched = self.schedule()
            timed = sched.last_time() + self.params.delta_sched - sched.first_time()
        else:
            timed = planner.timed_worst_duration(counts, self.params, gc)
        return untimed, timed, timed < untimed

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


def _check_switches(net, switches, field):
    """A ConfigError naming field unless switches is a non-empty list of known switches."""
    if not isinstance(switches, list) or not switches:
        raise ConfigError(f"{field}: expected a non-empty list of switches, got {switches!r}")
    known = set(net.switches)
    for sw in switches:
        if isinstance(sw, (list, dict)) or sw not in known:
            raise ConfigError(f"{field}: unknown switch {sw!r}")


def _kphase_items(net, phase_sets, gc_phases):
    for j, switches in enumerate(phase_sets):
        _check_switches(net, switches, f"procedure.phases[{j}]")
    if not isinstance(gc_phases, list) or not all(
            type(j) is int and 1 <= j <= len(phase_sets) for j in gc_phases):
        raise ConfigError(f"procedure.gc_phases: expected a list of phase numbers "
                          f"in 1..{len(phase_sets)}, got {gc_phases!r}")
    return topology.stub_update(net, phase_sets, frozenset(gc_phases))


class Experiment:
    """Parsed experiment configuration plus sweep materialization."""

    def __init__(self, doc: dict, base_dir: Path | None = None):
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object")
        self.doc = doc
        self.base_dir = base_dir or Path(".")
        self.mode = doc.get("mode", "untimed-greedy")
        if self.mode not in MODES:
            raise ConfigError(f"mode: unknown mode {self.mode!r}; expected one of {MODES}")
        self._set_seeds(doc.get("seeds", [0]))
        sweep = doc.get("sweep")
        if sweep is not None:
            self._set_sweep(sweep)
        else:
            self.axis, self.grid = None, []
        self.hash = config_hash(doc)

    def _set_seeds(self, seeds) -> None:
        if not isinstance(seeds, list) or not seeds or not all(
                type(s) is int and s >= 0 for s in seeds):
            raise ConfigError(
                f"seeds: expected a non-empty list of non-negative integers, got {seeds!r}")
        self.seeds = seeds

    def _set_sweep(self, sweep) -> None:
        if not isinstance(sweep, dict):
            raise ConfigError(f"sweep: expected an object, got {sweep!r}")
        self.axis = sweep.get("axis")
        if self.axis not in AXES:
            raise ConfigError(f"sweep.axis: unknown axis {self.axis!r}; expected one of {AXES}")
        self.grid = sweep.get("grid")
        if not isinstance(self.grid, list) or not self.grid:
            raise ConfigError(f"sweep.grid: expected a non-empty list, got {self.grid!r}")

    @classmethod
    def load(cls, path) -> "Experiment":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config: file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {path}: {exc}") from None
        return cls(doc, base_dir=path.parent)

    def override(self, seeds=None, axis=None, grid=None) -> None:
        if seeds is not None:
            self._set_seeds(seeds)
            self.doc["seeds"] = seeds
        if axis is not None or grid is not None:
            sweep = dict(self.doc.get("sweep") or {})
            if axis is not None:
                sweep["axis"] = axis
            if grid is not None:
                sweep["grid"] = grid
            self._set_sweep(sweep)
            self.doc["sweep"] = sweep
        self.hash = config_hash(self.doc)

    # -- materialization ---------------------------------------------------

    def _axis_params(self, base: dict, axis_value) -> dict:
        out = dict(base)
        if self.axis in ("dc", "dn", "delta_sched"):
            out[self.axis] = parse_duration(axis_value, f"sweep.grid({self.axis})")
        return out

    def _build_network(self, axis_value):
        spec = self.doc.get("topology")
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError("topology: expected an object with a 'kind'")
        kind = spec["kind"]
        if kind == "leaf_spine":
            n = spec.get("n")
            if self.axis == "N":
                n = axis_value
            if not isinstance(n, int):
                raise ConfigError("topology.n: integer switch count required")
            try:
                return topology.leaf_spine(n)
            except ValueError as exc:
                raise ConfigError(f"topology.n: {exc}") from None
        if kind == "file":
            if self.axis == "N":
                raise ConfigError("sweep.axis: N sweeps require a leaf_spine topology")
            if "path" not in spec:
                raise ConfigError("topology.path: required for file topologies")
            path = Path(spec["path"])
            if not path.is_absolute():
                path = self.base_dir / path
            if not path.exists():
                raise ConfigError(f"topology.path: file not found: {path}")
            try:
                return topology.load_topology(
                    path,
                    propagation_us_per_km=spec.get("propagation_us_per_km", 5.0),
                    delay_mode=spec.get("delay_mode", "constant"),
                    cap_factor=spec.get("cap_factor", 10.0))
            except ValueError as exc:
                raise ConfigError(f"topology: {exc}") from None
        raise ConfigError(f"topology.kind: unknown kind {kind!r}")

    def _build_flows(self, net):
        flows, paths, rate_fields = [], {}, {}
        specs = self.doc.get("flows", [])
        if not isinstance(specs, list):
            raise ConfigError(f"flows: expected a list, got {specs!r}")
        for i, spec in enumerate(specs):
            field = f"flows[{i}]"
            if not isinstance(spec, dict):
                raise ConfigError(f"{field}: expected an object, got {spec!r}")
            for req in ("flow_id", "ingress", "path"):
                if req not in spec:
                    raise ConfigError(f"{field}.{req}: required")
            if not isinstance(spec["flow_id"], str):
                raise ConfigError(f"{field}.flow_id: expected a string, got {spec['flow_id']!r}")
            rate_key = next((k for k in ("rate_pps", "mbps") if k in spec), None)
            if rate_key is None:
                raise ConfigError(f"{field}.rate_pps: required (or mbps)")
            packet_bytes = spec.get("packet_bytes", 1000)
            if rate_key == "mbps" and (isinstance(packet_bytes, bool)
                                       or not isinstance(packet_bytes, int) or packet_bytes <= 0):
                raise ConfigError(f"{field}.packet_bytes: expected a positive integer, "
                                  f"got {packet_bytes!r}")
            try:
                args = (spec["flow_id"], spec["ingress"], topology.INGRESS_PORT,
                        float(spec[rate_key]))
                flow = (consistency.TestFlow.from_bitrate(*args, packet_bytes)
                        if rate_key == "mbps" else consistency.TestFlow(*args))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{field}.{rate_key}: {exc}") from None
            if flow.flow_id in paths:
                raise ConfigError(f"{field}.flow_id: duplicate id {flow.flow_id!r}")
            if (isinstance(flow.ingress_switch, (list, dict))
                    or (flow.ingress_switch, flow.ingress_port) not in net.ingress_ports):
                raise ConfigError(f"{field}.ingress: {spec['ingress']!r} is not an ingress node")
            path = spec["path"]
            if not isinstance(path, list) or not path or path[0] != flow.ingress_switch:
                raise ConfigError(f"{field}.path: must be a list starting at the ingress switch")
            for a, b in zip(path, path[1:]):
                if isinstance(b, (list, dict)) or net.link_between(a, b) is None:
                    raise ConfigError(f"{field}.path: no link between {a!r} and {b!r}")
            flows.append(flow)
            paths[flow.flow_id] = path
            rate_fields[flow.flow_id] = f"{field}.{rate_key}"
        return flows, paths, rate_fields

    def _build_procedure(self, net, flows, paths, old_tag, new_tag):
        spec = self.doc.get("procedure", {"kind": "two-phase+gc"})
        kind = spec.get("kind")
        if kind in ("two-phase", "two-phase+gc"):
            with_gc = kind.endswith("+gc")
            if flows:
                pairs = [(f, paths[f.flow_id]) for f in flows]
                initial, proc = topology.label_change_update(net, pairs, old_tag, new_tag)
                if not with_gc:
                    proc = UpdateProcedure(tuple(
                        (u, p) for u, p in proc.items if p <= 2))
                return proc, initial
            phase2 = spec.get("phase2_switches")
            if phase2 is not None:
                _check_switches(net, phase2, "procedure.phase2_switches")
            try:
                proc = topology.policy_update(net, phase2, with_gc=with_gc)
            except ValueError as exc:
                raise ConfigError(f"procedure: {exc}") from None
            return proc, topology.policy_initial_state(net)
        if kind in ("ordered", "k-phase"):
            phase_sets = spec.get("phases")
            if not phase_sets:
                raise ConfigError("procedure.phases: required for k-phase procedures")
            return _kphase_items(net, phase_sets, spec.get("gc_phases", []))
        raise ConfigError(f"procedure.kind: unknown kind {kind!r}")

    def materialize(self, axis_value=None) -> Point:
        net = self._build_network(axis_value)
        flows, paths, rate_fields = self._build_flows(net)
        pspec = self.doc.get("params")
        if not isinstance(pspec, dict):
            raise ConfigError("params: required object")
        raw = {}
        for key in ("dc", "dn", "delta_msg", "delta_sched"):
            if key not in pspec:
                raise ConfigError(f"params.{key}: required")
            raw[key] = pspec[key]
        raw = self._axis_params(raw, axis_value)
        if raw["dn"] == "auto":
            if not flows:
                raise ConfigError("params.dn: 'auto' requires flows with paths")
            raw["dn"] = max(topology.path_link_bound_ns(net, paths[f.flow_id])
                            for f in flows)
        params = SystemParameters(
            d_c=parse_duration(raw["dc"], "params.dc"),
            d_n=parse_duration(raw["dn"], "params.dn"),
            delta_msg=parse_duration(raw["delta_msg"], "params.delta_msg"),
            delta_sched=parse_duration(raw["delta_sched"], "params.delta_sched"),
            t_su=(parse_duration(pspec["tsu"], "params.tsu")
                  if "tsu" in pspec else None))

        proc_spec = self.doc.get("procedure", {})
        proc, initial = self._build_procedure(
            net, flows, paths,
            proc_spec.get("old_tag", "A"), proc_spec.get("new_tag", "B"))

        knob_d = None
        if self.mode == "timed-knob":
            raw_d = axis_value if self.axis == "d" else self.doc.get("knob_d")
            if raw_d is None:
                raise ConfigError("knob_d: required for timed-knob mode")
            knob_d = parse_duration(raw_d, "knob_d")
        elif self.axis == "d":
            raise ConfigError("sweep.axis: 'd' sweeps require timed-knob mode")

        delays = None
        dspec = self.doc.get("delays")
        if dspec is not None:
            delays = RunDelays(
                ctrl=_parse_delay_model(dspec.get("ctrl", {"kind": "uniform", "hi": raw["dc"]}),
                                        "delays.ctrl"),
                gap=_parse_delay_model(dspec.get("gap", {"kind": "uniform", "hi": raw["delta_msg"]}),
                                       "delays.gap"))

        start_time = parse_duration(self.doc.get("start_time", "1s"), "start_time")
        return Point(net=net, params=params, proc=proc, initial_state=initial,
                     flows=flows, flow_paths=paths, rate_fields=rate_fields,
                     mode=self.mode, knob_d=knob_d,
                     start_time=start_time, delays=delays)

    def points(self):
        """(axis_value_or_None, Point) for every sweep position."""
        if self.axis is None:
            yield None, self.materialize()
        else:
            for value in self.grid:
                yield value, self.materialize(value)
