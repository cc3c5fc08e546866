"""Core domain types: networks, forwarding rules, and update procedures;
the config field reader and the provenance (engine version, config hash)
that every output records.

Conventions used throughout the package:

* time and durations are integer nanoseconds;
* rule tables map (flow_id, tag, in_port) keys to Actions, where
  ``tag=None`` is a wildcard that matches any packet tag (including untagged
  packets), and an exact-tag rule always wins over the wildcard;
* all types are values: mutation happens only through pure functions that
  return new objects. Rule tables are plain dicts shared copy-on-write
  between forwarding states, so a table must never be mutated once it is
  part of a state.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .delays import DelayModel

MAX_DURATION_NS = 10**18  # about 31.7 years: the cap on every configured or traced duration

# Version of the simulation engine, written into every output. Bump it when
# a change moves simulated outputs for an unchanged config and seeds.
ENGINE_VERSION = 3

_DURATION_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(ns|us|ms|s)\s*$")
_UNIT_NS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}
_REQUIRED = object()
_KINDS = {  # kind -> (what a value of it is, its test)
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "non-empty list": ("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0),
    "string": ("a string", lambda v: isinstance(v, str)),
    "node": ("a node name", lambda v: not isinstance(v, (list, dict))),
    "int": ("an integer", lambda v: type(v) is int),
    "number": ("a number", lambda v: type(v) in (int, float) and math.isfinite(v)),
}


def _log(level: str, msg: str, *args) -> None:
    """Log to the netupdate.model logger; logging is imported by the first message."""
    import logging

    getattr(logging.getLogger(__name__), level)(msg, *args)


class ConfigError(ValueError):
    """Invalid experiment configuration or topology file; the message names the field."""


def config_hash(doc: dict) -> str:
    """The 12-hex-digit digest of doc that every output's metadata records."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def parse_duration(value, field: str = "duration") -> int:
    """'5.24ms' / '200us' / a number of ns, or its digits -> integer nanoseconds.

    Durations must be finite and at most MAX_DURATION_NS, so that sums of a
    few of them stay far inside the int64 nanosecond range.
    """
    ns = math.nan
    if type(value) in (int, float):
        ns = value
    elif isinstance(value, str) and (m := _DURATION_RE.match(value)):
        ns = float(m.group(1)) * _UNIT_NS[m.group(2)]
    elif isinstance(value, str) and value.strip().isdecimal():  # "²" is a digit, not decimal
        ns = int(value.strip())
    # NaN fails every comparison, so test for the valid range
    if not 0 <= ns <= MAX_DURATION_NS:
        raise ConfigError(f"{field}: expected a duration in [0, 10^18] ns, got {value!r}")
    return int(round(ns))


def field(container, key, path: str, kind, lo=None, hi=None, default=_REQUIRED):
    """container[key] if it holds a kind: the one reader of config and topology fields.

    path names container ("" for a document's top level); key None reads
    container itself, under the name path. kind is a key of _KINDS,
    "duration" (read as parse_duration's ns), or a collection of the allowed
    values; lo and hi bound a number. An absent key reads as default, and is
    an error without one; null is a value like any other. The ConfigError
    starts with the field's full path: "{path}: required" or
    "{path}: expected {what}, got {value!r}".
    """
    name = path if key is None else f"{path}[{key}]" if type(key) is int else (
        f"{path}.{key}" if path else key)
    try:
        value = raw = container if key is None else container[key]
    except KeyError:
        if default is _REQUIRED:
            raise ConfigError(f"{name}: required") from None
        return default
    if kind == "duration":
        what, ok, value = "a duration", True, parse_duration(raw, name)
    elif isinstance(kind, str):
        what, test = _KINDS[kind]
        ok = test(value)
    else:
        shown = ", ".join(map(repr, list(kind)[:5])) + (", ..." if len(kind) > 5 else "")
        what, ok = f"one of {shown}", not isinstance(value, (list, dict)) and value in kind
    if lo is not None or hi is not None:
        what += (f" in [{lo}, {hi}]" if lo is not None and hi is not None
                 else f" >= {lo}" if lo is not None else f" <= {hi}")
        ok = ok and (lo is None or lo <= value) and (hi is None or value <= hi)
    if not ok:
        raise ConfigError(f"{name}: expected {what}, got {raw!r}")
    return value


def validated(record):
    """Make every construction path of the NamedTuple record run record._validate:
    the constructor, _make, _replace (which calls _make), copy and pickle."""
    new = record.__new__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._validate()
        return self

    record.__new__ = staticmethod(__new__)
    record._make = classmethod(lambda cls, iterable: cls(*iterable))
    return record


@validated
class SystemParameters(NamedTuple):
    """Delay and accuracy bounds that drive planning and simulation.

    d_c        upper bound on controller-to-switch delay, install included
    d_n        upper bound on end-to-end network delay
    delta_msg  upper bound on the gap between consecutive controller sends
    delta_sched upper bound on scheduling error: a command scheduled for
               clock time T runs at real time within [T, T + delta_sched]
    t_su       lead time for delivering scheduled commands; None lets the
               simulator pick d_c + delta_msg * message_count
    """

    d_c: int
    d_n: int
    delta_msg: int
    delta_sched: int
    t_su: int | None = None

    def _validate(self):
        for name in ("d_c", "d_n", "delta_msg", "delta_sched"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.t_su is not None and self.t_su < 0:
            raise ValueError("t_su must be >= 0 or None")


class Action(NamedTuple):
    """What a switch does with a matched packet.

    kind is "forward", "forward_tagged", "drop", or "deliver".
    forward_tagged rewrites the packet tag before forwarding; it is how an
    ingress switch stamps a configuration version onto incoming packets.
    """

    kind: str
    out_port: int | None = None
    new_tag: str | None = None

    @classmethod
    def forward(cls, out_port: int) -> "Action":
        return cls("forward", out_port=out_port)

    @classmethod
    def forward_tagged(cls, out_port: int, new_tag: str) -> "Action":
        return cls("forward_tagged", out_port=out_port, new_tag=new_tag)


DROP = Action("drop")
DELIVER = Action("deliver")


class Link(NamedTuple):
    """Bidirectional link between two (switch, port) endpoints."""

    a: tuple
    b: tuple
    delay: DelayModel


class Network:
    """Switches, ports, links, and the ingress ports facing the outside world.

    Treated as immutable after construction. Ports are collected from links
    and ingress declarations; a port belongs to at most one of those roles,
    which the constructor checks link end by link end. The peer and link
    maps behind peer() and link_between() are built on first use, since a
    run without flows never looks a link up.
    """

    def __init__(self, switches, links, ingress_ports):
        self.switches = tuple(switches)
        self.links = tuple(links)
        self.ingress_ports = frozenset(ingress_ports)
        self.ports = {s: set() for s in self.switches}
        if len(self.ports) != len(self.switches):
            raise ValueError("duplicate switch ids")
        for sw, port in (end for a, b, _ in self.links for end in (a, b)):
            if sw not in self.ports:
                raise ValueError(f"link endpoint references unknown switch {sw!r}")
            if port in self.ports[sw]:
                raise ValueError(f"port ({sw!r}, {port}) used by more than one link")
            self.ports[sw].add(port)
        for sw, port in self.ingress_ports:
            if sw not in self.ports:
                raise ValueError(f"ingress port references unknown switch {sw!r}")
            if port in self.ports[sw]:   # only a link end can hold it already
                raise ValueError(f"ingress port ({sw!r}, {port}) is also a link endpoint")
            self.ports[sw].add(port)

    @cached_property
    def _peer(self) -> dict:
        peer = {a: (b[0], b[1], delay) for a, b, delay in self.links}
        peer.update({b: (a[0], a[1], delay) for a, b, delay in self.links})
        return peer

    def peer(self, switch: str, port: int):
        """(peer_switch, peer_port, delay_model) reachable out of ``port``, or None."""
        return self._peer.get((switch, port))

    @cached_property
    def _between(self) -> dict:
        out = {}
        for link in self.links:
            out.setdefault(frozenset((link.a[0], link.b[0])), link)
        return out

    def link_between(self, a: str, b: str) -> Link | None:
        """The first link joining switches a and b, in either direction."""
        return self._between.get(frozenset((a, b)))


@validated
class SingletonUpdate(NamedTuple):
    """A rule-table change for exactly one switch.

    install mode writes the listed entries; remove mode deletes the listed
    keys and models garbage collection.
    """

    target: str
    entries: tuple   # sorted tuple of (rule key, Action-or-None)
    mode: str        # "install" | "remove"

    @staticmethod
    def _normalize(entries) -> tuple:
        def sort_key(item):
            (flow, tag, port), _ = item
            return (flow, tag is not None, tag or "", port)

        return tuple(sorted(entries, key=sort_key))

    @classmethod
    def install(cls, target: str, entries: dict) -> "SingletonUpdate":
        return cls(target, cls._normalize(entries.items()), "install")

    @classmethod
    def remove(cls, target: str, keys) -> "SingletonUpdate":
        return cls(target, cls._normalize((k, None) for k in keys), "remove")

    def _validate(self):
        if self.mode not in ("install", "remove"):
            raise ValueError(f"unknown update mode {self.mode!r}")
        if not self.entries:
            _log("debug", "empty singleton update for %s", self.target)


def lookup_rule(table: dict, flow_id: str, tag: str | None, port: int):
    """Resolve one (packet, port) pair against one rule table.

    Returns the Action of the exact-tag rule for the packet's tag, else of
    the wildcard-tag rule, else DROP.
    """
    if tag is not None:
        hit = table.get((flow_id, tag, port))
        if hit is not None:
            return hit
    return table.get((flow_id, None, port), DROP)


class ForwardingState(NamedTuple):
    """Per-switch rule tables.

    tables maps each switch to its rule dict {rule key: Action}.
    The mapping and its tables are frozen by convention: apply copies the
    outer mapping and the tables it changes, and shares every other table
    with the state it started from, so no table may ever be mutated.

    lookup_rule(tables[switch], ...) resolves a packet at a switch.
    """

    tables: dict  # {switch: {rule key: Action}}, never mutated

    @classmethod
    def empty(cls, net: Network) -> "ForwardingState":
        return cls({s: {} for s in net.switches})

    @classmethod
    def from_dict(cls, net: Network, rules: dict) -> "ForwardingState":
        """Build from {switch: {key: action}}; unlisted switches get empty tables."""
        return cls({s: dict(rules.get(s, {})) for s in net.switches})

    def apply(self, *updates: SingletonUpdate, warn: bool = True) -> "ForwardingState":
        """Pure application of singleton updates in order, each through apply_update.

        Copy-on-write: the outer mapping and each changed table are copied
        once, however many updates target it, so folding a whole procedure
        in one call costs O(switches + entries). A call per update copies
        the whole mapping each time; a fold that keeps every intermediate
        table copies only the target's table instead, as StateTimeline does.
        """
        tables = dict(self.tables)
        copied = set()
        for update in updates:
            if update.target not in tables:
                raise ValueError(f"update targets unknown switch {update.target!r}")
            if update.target not in copied:
                tables[update.target] = dict(tables[update.target])
                copied.add(update.target)
            apply_update(tables[update.target], update, warn)
        return ForwardingState(tables)


def apply_update(table: dict, update: SingletonUpdate, warn: bool = True) -> None:
    """Apply one singleton update in place to its target's table, a copy the
    caller owns.

    Install: the table behaves like the update's entries on its domain and
    as before elsewhere. Remove: the listed keys are deleted; deleting an
    absent key is a no-op, warned unless warn is false, so garbage
    collection stays idempotent.
    """
    if update.mode == "install":
        for key, action in update.entries:
            table[key] = action
        return
    for key, _ in update.entries:
        if key in table:
            del table[key]
        elif warn:
            _log("warning", "garbage collection: rule %r already absent on %s",
                 key, update.target)


@validated
class UpdateProcedure(NamedTuple):
    """Singleton updates grouped into phases 1..k.

    Every update of phase j must take effect before any update of phase
    j+1 does; how that is enforced (controller waits or scheduled times)
    belongs to the execution strategy, not to this container.
    """

    items: tuple  # tuple of (SingletonUpdate, phase)

    def _validate(self):
        if not self.items:
            raise ValueError("update procedure must contain at least one singleton update")
        phases = sorted({phase for _, phase in self.items})
        if phases[0] != 1 or phases != list(range(1, len(phases) + 1)):
            raise ValueError(f"phases must form a contiguous range 1..k, got {phases}")

    @property
    def num_phases(self) -> int:
        return max(phase for _, phase in self.items)

    def phase_counts(self) -> list:
        """N_j for j = 1..k."""
        counts = Counter(p for _, p in self.items)
        return [counts[j] for j in range(1, self.num_phases + 1)]

    def gc_phases(self) -> frozenset:
        """Phases consisting solely of remove-mode updates."""
        present, installs = set(), set()
        for u, p in self.items:
            present.add(p)
            if u.mode != "remove":
                installs.add(p)
        return frozenset(present - installs)


class Schedule(NamedTuple):
    """Clock times for each phase of a timed procedure.

    times is a sorted tuple of (phase, clock time). Times must be
    non-decreasing in phase order (equal times model a simultaneous update,
    which a zero scheduling error makes exact). Which phases collect garbage
    is the procedure's business, not the schedule's.
    """

    times: tuple  # sorted tuple of (phase, time)

    @classmethod
    def build(cls, times: dict) -> "Schedule":
        sched = cls(tuple(sorted(times.items())))
        ordered = [t for _, t in sched.times]
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise ValueError("schedule times must be non-decreasing in phase order")
        return sched

    def time_for_phase(self, phase: int) -> int:
        for p, t in self.times:
            if p == phase:
                return t
        raise KeyError(f"no scheduled time for phase {phase}")

    def first_time(self) -> int:
        return self.times[0][1]

    def last_time(self) -> int:
        return self.times[-1][1]


@validated
class TimedUpdateProcedure(NamedTuple):
    """An update procedure plus the clock times at which its phases run."""

    procedure: UpdateProcedure
    schedule: Schedule

    def _validate(self):
        have = {phase for phase, _ in self.schedule.times}
        need = set(range(1, self.procedure.num_phases + 1))
        missing = need - have
        if missing:
            raise ValueError(f"schedule lacks times for phases {sorted(missing)}")
