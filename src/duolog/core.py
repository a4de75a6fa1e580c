"""Shared domain types, the common broker contract, and the journal
correctness checker.

Both engines move `Message` values and report what happened through
`Journal` objects (one for the producing side, one for the consuming side).
`check_correctness` turns a journal pair into a `CorrectnessReport` over the
three primitives: no-loss, no-duplication, no-disorder.  The report is
advisory; whether a false flag is a failure depends on the delivery mode and
is decided by the harness.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional


# --------------------------------------------------------------------------
# enums and errors
# --------------------------------------------------------------------------

class Delivery(Enum):
    AT_MOST_ONCE = "at_most_once"
    AT_LEAST_ONCE = "at_least_once"


class Ordering(Enum):
    NONE = "none"
    PER_PARTITION = "per_partition"
    PER_CHANNEL = "per_channel"
    GLOBAL_SINGLE_LANE = "global_single_lane"


class JournalEvent(Enum):
    PRODUCED = "Produced"
    CONFIRMED = "Confirmed"
    DELIVERED = "Delivered"
    ACKED = "Acked"


class BrokerError(Exception):
    """Base class for engine-level failures."""


class BrokerDown(BrokerError):
    """The node (or quorum of nodes) needed for the operation is down."""


class ValidationError(ValueError):
    """A message field violates its invariant."""

    field_name: str = "message"


class EmptyRoutingSegment(ValidationError):
    field_name = "routing_key"


class NegativeTtl(ValidationError):
    field_name = "ttl_ms"


class MismatchedFlows(ValueError):
    """The consumed journal mentions flows the produced journal does not."""


class ScenarioInvalid(ValueError):
    """A scenario or topology file, or a scenario, that cannot run as given."""


# --------------------------------------------------------------------------
# file mappings: the one reader of scenario and topology files
# --------------------------------------------------------------------------

def file_mapping(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ScenarioInvalid(f"{where} must be a JSON object, got {d!r}")
    return d


# the file types a value may have, by its field's annotation (a string: the
# modules postpone annotations), and how a refusal names them.  Types are
# exact, so true is not an integer; a field of another type is converted by
# the caller's `read` function, or taken as it is.
_NULL = type(None)
_FILE_TYPES = {
    "int": ((int,), "an integer"),
    "Optional[int]": ((int, _NULL), "an integer or null"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "Optional[str]": ((str, _NULL), "a string or null"),
    "Optional[dict]": ((dict, _NULL), "an object or null"),
    "tuple": ((list, tuple), "a list"),
}


def check_keys(keys: dict, d, where: object) -> dict:
    """Return mapping `d` if each of its keys is in `keys` (key -> annotation)
    with a value of its file type; else raise `ScenarioInvalid` naming the
    first key that is unknown or mistyped."""
    for k, v in file_mapping(d, where).items():
        if k not in keys:
            raise ScenarioInvalid(f"{where}: unknown key {k!r}")
        rule = _FILE_TYPES.get(keys[k])
        if rule is not None and type(v) not in rule[0]:
            raise ScenarioInvalid(f"{where}: {k} must be {rule[1]}, got {v!r}")
    return d


@functools.cache
def _key_table(cls) -> dict:
    return {f.name: f.type for f in fields(cls)}


def from_keys(cls, d, where: object, **read):
    """Build dataclass `cls` from file mapping `d` as `check_keys` vets it
    against the fields, passing only the keys present so every default stays
    the dataclass's; `read` maps a key to the function that converts its
    value.  A value its converter refuses, and a missing key without a
    default, raise `ScenarioInvalid` too, naming the key.  `where` names
    the mapping, and is formatted only into a refusal."""
    check_keys(_key_table(cls), d, where)
    args = {}
    for k, v in d.items():
        convert = read.get(k)
        if convert is not None:
            try:
                v = convert(v)
            except ScenarioInvalid:
                raise
            except ValueError as e:
                why = (f" must be one of {[m.value for m in convert]}, got {v!r}"
                       if isinstance(convert, type) and issubclass(convert, Enum) else f": {e}")
                raise ScenarioInvalid(f"{where}: {k}{why}") from None
        args[k] = v
    try:
        return cls(**args)
    except TypeError as e:
        raise ScenarioInvalid(f"{where}: {e}") from None


# --------------------------------------------------------------------------
# messages and QoS
# --------------------------------------------------------------------------

_FRESH_HEADERS = object()  # `Message` default: a new `{}` per instance


@dataclass(frozen=True, slots=True, init=False)
class Message:
    """The unit of transfer.

    `seq_no` values are unique and dense per `flow_id` at production time
    (0, 1, 2, ...).  `key` selects a log partition; `routing_key` drives
    exchange routing and must be dot-separated non-empty segments.
    `produced_at` is a monotonic timestamp in nanoseconds; `ttl_ms` is an
    optional time-to-live in milliseconds.

    Slotted and frozen.  `__init__` stores each field through its slot
    descriptor instead of the generated one's `object.__setattr__` per
    field, which makes a build about twice as fast; fields, `replace`,
    repr, equality, hashing and `FrozenInstanceError` stay the dataclass's.
    """

    flow_id: str
    seq_no: int
    payload: bytes = b""
    key: Optional[bytes] = None
    routing_key: Optional[str] = None
    headers: dict = field(default_factory=dict)
    produced_at: int = 0
    ttl_ms: Optional[int] = None

    def __init__(
        self,
        flow_id: str,
        seq_no: int,
        payload: bytes = b"",
        key: Optional[bytes] = None,
        routing_key: Optional[str] = None,
        headers: dict = _FRESH_HEADERS,
        produced_at: int = 0,
        ttl_ms: Optional[int] = None,
    ) -> None:
        _set_flow_id(self, flow_id)
        _set_seq_no(self, seq_no)
        _set_payload(self, payload)
        _set_key(self, key)
        _set_routing_key(self, routing_key)
        _set_headers(self, {} if headers is _FRESH_HEADERS else headers)
        _set_produced_at(self, produced_at)
        _set_ttl_ms(self, ttl_ms)


# the slot descriptors' setters, bound once for `Message.__init__`
(_set_flow_id, _set_seq_no, _set_payload, _set_key, _set_routing_key,
 _set_headers, _set_produced_at, _set_ttl_ms) = (
    getattr(Message, name).__set__ for name in Message.__slots__
)


# The frozen `__setattr__`/`__delattr__` of `Message` and of the engines'
# named-tuple records.  The ones `dataclass` generates for a slotted class
# refer to the class from before `slots=True` rebuilt it, and on some
# versions raise `TypeError` for a name that is not a field.  These raise
# `FrozenInstanceError` for every name; `__init__` never calls them.
def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


Message.__setattr__ = _frozen_setattr  # type: ignore[method-assign]
Message.__delattr__ = _frozen_delattr  # type: ignore[method-assign]


def validate_message(msg: Message) -> None:
    """Raise a `ValidationError` naming the violated field, or return None."""
    if not isinstance(msg.flow_id, str) or not msg.flow_id:
        err = ValidationError("flow_id must be a non-empty string")
        err.field_name = "flow_id"
        raise err
    if not isinstance(msg.seq_no, int) or msg.seq_no < 0:
        err = ValidationError("seq_no must be a non-negative integer")
        err.field_name = "seq_no"
        raise err
    if not isinstance(msg.payload, (bytes, bytearray)):
        err = ValidationError("payload must be bytes")
        err.field_name = "payload"
        raise err
    k = msg.routing_key
    if k is not None and (not k or k[0] == "." or k[-1] == "." or ".." in k):
        raise EmptyRoutingSegment(f"routing_key {k!r} contains an empty segment")
    if msg.ttl_ms is not None and msg.ttl_ms < 0:
        raise NegativeTtl(f"ttl_ms {msg.ttl_ms} is negative")


@dataclass(frozen=True)
class FlushPolicy:
    """Bounds on how long appended data may stay unpersisted.

    At least one bound must be finite: a count of unflushed messages or an
    age in milliseconds.
    """

    flush_interval_messages: Optional[int] = 1000
    flush_interval_ms: Optional[int] = 100

    def __post_init__(self) -> None:
        if self.flush_interval_messages is None and self.flush_interval_ms is None:
            raise ValueError("at least one flush bound must be set")
        if self.flush_interval_messages is not None and self.flush_interval_messages < 1:
            raise ValueError("flush_interval_messages must be >= 1")
        if self.flush_interval_ms is not None and self.flush_interval_ms < 0:
            raise ValueError("flush_interval_ms must be >= 0")

    def due(self, unflushed: int, elapsed_ns: int) -> bool:
        """Whether a replica with `unflushed` messages, last flushed
        `elapsed_ns` ago, must flush.  `LogEngine.append_batch` applies the
        same rule inline; a test holds the two equal."""
        if self.flush_interval_messages is not None and unflushed >= self.flush_interval_messages:
            return True
        if self.flush_interval_ms is not None and elapsed_ns >= self.flush_interval_ms * 1_000_000:
            return True
        return False


@dataclass(frozen=True)
class QoSConfig:
    """Delivery mode, ordering scope and replication factor for a scenario.

    `GLOBAL_SINGLE_LANE` implies exactly one partition (log engine) or one
    channel feeding one queue (exchange engine); that cross-field constraint
    is validated against the topology by the harness.
    """

    delivery: Delivery = Delivery.AT_LEAST_ONCE
    ordering: Ordering = Ordering.NONE
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")


# --------------------------------------------------------------------------
# journals
# --------------------------------------------------------------------------

class JournalEntry(NamedTuple):
    flow: str
    seq: int
    event: JournalEvent
    at_ns: int


# builds a named tuple (a `JournalEntry`, or an engine's record) without
# its Python-level `__new__`
_new_tuple = tuple.__new__
# the JSON text of each event, keyed by its value string: str hashing is
# done in C, where an Enum key would call Enum.__hash__ for every line
_EVENT_JSON = {ev.value: json.dumps(ev.value) for ev in JournalEvent}


class Journal:
    """Append-only event journal, safe for concurrent appenders.

    Timestamps must be non-decreasing per flow; engines serialize their own
    appends, the lock here covers multi-worker benchmark use.  Entries are
    kept as exact `(flow, seq, event, at_ns)` tuples, which the interpreter
    unpacks faster than named tuples, and `entries` hands them out as
    `JournalEntry`s.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[str, int, JournalEvent, int]] = []
        self._last_at: dict[str, int] = {}
        self._lock = threading.Lock()

    def append(self, flow: str, seq: int, event: JournalEvent, at_ns: int) -> None:
        lock = self._lock
        lock.acquire()
        try:
            last_at = self._last_at
            last = last_at.get(flow)
            if last is not None and at_ns < last:
                raise ValueError(
                    f"journal timestamps must be non-decreasing per flow "
                    f"({flow}: {at_ns} < {last})"
                )
            last_at[flow] = at_ns
            self._entries.append((flow, seq, event, at_ns))
        finally:
            lock.release()

    def _rows(self) -> list[tuple[str, int, JournalEvent, int]]:
        """A snapshot of the entries as exact tuples, read once under the lock."""
        with self._lock:
            return self._entries[:]

    @property
    def entries(self) -> tuple[JournalEntry, ...]:
        return tuple([_new_tuple(JournalEntry, row) for row in self._rows()])

    def flows(self) -> set[str]:
        return {flow for flow, _, _, _ in self._rows()}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[JournalEntry]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Journal):
            return NotImplemented
        return self._rows() == other._rows()

    def to_jsonl(self) -> str:
        """One event per line: {"flow":…,"seq":…,"event":…,"at_ns":…}.

        Byte-identical to `json.dumps` of that dict with compact separators;
        each flow id is JSON-encoded once per call."""
        flow_json: dict = {}
        lines = []
        for flow, seq, event, at_ns in self._rows():
            fj = flow_json.get(flow)
            if fj is None:
                fj = flow_json[flow] = json.dumps(flow)
            lines.append(
                f'{{"flow":{fj},"seq":{seq},"event":{_EVENT_JSON[event._value_]},"at_ns":{at_ns}}}\n'
            )
        return "".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Journal":
        j = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            j.append(obj["flow"], obj["seq"], JournalEvent(obj["event"]), obj["at_ns"])
        return j


# --------------------------------------------------------------------------
# correctness checking
# --------------------------------------------------------------------------

class ViolationKind(Enum):
    LOSS = "loss"
    DUPLICATION = "duplication"
    DISORDER = "disorder"


@dataclass(frozen=True)
class Violation:
    flow: str
    seq: int
    kind: ViolationKind
    detail: str


@dataclass(frozen=True)
class CorrectnessReport:
    no_loss: bool
    no_duplication: bool
    no_disorder: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "CorrectnessReport":
        vs = tuple(violations)
        kinds = {v.kind for v in vs}
        return cls(
            no_loss=ViolationKind.LOSS not in kinds,
            no_duplication=ViolationKind.DUPLICATION not in kinds,
            no_disorder=ViolationKind.DISORDER not in kinds,
            violations=vs,
        )

    def to_dict(self) -> dict:
        return {
            "no_loss": self.no_loss,
            "no_duplication": self.no_duplication,
            "no_disorder": self.no_disorder,
            "violations": [
                {"flow": v.flow, "seq": v.seq, "kind": v.kind.value, "detail": v.detail}
                for v in self.violations
            ],
        }


_PRODUCED, _CONFIRMED, _DELIVERED = (
    JournalEvent.PRODUCED, JournalEvent.CONFIRMED, JournalEvent.DELIVERED
)


def check_correctness(produced: Journal, consumed: Journal, qos: QoSConfig) -> CorrectnessReport:
    """Check a journal pair against the three correctness primitives.

    - no_loss: every produced (flow, seq) that was confirmed appears
      delivered at least once.  Messages produced but never confirmed carry
      no delivery obligation (ownership never transferred to the broker).
    - no_duplication: no (flow, seq) is delivered more than once.
    - no_disorder: per ordering lane, first deliveries of each seq are
      monotonically increasing; duplicate deliveries of an already-seen seq
      do not count as disorder.  With `Ordering.NONE` there are no lanes and
      the flag is vacuously true.

    Pure function: same journals in, same report out.  Raises
    `MismatchedFlows` if the consumed journal mentions flows the produced
    journal does not (flows produced but never delivered are loss evidence,
    not an input error).
    """
    produced_rows = produced._rows()
    consumed_rows = consumed._rows()

    stray = {flow for flow, _, _, _ in consumed_rows} - {flow for flow, _, _, _ in produced_rows}
    if stray:
        raise MismatchedFlows(f"consumed journal has unknown flows: {sorted(stray)}")

    produced_set: set[tuple[str, int]] = set()
    confirmed: set[tuple[str, int]] = set()
    for flow, seq, event, _ in produced_rows:
        if event is _PRODUCED:
            key = (flow, seq)
            if key in produced_set:
                raise ValueError(f"production journal must be duplicate-free, saw {key} twice")
            produced_set.add(key)
        elif event is _CONFIRMED:
            confirmed.add((flow, seq))

    # (flow, seq) of every delivery, in delivery order
    delivered = [(flow, seq) for flow, seq, event, _ in consumed_rows if event is _DELIVERED]
    delivered_set = set(delivered)

    violations: list[Violation] = [
        Violation(flow, seq, ViolationKind.LOSS, "confirmed but never delivered")
        for flow, seq in sorted(produced_set & confirmed - delivered_set)
    ]

    # the first delivery of each (flow, seq), in delivery order
    firsts: Iterable[tuple[str, int]] = delivered
    if len(delivered_set) < len(delivered):
        counts = Counter(delivered)
        violations += [
            Violation(flow, seq, ViolationKind.DUPLICATION, f"delivered {n} times")
            for (flow, seq), n in sorted(counts.items())
            if n > 1
        ]
        firsts = counts  # a Counter keeps its keys in first-seen order

    if qos.ordering is not Ordering.NONE:
        max_first: dict[str, int] = {}
        for flow, seq in firsts:
            prev = max_first.get(flow)
            if prev is not None and seq < prev:
                violations.append(
                    Violation(
                        flow,
                        seq,
                        ViolationKind.DISORDER,
                        f"first delivery after seq {prev} was already seen",
                    )
                )
            else:
                max_first[flow] = seq

    return CorrectnessReport.from_violations(violations)


# --------------------------------------------------------------------------
# the contract both engines implement
# --------------------------------------------------------------------------

@dataclass
class SimNode:
    """A simulated node; crash and restart flip `alive`."""

    node_id: str
    alive: bool = True


def spin_ns(ns: int) -> None:
    """Spend a modeled device cost: sleep for long waits, busy-wait for
    short ones that a sleep would overshoot."""
    if ns >= 20_000:
        time.sleep(ns / 1e9)
    else:
        deadline = time.perf_counter_ns() + ns
        while time.perf_counter_ns() < deadline:
            pass


class BrokerContract:
    """The node set both engines run over, and their lifecycle surface.

    Engines are in-process objects over a set of simulated nodes, given as a
    count (named n0, n1, ...) or a list of names; crash and restart model
    volatile-state loss and recovery.  Each engine names the error it raises
    for an unknown node in `_unknown_node`, and calls `fault_hook`, when one
    is set, with its own injection-point arguments.
    """

    _unknown_node: Callable[[str], Exception]

    def __init__(self, nodes: int | Iterable[str], clock: Clock) -> None:
        node_ids = [f"n{i}" for i in range(nodes)] if isinstance(nodes, int) else list(nodes)
        if not node_ids:
            raise ValueError("need at least one node")
        self.nodes: dict[str, SimNode] = {nid: SimNode(nid) for nid in node_ids}
        self.clock = clock
        self.fault_hook: Optional[Callable[..., None]] = None

    def _node(self, node_id: str) -> SimNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise self._unknown_node(node_id)
        return node

    def _fire_fault(self, *where) -> None:
        if self.fault_hook is not None:
            self.fault_hook(*where)


Clock = Callable[[], int]
