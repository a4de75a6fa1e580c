"""Deterministic scenario runner with fault injection.

A scenario drives one engine through a virtual-time event loop: producers
publish flows of sequenced messages, consumers drain them, and a fault plan
crashes nodes, drops or delays acknowledgments, duplicates deliveries or
crashes consumers at chosen points.  Everything — scheduling jitter,
backoff, fault timing — comes from the scenario seed and a logical clock,
so the same (scenario, seed) pair always yields byte-identical journals.

The run records the ownership-transfer timeline per message: produced,
handled by the broker, confirmed to the producer, delivered to a consumer,
and finally acknowledged (exchange engine) or retained until expiry (log
engine, which keeps no consumer state).
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .core import (
    BrokerDown,
    Clock,
    CorrectnessReport,
    Delivery,
    FlushPolicy,
    Journal,
    JournalEvent,
    Message,
    Ordering,
    QoSConfig,
    check_correctness,
)
from .exchbroker import ConsumeMode, ExchEngine, UnknownTag
from .logbroker import ACK_MODES, LogAckMode, LogEngine, OffsetOutOfRange, TopicConfig


class ScenarioInvalid(ValueError):
    pass


class NondeterminismDetected(RuntimeError):
    pass


def _mapping(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ScenarioInvalid(f"{where} must be a JSON object, got {d!r}")
    return d


# integer fields by their annotation (a string: the modules postpone
# annotations), and whether the field also takes None
_INTEGER_FIELDS = {"int": False, "Optional[int]": True}


def _from_keys(cls, d, where: str, **read):
    """Build dataclass `cls` from scenario-file mapping `d`, passing only the
    keys present so every default stays the dataclass's; `read` maps a key
    to the function that converts its value.  An unknown key, a missing one
    that has no default, or a value of an integer field that is not an
    integer (a "2", 2.0 or true would fail deep in a run) raises
    `ScenarioInvalid`."""
    d = _mapping(d, where)
    for f in fields(cls):
        if f.name in d and f.type in _INTEGER_FIELDS:
            value = d[f.name]
            if type(value) is not int and not (value is None and _INTEGER_FIELDS[f.type]):
                raise ScenarioInvalid(f"{where}: {f.name} must be an integer, got {value!r}")
    try:
        return cls(**{k: read[k](v) if k in read else v for k, v in d.items()})
    except TypeError as e:
        raise ScenarioInvalid(f"{where}: {e}") from None


# -- virtual time costs (ns); arbitrary but fixed ---------------------------

T_PRODUCE_GAP = 200_000
T_HANDLE = 50_000
T_CONFIRM_TRAVEL = 100_000
T_POLL_INTERVAL = 400_000
T_PROCESS = 20_000
T_RETRY_BASE = 3_000_000
JITTER_NS = 10_000


class FaultKind(Enum):
    CRASH_NODE = "crash_node"
    DROP_ACK = "drop_ack"
    DELAY_ACK = "delay_ack"
    DUPLICATE_DELIVER = "duplicate_deliver"
    CRASH_CONSUMER = "crash_consumer"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.  `on` is the trigger domain: the n-th produce
    attempt, the n-th delivery, or a point in virtual time."""

    kind: FaultKind
    on: str = "produce"              # produce | deliver | time
    index: int = 0                   # attempt / delivery counter trigger
    at_ms: Optional[int] = None      # for on == "time"
    target: Optional[str] = None     # node id / consumer id, engine-dependent
    delay_ms: int = 5                # DELAY_ACK
    down_ms: int = 20                # CRASH_NODE / CRASH_CONSUMER outage

    def __post_init__(self) -> None:
        if min(self.index, self.delay_ms, self.down_ms) < 0 or (
            self.at_ms is not None and self.at_ms < 0
        ):
            raise ScenarioInvalid(
                f"fault: index, at_ms, delay_ms and down_ms must be >= 0, got {self}"
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind.value}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultEvent":
        return _from_keys(cls, d, "fault", kind=FaultKind)


# the fault kinds that each trigger injects; the run never consults any
# other pair.  An exchange duplicates the delivery in hand, so it has no
# duplicate to make on a time trigger.
_TRIGGERED_KINDS = {
    "produce": {FaultKind.CRASH_NODE, FaultKind.DROP_ACK, FaultKind.DELAY_ACK},
    "deliver": {FaultKind.CRASH_NODE, FaultKind.CRASH_CONSUMER, FaultKind.DUPLICATE_DELIVER},
    "time": {FaultKind.CRASH_NODE, FaultKind.CRASH_CONSUMER, FaultKind.DUPLICATE_DELIVER},
}


@dataclass(frozen=True)
class FaultPlan:
    events: tuple = ()

    def to_list(self) -> list:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_list(cls, items: list) -> "FaultPlan":
        return cls(events=tuple(FaultEvent.from_dict(d) for d in items))


class Phase(Enum):
    T1_PRODUCED = 1
    T2_HANDLED = 2
    T3_CONFIRMED = 3
    T4_DELIVERED = 4
    T5_ACKED_OR_RETAINED = 5


class PhaseEvent(NamedTuple):
    phase: Phase
    flow: str
    seq: int
    at_ns: int


_new_tuple = tuple.__new__  # builds a PhaseEvent without its Python-level __new__


@dataclass(frozen=True)
class Workload:
    """How many producers and consumers a scenario runs, the record size,
    and how many messages each producer sends."""

    producers: int = 1
    consumers: int = 1
    record_size_bytes: int = 16
    messages_per_producer: int = 10

    def __post_init__(self) -> None:
        if min(self.producers, self.consumers, self.messages_per_producer) < 1 or (
            self.record_size_bytes < 0
        ):
            raise ScenarioInvalid(
                "workload: producers, consumers and messages_per_producer must be >= 1"
                f" and record_size_bytes >= 0, got {self}"
            )


@dataclass(frozen=True)
class Scenario:
    """A reproducible run: engine, topology, workload, QoS, faults, seed."""

    engine: str                      # "log" | "exch"
    workload: Workload
    qos: QoSConfig
    topology: dict = field(default_factory=dict)
    faults: FaultPlan = FaultPlan()
    seed: int = 0
    drain_deadline_ms: int = 5000
    retry_limit: int = 5

    def __post_init__(self) -> None:
        if min(self.drain_deadline_ms, self.retry_limit) < 0:
            raise ScenarioInvalid(
                "scenario: drain_deadline_ms and retry_limit must be >= 0, got "
                f"drain_deadline_ms={self.drain_deadline_ms}, retry_limit={self.retry_limit}"
            )

    def validate(self) -> None:
        if self.engine not in ("log", "exch"):
            raise ScenarioInvalid(f"unknown engine {self.engine!r}")
        if self.qos.ordering is Ordering.GLOBAL_SINGLE_LANE:
            if self.engine == "log" and self.topology.get("partitions", 1) != 1:
                raise ScenarioInvalid("global single lane needs exactly one partition")
            if self.engine == "exch" and self.workload.producers != 1:
                raise ScenarioInvalid("global single lane needs one channel feeding one queue")
        for ev in self.faults.events:
            kinds = _TRIGGERED_KINDS.get(ev.on)
            if kinds is None:
                raise ScenarioInvalid(f"unresolvable fault trigger {ev.on!r}")
            if ev.kind not in kinds or (
                ev.on == "time" and self.engine == "exch" and ev.kind is FaultKind.DUPLICATE_DELIVER
            ):
                raise ScenarioInvalid(f"a {ev.kind.value} fault never fires on {ev.on!r}")
            if ev.kind is FaultKind.DUPLICATE_DELIVER and self.qos.delivery is Delivery.AT_MOST_ONCE:
                raise ScenarioInvalid("a duplicate_deliver fault never fires under at_most_once")
            if ev.on == "time" and ev.at_ms is None:
                raise ScenarioInvalid("a fault on 'time' needs at_ms")

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "seed": self.seed,
            "drain_deadline_ms": self.drain_deadline_ms,
            "retry_limit": self.retry_limit,
            "topology": self.topology,
            "workload": asdict(self.workload),
            "qos": {
                "delivery": self.qos.delivery.value,
                "ordering": self.qos.ordering.value,
                "replication_factor": self.qos.replication_factor,
            },
            "faults": self.faults.to_list(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Read a scenario file's mapping: an absent key takes its dataclass
        default, and an unknown key raises `ScenarioInvalid`.  `topology` is
        free-form; an `ack_mode` under `qos` is moved into it."""
        d = {"workload": {}, "qos": {}, **_mapping(d, "scenario")}
        d["qos"] = qos = dict(_mapping(d["qos"], "qos"))
        if "ack_mode" in qos:
            topology = _mapping(d.get("topology", {}), "topology")
            d["topology"] = {"ack_mode": qos.pop("ack_mode"), **topology}
        return _from_keys(
            cls, d, "scenario",
            workload=lambda w: _from_keys(Workload, w, "workload"),
            qos=lambda q: _from_keys(QoSConfig, q, "qos", delivery=Delivery, ordering=Ordering),
            topology=lambda t: dict(_mapping(t, "topology")),
            faults=FaultPlan.from_list,
        )


@dataclass
class ScenarioResult:
    produced: Journal
    consumed: Journal
    phases: list
    report: CorrectnessReport

    def journals_blob(self) -> str:
        return self.produced.to_jsonl() + "--\n" + self.consumed.to_jsonl()


@dataclass(frozen=True)
class Verdict:
    passed: bool
    reason: Optional[str] = None


def verdict(report: CorrectnessReport, qos: QoSConfig) -> Verdict:
    """At-most-once must not duplicate, at-least-once must not lose; order
    matters only when the QoS asks for it."""
    if qos.delivery is Delivery.AT_LEAST_ONCE and not report.no_loss:
        return Verdict(False, "loss")
    if qos.delivery is Delivery.AT_MOST_ONCE and not report.no_duplication:
        return Verdict(False, "duplication")
    if qos.ordering is not Ordering.NONE and not report.no_disorder:
        return Verdict(False, "disorder")
    return Verdict(True)


# --------------------------------------------------------------------------
# engine builders: each engine's configuration policy, written once for the
# harness and the bench.  `costs` turns the engines' modeled device time on
# (the bench) or off (the harness, which charges its own virtual time).
# --------------------------------------------------------------------------

def build_log_engine(
    topology: dict, qos: QoSConfig, clock: Clock, costs: bool, topics: list
) -> tuple[LogEngine, LogAckMode]:
    """A log engine with a topic per name in `topics`, and its appends' ack
    mode.  Topology keys: `partitions`, `flush_messages`/`flush_ms` (a flush
    every 1000 messages or 50 ms), `segment_bytes` and `ack_mode` ("1")."""
    ack_mode = str(topology.get("ack_mode", "1"))
    if ack_mode not in ACK_MODES:
        raise ScenarioInvalid(f"ack_mode must be one of {sorted(ACK_MODES)}, got {ack_mode!r}")
    rf = qos.replication_factor
    flush = FlushPolicy(topology.get("flush_messages", 1000), topology.get("flush_ms", 50))
    # modeled device costs: a flush's fsync, a quorum ack's second round trip
    fsync, rtt = (30_000, 100_000) if costs else (0, 0)
    engine = LogEngine(max(3, rf), clock=clock, fsync_latency_ns=fsync, replica_ack_rtt_ns=rtt)
    for name in topics:
        engine.create_topic(TopicConfig(name, topology.get("partitions", 1), rf, flush=flush,
                                        segment_bytes=topology.get("segment_bytes", 1 << 20)))
    return engine, ACK_MODES[ack_mode]


def build_exch_engine(
    topology: dict, qos: QoSConfig, clock: Clock, costs: bool, routes: list
) -> ExchEngine:
    """An exchange engine with a direct exchange, a queue and their binding
    per (exchange, routing key, queue) in `routes`.  Queues read the topology
    as a topology file's queue item; `durable` defaults to at-least-once unmirrored."""
    durable = qos.delivery is Delivery.AT_LEAST_ONCE and not topology.get("mirrors")
    queue = {"durable": durable, **topology, "vhost": "/"}
    mode = "real" if costs else "none"
    engine = ExchEngine(max(3, qos.replication_factor), clock=clock, latency_mode=mode)
    engine.load_topology({
        "exchanges": [{"name": x, "kind": "direct"} for x in dict.fromkeys(r[0] for r in routes)],
        "queues": [{**queue, "name": q} for _, _, q in routes],
        "bindings": [{"exchange": x, "queue": q, "key": k} for x, k, q in routes],
    })
    return engine


# --------------------------------------------------------------------------
# the event loop
# --------------------------------------------------------------------------

class _VirtualClock:
    __slots__ = ("t",)

    def __init__(self) -> None:
        self.t = 1

    def now(self) -> int:
        return self.t


class _Run:
    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.s = scenario
        self.rng = random.Random(scenario.seed)
        # what rng.randrange(n) calls for an int n > 0, without its checks
        self._randbelow = self.rng._randbelow
        self.clock = _VirtualClock()
        self.heap: list = []
        self._seq = itertools.count()
        self.produced = Journal()
        self.consumed = Journal()
        self.phases: list[PhaseEvent] = []
        # (flow, seq) pairs already recorded, one set per phase, indexed by
        # the phase's int value so the Phase enum is never hashed
        self._phase_seen: list[set] = [set() for _ in range(len(Phase) + 1)]
        self.produce_attempts = 0
        self.deliveries = 0
        self.drain_deadline: Optional[int] = None
        self._confirmed: set = set()
        self._fired: set = set()

    # -- scheduling --------------------------------------------------------

    def at(self, delay_ns: int, fn, *args) -> None:
        t = self.clock.t + delay_ns + self._randbelow(JITTER_NS)
        heapq.heappush(self.heap, (t, next(self._seq), fn, args))

    def run_loop(self) -> None:
        heap, clock, pop = self.heap, self.clock, heapq.heappop
        while heap:
            t, _, fn, args = pop(heap)
            if t > clock.t:
                clock.t = t
            fn(*args)

    # -- recording ----------------------------------------------------------

    def now(self) -> int:
        return self.clock.t

    def phase(self, phase: Phase, flow: str, seq: int) -> None:
        seen = self._phase_seen[phase._value_]
        key = (flow, seq)
        if key in seen:
            return
        seen.add(key)
        self.phases.append(_new_tuple(PhaseEvent, (phase, flow, seq, self.clock.t)))

    def record_produced(self, msg: Message) -> None:
        self.produced.append(msg.flow_id, msg.seq_no, JournalEvent.PRODUCED, self.now())
        self.phase(Phase.T1_PRODUCED, msg.flow_id, msg.seq_no)

    def record_handled(self, msg: Message) -> None:
        self.phase(Phase.T2_HANDLED, msg.flow_id, msg.seq_no)

    def record_confirmed(self, msg: Message) -> None:
        if (msg.flow_id, msg.seq_no) in self._confirmed:
            return
        self._confirmed.add((msg.flow_id, msg.seq_no))
        self.produced.append(msg.flow_id, msg.seq_no, JournalEvent.CONFIRMED, self.now())
        self.phase(Phase.T3_CONFIRMED, msg.flow_id, msg.seq_no)

    def record_delivered(self, flow: str, seq: int) -> None:
        self.deliveries += 1
        self.consumed.append(flow, seq, JournalEvent.DELIVERED, self.now())
        # a delivery proves the broker handled the message and that its ack
        # condition held by now, even if the producer never saw the ack
        # (e.g. a quorum formed by follower catch-up after a failed attempt):
        # backfill those milestones at this instant if they are missing
        self.phase(Phase.T2_HANDLED, flow, seq)
        self.phase(Phase.T3_CONFIRMED, flow, seq)
        self.phase(Phase.T4_DELIVERED, flow, seq)

    def record_acked(self, flow: str, seq: int) -> None:
        self.consumed.append(flow, seq, JournalEvent.ACKED, self.now())
        self.phase(Phase.T5_ACKED_OR_RETAINED, flow, seq)

    # -- faults --------------------------------------------------------------

    def schedule_time_faults(self, apply: Callable[[FaultEvent], None]) -> None:
        for i, ev in enumerate(self.s.faults.events):
            if ev.on == "time" and ev.at_ms is not None:
                self.at(ev.at_ms * 1_000_000, apply, ev)
                self._fired.add(i)

    def due(self, on: str, counter: int, kind: Optional[FaultKind] = None) -> list[FaultEvent]:
        out = []
        for i, ev in enumerate(self.s.faults.events):
            if i in self._fired or ev.on != on:
                continue
            if kind is not None and ev.kind is not kind:
                continue
            if counter >= ev.index:
                self._fired.add(i)
                out.append(ev)
        return out


# --------------------------------------------------------------------------
# the engine-neutral producer / consumer loop
# --------------------------------------------------------------------------

class _Scenario:
    """What both engine adapters share: QoS-derived settings, producers,
    start-up, fault routing and the done check.

    An adapter supplies the engine: `send(batch)` hands one batch to it and
    answers "confirmed", "nacked" or "down"; `batch_size`, `keyed` and
    `routing_key` shape the messages; `crash_target` picks the node a
    targetless node crash hits; `drained` says whether the consumers have
    seen everything the engine holds."""

    batch_size = 1
    keyed = False
    routing_key: Optional[str] = None

    def __init__(self, run: _Run):
        self.run = run
        s = run.s
        w = s.workload
        self.at_least_once = s.qos.delivery is Delivery.AT_LEAST_ONCE
        self.stop_and_wait = s.qos.ordering is not Ordering.NONE
        self.payload = b"\x00" * w.record_size_bytes
        self.producers = [_Producer(self, i, w.messages_per_producer) for i in range(w.producers)]

    def start(self) -> None:
        run = self.run
        run.schedule_time_faults(self.apply_fault)
        for p in self.producers:
            run.at(T_PRODUCE_GAP, p.step)
        for c in self.consumers.values():
            run.at(T_POLL_INTERVAL, c.poll)

    def consumer(self, consumer_id: Optional[str]) -> "_Consumer":
        return self.consumers.get(consumer_id) or next(iter(self.consumers.values()))

    def apply_fault(self, ev: FaultEvent) -> None:
        if ev.kind is FaultKind.CRASH_NODE:
            target = ev.target or self.crash_target()
            if target in self.engine.nodes:
                self.engine.crash_node(target)
                self.run.at(ev.down_ms * 1_000_000, self.engine.restart_node, target)
        elif ev.kind is FaultKind.CRASH_CONSUMER:
            self.consumer(ev.target).crash(ev.down_ms)
        # DROP_ACK / DELAY_ACK are consulted at confirm time via run.due()

    def producers_all_done(self) -> bool:
        return all(p.done for p in self.producers)


class _Producer:
    """One flow's produce / confirm / retry state machine; the adapter's
    `send` is its only contact with the engine."""

    def __init__(self, scn: _Scenario, idx: int, total: int):
        self.scn = scn
        self.flow = f"f{idx}"
        self.total = total
        self.sent = 0
        self.outstanding = 0
        self.done = False

    def step(self) -> None:
        scn, run = self.scn, self.scn.run
        if self.sent >= self.total:
            self._maybe_done()
            return
        if scn.stop_and_wait and self.outstanding:
            return  # confirm or retry events drive progress
        n = min(scn.batch_size, self.total - self.sent)
        now = run.now()
        key = self.flow.encode() if scn.keyed else None
        batch = tuple(
            Message(
                self.flow, self.sent + i, payload=scn.payload,
                key=key, routing_key=scn.routing_key, produced_at=now,
            )
            for i in range(n)
        )
        self.sent += n
        for m in batch:
            run.record_produced(m)
        self.outstanding += 1
        self.attempt(batch, 1)
        if not scn.stop_and_wait:
            run.at(T_PRODUCE_GAP, self.step)

    def attempt(self, batch: tuple, attempt: int) -> None:
        scn, run = self.scn, self.scn.run
        run.produce_attempts += 1
        for ev in run.due("produce", run.produce_attempts, FaultKind.CRASH_NODE):
            scn.apply_fault(ev)
        run.clock.t += T_HANDLE
        outcome = scn.send(batch)
        if outcome == "down":
            self._no_ack(batch, attempt)
            return
        for m in batch:
            run.record_handled(m)
            if outcome == "confirmed":
                # t3 is when the broker emits the ack; the producer may see
                # it later (or, under ack faults, never)
                run.phase(Phase.T3_CONFIRMED, m.flow_id, m.seq_no)
        if outcome == "nacked" or run.due("produce", run.produce_attempts, FaultKind.DROP_ACK):
            self._no_ack(batch, attempt)
            return
        delays = run.due("produce", run.produce_attempts, FaultKind.DELAY_ACK)
        travel = T_CONFIRM_TRAVEL + (delays[0].delay_ms * 1_000_000 if delays else 0)
        run.at(travel, self.confirm, batch)
        if delays and scn.at_least_once:
            run.at(self._backoff(attempt), self.retry, batch, attempt)

    def _backoff(self, attempt: int) -> int:
        return T_RETRY_BASE * (2 ** (attempt - 1))

    def _confirmed(self, batch: tuple) -> bool:
        confirmed = self.scn.run._confirmed
        for m in batch:
            if (m.flow_id, m.seq_no) not in confirmed:
                return False
        return True

    def _no_ack(self, batch: tuple, attempt: int) -> None:
        run = self.scn.run
        if not self.scn.at_least_once or attempt > run.s.retry_limit:
            self._resolve()  # fire-and-forget or retries exhausted
            return
        run.at(self._backoff(attempt), self.retry, batch, attempt)

    def retry(self, batch: tuple, attempt: int) -> None:
        if self._confirmed(batch):
            return
        if attempt >= self.scn.run.s.retry_limit:
            self._resolve()
            return
        self.attempt(batch, attempt + 1)

    def confirm(self, batch: tuple) -> None:
        if self._confirmed(batch):
            return
        for m in batch:
            self.scn.run.record_confirmed(m)
        self._resolve()

    def _resolve(self) -> None:
        self.outstanding = max(0, self.outstanding - 1)
        self.scn.run.at(T_PRODUCE_GAP, self.step)
        self._maybe_done()

    def _maybe_done(self) -> None:
        if self.sent >= self.total and self.outstanding <= 0:
            self.done = True


class _Consumer:
    """The poll loop both engines' consumers share: a crashed consumer only
    reschedules itself, and once every producer is done polling stops when
    the scenario is drained or the drain deadline has passed.  Each engine
    supplies `_poll_once`."""

    def __init__(self, scn: _Scenario, consumer_id: str):
        self.scn = scn
        self.consumer_id = consumer_id
        self.crashed = False

    def crash(self, down_ms: int) -> None:
        self.crashed = True
        self.scn.run.at(down_ms * 1_000_000, self.restart)

    def restart(self) -> None:
        self.crashed = False

    def poll(self) -> None:
        if self.crashed:
            self.scn.run.at(T_POLL_INTERVAL, self.poll)
            return
        self._poll_once()
        self._reschedule()

    def _poll_once(self) -> None:
        raise NotImplementedError

    def _reschedule(self) -> None:
        run = self.scn.run
        if self.scn.producers_all_done():
            if run.drain_deadline is None:
                run.drain_deadline = run.now() + run.s.drain_deadline_ms * 1_000_000
            if (self.scn.drained() and not self.crashed) or run.now() > run.drain_deadline:
                return
        run.at(T_POLL_INTERVAL, self.poll)


# --------------------------------------------------------------------------
# log engine adapter
# --------------------------------------------------------------------------

class _LogScenario(_Scenario):
    def __init__(self, run: _Run):
        super().__init__(run)
        s = run.s
        self.topic = "t"
        self.engine, self.ack_mode = build_log_engine(
            s.topology, s.qos, run.clock.now, False, [self.topic]
        )
        self.batch_size = s.topology.get("producer_batch", 3)
        self.keyed = s.qos.ordering in (Ordering.PER_PARTITION, Ordering.GLOBAL_SINGLE_LANE)
        members = [f"c{i}" for i in range(s.workload.consumers)]
        self.group = "g"
        assignment = self.engine.assign_partitions(self.group, self.topic, members)
        self.consumers = {
            m: _LogMember(self, m, [p for p, owner in assignment.items() if owner == m])
            for m in members
        }

    def crash_target(self) -> Optional[str]:
        return next((n for n, node in self.engine.nodes.items() if node.alive), None)

    def apply_fault(self, ev: FaultEvent) -> None:
        if ev.kind is FaultKind.DUPLICATE_DELIVER:
            self.consumer(ev.target).rewind_once = True
        else:
            super().apply_fault(ev)

    def send(self, batch: tuple) -> str:
        try:
            self.engine.append_batch(
                self.topic,
                self.engine.partition_for(self.topic, batch[0].key),
                list(batch),
                self.ack_mode,
            )
        except BrokerDown:
            return "down"
        return "confirmed"

    def drained(self) -> bool:
        for m in self.consumers.values():
            if m.crashed:
                return False
            for p in m.partitions:
                try:
                    hw = self.engine.high_watermark(self.topic, p)
                except BrokerDown:
                    return False
                if m.positions.get(p, 0) < hw:
                    return False
        return True


class _LogMember(_Consumer):
    def __init__(self, scn: _LogScenario, member_id: str, partitions: list[int]):
        super().__init__(scn, member_id)
        self.partitions = partitions
        self.positions = {p: 0 for p in partitions}
        self.rewind_once = False

    def restart(self) -> None:
        super().restart()
        self._rewind()

    def _rewind(self) -> None:
        for p in self.partitions:
            self.positions[p] = self.scn.engine.committed(self.scn.group, self.scn.topic, p)

    def _poll_once(self) -> None:
        scn, run = self.scn, self.scn.run
        at_most_once = not scn.at_least_once
        if self.rewind_once:
            self.rewind_once = False
            self._rewind()
        for p in self.partitions:
            pos = self.positions[p]
            try:
                msgs, _ = scn.engine.fetch(scn.topic, p, pos, 1 << 20)
            except OffsetOutOfRange:
                next_off = scn.engine.next_offset(scn.topic, p)
                self.positions[p] = min(pos, next_off)
                continue
            except BrokerDown:
                continue
            if not msgs:
                continue
            new_pos = pos + len(msgs)
            if at_most_once:
                # commit ahead, then process: a crash loses, never duplicates
                scn.engine.commit_offset(scn.group, self.consumer_id, scn.topic, p, new_pos)
            self.positions[p] = new_pos
            interrupted = False
            for m in msgs:
                run.clock.t += T_PROCESS
                for ev in run.due("deliver", run.deliveries + 1):
                    scn.apply_fault(ev)
                if self.crashed:
                    interrupted = True
                    break
                run.record_delivered(m.flow_id, m.seq_no)
            if interrupted:
                break
            if scn.at_least_once:
                try:
                    scn.engine.commit_offset(scn.group, self.consumer_id, scn.topic, p, new_pos)
                except BrokerDown:
                    pass  # a node crash mid-batch: keep the position, as Kafka does


# --------------------------------------------------------------------------
# exchange engine adapter
# --------------------------------------------------------------------------

class _ExchScenario(_Scenario):
    routing_key = "k"

    def __init__(self, run: _Run):
        super().__init__(run)
        self.queue = "q"
        self.engine = build_exch_engine(
            run.s.topology, run.s.qos, run.clock.now, False, [("x", self.routing_key, self.queue)]
        )
        # one channel per flow keeps each flow's publishes in order
        self.channels = {p.flow: self.engine.channel() for p in self.producers}
        ids = [f"c{i}" for i in range(run.s.workload.consumers)]
        self.consumers = {c: _ExchConsumer(self, c) for c in ids}

    def crash_target(self) -> str:
        return self.engine._queue("/", self.queue).home_node

    def send(self, batch: tuple) -> str:
        (msg,) = batch
        try:
            confirm = self.engine.publish(
                self.channels[msg.flow_id], "x", msg, persistent=self.at_least_once
            )
        except BrokerDown:
            return "down"
        return "confirmed" if confirm.ack else "nacked"

    def drained(self) -> bool:
        try:
            return (
                self.engine.queue_depth(self.queue) == 0
                and self.engine.unacked_count(self.queue) == 0
            )
        except Exception:
            return False


class _ExchConsumer(_Consumer):
    def __init__(self, scn: _ExchScenario, consumer_id: str):
        super().__init__(scn, consumer_id)
        self._attach()

    def _attach(self) -> None:
        self.handle = self.scn.engine.consume(
            self.scn.queue,
            self.consumer_id,
            ConsumeMode.PULL,
            prefetch=20,
            auto_ack=not self.scn.at_least_once,
        )

    def crash(self, down_ms: int) -> None:
        if self.crashed:
            return
        self.scn.engine.cancel_consumer(self.handle)
        super().crash(down_ms)

    def restart(self) -> None:
        super().restart()
        self._attach()

    def _poll_once(self) -> None:
        scn, run = self.scn, self.scn.run
        try:
            got = self.handle.pull(10)
        except BrokerDown:
            got = []
        for d in got:
            run.clock.t += T_PROCESS
            flow, seq = d.message.flow_id, d.message.seq_no
            if scn.at_least_once:
                fired = run.due("deliver", run.deliveries + 1)
                run.record_delivered(flow, seq)
                for ev in fired:
                    if ev.kind is FaultKind.DUPLICATE_DELIVER:
                        if scn.engine.redeliver_unacked(scn.queue, d.tag) is not None:
                            run.record_delivered(flow, seq)
                    else:
                        scn.apply_fault(ev)
                if self.crashed:
                    break  # unacked deliveries were requeued by the crash
                try:
                    self.handle.ack(d.tag)
                except UnknownTag:
                    break  # a node crash requeued the batch and voided its tags
                run.record_acked(flow, seq)
            else:
                # auto-acked at pull: ownership moved before processing
                run.record_acked(flow, seq)
                for ev in run.due("deliver", run.deliveries + 1):
                    scn.apply_fault(ev)
                if self.crashed:
                    break  # the in-flight remainder is lost
                run.record_delivered(flow, seq)


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_scenario(s: Scenario) -> ScenarioResult:
    """Run a scenario to completion (including the drain window) and check
    the journals.  Deterministic under a fixed seed."""
    run = _Run(s)
    scenario = _LogScenario(run) if s.engine == "log" else _ExchScenario(run)
    scenario.start()
    run.run_loop()
    report = check_correctness(run.produced, run.consumed, s.qos)
    return ScenarioResult(
        produced=run.produced, consumed=run.consumed, phases=run.phases, report=report
    )


def replay(s: Scenario) -> ScenarioResult:
    """Run the scenario twice and demand byte-identical journals."""
    first = run_scenario(s)
    second = run_scenario(s)
    if first.journals_blob() != second.journals_blob():
        raise NondeterminismDetected(
            f"replay of seed {s.seed} diverged; the run depends on outside state"
        )
    return first


# --------------------------------------------------------------------------
# random scenario generation
# --------------------------------------------------------------------------

def random_scenario(engine: str, seed: int) -> Scenario:
    """A randomized workload + fault plan whose configuration keeps the
    engine's delivery promise satisfiable: at-least-once runs use
    configurations where a confirm implies survivability (quorum acks with
    replicas, or flush-per-append), and faults stay within what those
    configurations tolerate (single-node crashes with restart)."""
    rng = random.Random(seed)
    delivery = rng.choice([Delivery.AT_MOST_ONCE, Delivery.AT_LEAST_ONCE])
    at_least_once = delivery is Delivery.AT_LEAST_ONCE
    producers = rng.randint(1, 3)
    consumers = rng.randint(1, 2)
    messages = rng.randint(6, 16)
    workload = Workload(
        producers=producers,
        consumers=consumers,
        record_size_bytes=rng.choice([8, 32, 128]),
        messages_per_producer=messages,
    )

    faults = []
    n_faults = rng.randint(0, 3)
    total_attempt_guess = producers * messages
    kinds_common = [FaultKind.DROP_ACK, FaultKind.DELAY_ACK, FaultKind.CRASH_CONSUMER]
    if at_least_once:
        kinds_common.append(FaultKind.DUPLICATE_DELIVER)
    crash_used = False
    for _ in range(n_faults):
        kind = rng.choice(kinds_common + ([FaultKind.CRASH_NODE] if not crash_used else []))
        if kind is FaultKind.CRASH_NODE:
            crash_used = True
            faults.append(
                FaultEvent(
                    kind,
                    on="produce",
                    index=rng.randint(1, max(1, total_attempt_guess // 2)),
                    down_ms=rng.randint(5, 25),
                )
            )
        elif kind is FaultKind.CRASH_CONSUMER:
            faults.append(
                FaultEvent(
                    kind,
                    on="deliver",
                    index=rng.randint(1, max(1, total_attempt_guess // 2)),
                    target=f"c{rng.randrange(consumers)}",
                    down_ms=rng.randint(5, 20),
                )
            )
        elif kind is FaultKind.DUPLICATE_DELIVER:
            faults.append(
                FaultEvent(kind, on="deliver", index=rng.randint(1, total_attempt_guess))
            )
        else:
            faults.append(
                FaultEvent(
                    kind,
                    on="produce",
                    index=rng.randint(1, total_attempt_guess),
                    delay_ms=rng.randint(4, 9),
                )
            )

    if engine == "log":
        ordering = rng.choice([Ordering.NONE, Ordering.PER_PARTITION])
        partitions = 1 if ordering is Ordering.GLOBAL_SINGLE_LANE else rng.randint(1, 3)
        if at_least_once:
            if rng.random() < 0.5:
                rf, ack_mode = rng.choice([(2, "quorum"), (3, "quorum")])
                flush_messages = rng.choice([2, 5, 1000])
            else:
                rf, ack_mode = 1, "1"
                flush_messages = 1  # flush per append: a confirm implies durability
        else:
            rf = rng.choice([1, 2])
            ack_mode = rng.choice(["0", "1"])
            flush_messages = rng.choice([4, 1000])
        qos = QoSConfig(delivery=delivery, ordering=ordering, replication_factor=rf)
        topology = {
            "partitions": partitions,
            "ack_mode": ack_mode,
            "flush_messages": flush_messages,
            "flush_ms": 40,
            "producer_batch": rng.choice([1, 2, 4]),
        }
    else:
        ordering = rng.choice([Ordering.NONE, Ordering.PER_CHANNEL])
        mirrors: tuple = ()
        if at_least_once and rng.random() < 0.4:
            mirrors = ("n1",) if rng.random() < 0.7 else ("n1", "n2")
        topology = {"mirrors": list(mirrors), "durable": at_least_once and not mirrors}
        if not at_least_once and rng.random() < 0.3:
            topology["max_length"] = rng.randint(4, 12)
        qos = QoSConfig(delivery=delivery, ordering=ordering, replication_factor=1 + len(mirrors))

    return Scenario(
        engine=engine,
        workload=workload,
        qos=qos,
        topology=topology,
        faults=FaultPlan(events=tuple(faults)),
        seed=seed,
    )
