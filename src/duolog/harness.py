"""Deterministic scenario runner with fault injection.

A scenario drives one engine through a virtual-time event loop: producers
publish flows of sequenced messages, consumers drain them, and a fault plan
crashes nodes, drops or delays acknowledgments, duplicates deliveries or
crashes consumers at chosen points.  Everything — scheduling jitter,
backoff, fault timing — comes from the scenario seed and a logical clock,
so the same (scenario, seed) pair always yields byte-identical journals.

The run logs the ownership-transfer timeline per message: produced,
handled by the broker, confirmed to the producer, delivered to a consumer,
and finally acknowledged (exchange engine) or retained until expiry (log
engine, which keeps no consumer state).  The log is one record per event;
the timeline of `PhaseEvent`s is built from it only when it is read.
"""

from __future__ import annotations

from heapq import heappop, heappush
import itertools
import random
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

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
    ScenarioInvalid,
    _new_tuple,
    check_correctness,
    check_keys,
    file_mapping,
    from_keys,
)
from .exchbroker import ConsumeMode, ExchEngine, UnknownEntity, UnknownTag
from .logbroker import ACK_MODES, LogAckMode, LogEngine, OffsetOutOfRange, TopicConfig


class NondeterminismDetected(RuntimeError):
    pass


# -- virtual time costs (ns); arbitrary but fixed ---------------------------

T_PRODUCE_GAP = 200_000
T_HANDLE = 50_000
T_CONFIRM_TRAVEL = 100_000
T_POLL_INTERVAL = 400_000
T_PROCESS = 20_000
T_RETRY_BASE = 3_000_000
JITTER_NS = 10_000
_JITTER_BITS = JITTER_NS.bit_length()
_NEVER = float("inf")  # the next due index of a trigger with nothing left to fire


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


class Phase(Enum):
    T1_PRODUCED = 1
    T2_HANDLED = 2
    T3_CONFIRMED = 3
    T4_DELIVERED = 4
    T5_ACKED_OR_RETAINED = 5


# a set of phases as a mask, bit `p` for the phase whose value is `p`, and
# the phases of each mask in phase order
_T1, _T2, _T3, _T4, _T5 = (1 << p.value for p in Phase)
_MASK_PHASES = tuple(
    tuple(p for p in Phase if mask >> p.value & 1) for mask in range(2 << len(Phase))
)


class PhaseEvent(NamedTuple):
    phase: Phase
    flow: str
    seq: int
    at_ns: int


def _expand_phases(log: list) -> list[PhaseEvent]:
    """The timeline a run's phase log stands for: replaying its
    `(flow, seq, mask, at_ns)` records in order, each phase of a mask not
    yet reached by its (flow, seq), in phase order, at the record's time."""
    # (flow, seq) -> the phases already reached, bit `p` set for the phase
    # whose int value is `p`
    seen: dict[tuple, int] = {}
    get = seen.get
    phases: list[PhaseEvent] = []
    append = phases.append
    for flow, seq, mask, t in log:
        key = (flow, seq)
        had = get(key, 0)
        new = mask & ~had
        if new:
            seen[key] = had | new
            for phase in _MASK_PHASES[new]:
                append(_new_tuple(PhaseEvent, (phase, flow, seq, t)))
    return phases


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
            if self.engine == "log" and _log_topology(self.topology)["partitions"] != 1:
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
        """The scenario as a file's mapping: its dataclasses' fields, with
        each enum as its value."""
        return {
            **asdict(self),
            "qos": {**asdict(self.qos), "delivery": self.qos.delivery.value,
                    "ordering": self.qos.ordering.value},
            "faults": [{**asdict(e), "kind": e.kind.value} for e in self.faults.events],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Read a scenario file's mapping, and each of its parts, with
        `from_keys`: an absent key takes its dataclass default, and an
        unknown or mistyped one raises `ScenarioInvalid`.  The engine
        builders read `topology`."""
        d = {"workload": {}, "qos": {}, **file_mapping(d, "scenario")}
        return from_keys(
            cls, d, "scenario",
            workload=lambda w: from_keys(Workload, w, "workload"),
            qos=lambda q: from_keys(QoSConfig, q, "qos", delivery=Delivery, ordering=Ordering),
            topology=lambda t: dict(file_mapping(t, "topology")),
            faults=lambda fs: FaultPlan(
                tuple(from_keys(FaultEvent, f, "fault", kind=FaultKind) for f in _fault_list(fs))
            ),
        )


def _fault_list(faults) -> list:
    if not isinstance(faults, list):
        raise ScenarioInvalid(f"scenario: faults must be a list, got {faults!r}")
    return faults


@dataclass
class ScenarioResult:
    produced: Journal
    consumed: Journal
    phase_log: list  # the run's (flow, seq, mask, at_ns) phase records
    report: CorrectnessReport

    def __post_init__(self) -> None:
        self._phases: Optional[list] = None  # `phases`, once it is read

    @property
    def phases(self) -> list[PhaseEvent]:
        """The T1–T5 timeline, built from `phase_log` on the first read."""
        if self._phases is None:
            self._phases = _expand_phases(self.phase_log)
        return self._phases

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

# the log engine's scenario `topology`: each key's file type and default.
# `partitions` and `segment_bytes` go to each topic's `TopicConfig`, the
# flush bounds to its `FlushPolicy`, and the defaults taken from those
# classes are theirs; `ack_mode` is a key of `ACK_MODES`, and
# `producer_batch` the messages a harness producer sends per append.
_LOG_KEYS = {
    "partitions": ("int", TopicConfig.partitions),
    "ack_mode": ("str", "1"),
    "flush_messages": ("Optional[int]", FlushPolicy.flush_interval_messages),
    "flush_ms": ("Optional[int]", 50),
    "segment_bytes": ("int", TopicConfig.segment_bytes),
    "producer_batch": ("int", 3),
}
_LOG_TYPES = {key: file_type for key, (file_type, _) in _LOG_KEYS.items()}


def _log_topology(topology: dict) -> dict:
    """The log's scenario `topology` with a value for every key of
    `_LOG_KEYS`.  What `check_keys` refuses, an ack mode outside
    `ACK_MODES` and a producer batch below 1 raise `ScenarioInvalid`."""
    check_keys(_LOG_TYPES, topology, "topology")
    t = {key: topology.get(key, default) for key, (_, default) in _LOG_KEYS.items()}
    if t["ack_mode"] not in ACK_MODES:
        raise ScenarioInvalid(f"topology: ack_mode must be one of {sorted(ACK_MODES)}, got "
                              f"{t['ack_mode']!r}")
    if t["producer_batch"] < 1:
        raise ScenarioInvalid(f"topology: producer_batch must be >= 1, got {t['producer_batch']}")
    return t


def build_log_engine(
    topology: dict, qos: QoSConfig, clock: Clock, costs: bool, topics: list
) -> tuple[LogEngine, LogAckMode]:
    """A log engine with a topic per name in `topics`, and its appends' ack
    mode, from a scenario `topology` (see `_LOG_KEYS`)."""
    return _log_engine(_log_topology(topology), qos, clock, costs, topics)


def _log_engine(
    t: dict, qos: QoSConfig, clock: Clock, costs: bool, topics: list
) -> tuple[LogEngine, LogAckMode]:
    """`build_log_engine` from the topology `_log_topology` returned."""
    rf = qos.replication_factor
    flush = FlushPolicy(t["flush_messages"], t["flush_ms"])
    # modeled device costs: a flush's fsync, a quorum ack's second round trip
    fsync, rtt = (30_000, 100_000) if costs else (0, 0)
    engine = LogEngine(max(3, rf), clock=clock, fsync_latency_ns=fsync, replica_ack_rtt_ns=rtt)
    for name in topics:
        engine.create_topic(TopicConfig(name, t["partitions"], rf, flush=flush,
                                        segment_bytes=t["segment_bytes"]))
    return engine, ACK_MODES[t["ack_mode"]]


def build_exch_engine(
    topology: dict, qos: QoSConfig, clock: Clock, costs: bool, routes: list
) -> ExchEngine:
    """An exchange engine with a direct exchange, a queue and their binding
    per (exchange, routing key, queue) in `routes`.  Each queue is the
    scenario `topology` read as a topology file's queue item, less `name`
    and `vhost`, which the routes set; `durable` defaults to at-least-once
    unmirrored."""
    for key in ("name", "vhost"):
        if key in topology:
            raise ScenarioInvalid(f"topology: unknown key {key!r}")
    durable = qos.delivery is Delivery.AT_LEAST_ONCE and not topology.get("mirrors")
    mode = "real" if costs else "none"
    engine = ExchEngine(max(3, qos.replication_factor), clock=clock, latency_mode=mode)
    try:
        engine.load_topology({
            "exchanges": [{"name": x, "kind": "direct"} for x in dict.fromkeys(r[0] for r in routes)],
            "queues": [{"durable": durable, **topology, "name": q} for _, _, q in routes],
            "bindings": [{"exchange": x, "queue": q, "key": k} for x, k, q in routes],
        })
    except UnknownEntity as e:  # a mirror that is not one of the engine's nodes
        raise ScenarioInvalid(f"topology: unknown {e}") from None
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
        self._getrandbits = self.rng.getrandbits
        self.clock = _VirtualClock()
        self.heap: list = []
        self._seq = itertools.count()
        self.produced = Journal()
        self.consumed = Journal()
        self.phase_log: list[tuple] = []  # see `record_phases`
        self.produce_attempts = 0
        self.deliveries = 0
        self.drain_deadline: Optional[int] = None
        self._confirmed: set = set()
        self._fired: set = set()
        # per trigger, its (plan index, event) pairs in plan order, and the
        # lowest `index` among those not fired: a counter below it fires none
        self._plan: dict[str, list] = {}
        for i, ev in enumerate(scenario.faults.events):
            self._plan.setdefault(ev.on, []).append((i, ev))
        self._next_due = {on: min(ev.index for _, ev in evs) for on, evs in self._plan.items()}

    # -- scheduling --------------------------------------------------------

    def at(self, delay_ns: int, fn, *args) -> None:
        # the jitter is `rng.randrange(JITTER_NS)`, drawn as
        # `Random._randbelow_with_getrandbits` draws it, so the stream is
        # the same
        getrandbits = self._getrandbits
        r = getrandbits(_JITTER_BITS)
        while r >= JITTER_NS:
            r = getrandbits(_JITTER_BITS)
        heappush(self.heap, (self.clock.t + delay_ns + r, next(self._seq), fn, args))

    def run_loop(self) -> None:
        heap, clock, pop = self.heap, self.clock, heappop
        while heap:
            t, _, fn, args = pop(heap)
            if t > clock.t:
                clock.t = t
            fn(*args)

    # -- recording ----------------------------------------------------------

    @property
    def phases(self) -> list[PhaseEvent]:
        """The timeline logged so far, built anew on each read, as the run
        may still be logging."""
        return _expand_phases(self.phase_log)

    def record_phases(self, flow: str, seq: int, mask: int) -> None:
        """Log that (flow, seq) reached each phase of `mask` at this
        instant; `phases` keeps the first time it reached each."""
        self.phase_log.append((flow, seq, mask, self.clock.t))

    def record_produced(self, msg: Message) -> None:
        self.produced.append(msg.flow_id, msg.seq_no, JournalEvent.PRODUCED, self.clock.t)
        self.record_phases(msg.flow_id, msg.seq_no, _T1)

    def record_confirmed(self, msg: Message) -> None:
        key = (msg.flow_id, msg.seq_no)
        if key in self._confirmed:
            return
        self._confirmed.add(key)
        self.produced.append(msg.flow_id, msg.seq_no, JournalEvent.CONFIRMED, self.clock.t)
        self.record_phases(msg.flow_id, msg.seq_no, _T3)

    def record_delivered(self, flow: str, seq: int) -> None:
        self.deliveries += 1
        self.consumed.append(flow, seq, JournalEvent.DELIVERED, self.clock.t)
        # a delivery proves the broker handled the message and that its ack
        # condition held by now, even if the producer never saw the ack
        # (e.g. a quorum formed by follower catch-up after a failed attempt):
        # backfill those milestones at this instant if they are missing
        self.record_phases(flow, seq, _T2 | _T3 | _T4)

    def record_acked(self, flow: str, seq: int) -> None:
        self.consumed.append(flow, seq, JournalEvent.ACKED, self.clock.t)
        self.record_phases(flow, seq, _T5)

    # -- faults --------------------------------------------------------------

    def schedule_time_faults(self, apply: Callable[[FaultEvent], None]) -> None:
        for i, ev in enumerate(self.s.faults.events):
            if ev.on == "time" and ev.at_ms is not None:
                self.at(ev.at_ms * 1_000_000, apply, ev)
                self._fired.add(i)

    def due(self, on: str, counter: int, kind: Optional[FaultKind] = None) -> Sequence[FaultEvent]:
        """The events on trigger `on`, of kind `kind` if given, not fired yet
        and whose `index` the counter has reached, in plan order; they are
        marked fired."""
        if counter < self._next_due.get(on, _NEVER):
            return ()
        fired, out, waiting = self._fired, [], _NEVER
        for i, ev in self._plan[on]:
            if i in fired:
                continue
            if counter >= ev.index and (kind is None or ev.kind is kind):
                fired.add(i)
                out.append(ev)
            elif ev.index < waiting:
                waiting = ev.index
        self._next_due[on] = waiting
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
        self.producers_done = 0  # kept by `_Producer._maybe_done`

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
        sent = self.sent
        end = min(sent + scn.batch_size, self.total)
        flow, payload, routing_key, now = self.flow, scn.payload, scn.routing_key, run.clock.t
        key = flow.encode() if scn.keyed else None
        # positionally: flow_id, seq_no, payload, key, routing_key, headers, produced_at
        batch = [Message(flow, seq, payload, key, routing_key, {}, now) for seq in range(sent, end)]
        self.sent = end
        for m in batch:
            run.record_produced(m)
        self.outstanding += 1
        self.attempt(batch, 1)
        if not scn.stop_and_wait:
            run.at(T_PRODUCE_GAP, self.step)

    def attempt(self, batch: list, attempt: int) -> None:
        scn, run = self.scn, self.scn.run
        run.produce_attempts += 1
        for ev in run.due("produce", run.produce_attempts, FaultKind.CRASH_NODE):
            scn.apply_fault(ev)
        run.clock.t += T_HANDLE
        outcome = scn.send(batch)
        if outcome == "down":
            self._no_ack(batch, attempt)
            return
        # t3 is when the broker emits the ack; the producer may see it
        # later (or, under ack faults, never)
        mask = _T2 | _T3 if outcome == "confirmed" else _T2
        for m in batch:
            run.record_phases(m.flow_id, m.seq_no, mask)
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

    def _confirmed(self, batch: list) -> bool:
        confirmed = self.scn.run._confirmed
        for m in batch:
            if (m.flow_id, m.seq_no) not in confirmed:
                return False
        return True

    def _no_ack(self, batch: list, attempt: int) -> None:
        run = self.scn.run
        if not self.scn.at_least_once or attempt > run.s.retry_limit:
            self._resolve()  # fire-and-forget or retries exhausted
            return
        run.at(self._backoff(attempt), self.retry, batch, attempt)

    def retry(self, batch: list, attempt: int) -> None:
        if self._confirmed(batch):
            return
        if attempt >= self.scn.run.s.retry_limit:
            self._resolve()
            return
        self.attempt(batch, attempt + 1)

    def confirm(self, batch: list) -> None:
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
        if not self.done and self.sent >= self.total and self.outstanding <= 0:
            self.done = True
            self.scn.producers_done += 1


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
        scn = self.scn
        run = scn.run
        if scn.producers_done == len(scn.producers):
            if run.drain_deadline is None:
                run.drain_deadline = run.clock.t + run.s.drain_deadline_ms * 1_000_000
            if (scn.drained() and not self.crashed) or run.clock.t > run.drain_deadline:
                return
        run.at(T_POLL_INTERVAL, self.poll)


# --------------------------------------------------------------------------
# log engine adapter
# --------------------------------------------------------------------------

class _LogScenario(_Scenario):
    def __init__(self, run: _Run):
        s = run.s
        self.topic = "t"
        # the topology is read before the producers exist, so a scenario it
        # refuses leaves no producer pointing back at a half-built adapter
        t = _log_topology(s.topology)
        self.engine, self.ack_mode = _log_engine(t, s.qos, run.clock.now, False, [self.topic])
        super().__init__(run)
        self.batch_size = t["producer_batch"]
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

    def send(self, batch: list) -> str:
        try:
            self.engine.append_batch(
                self.topic,
                self.engine.partition_for(self.topic, batch[0].key),
                batch,
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
        self.queue = "q"
        # built before the producers, as the log adapter's engine is
        self.engine = build_exch_engine(
            run.s.topology, run.s.qos, run.clock.now, False, [("x", self.routing_key, self.queue)]
        )
        super().__init__(run)
        # one channel per flow keeps each flow's publishes in order
        self.channels = {p.flow: self.engine.channel() for p in self.producers}
        ids = [f"c{i}" for i in range(run.s.workload.consumers)]
        self.consumers = {c: _ExchConsumer(self, c) for c in ids}

    def crash_target(self) -> str:
        return self.engine._queue("/", self.queue).home_node

    def send(self, batch: list) -> str:
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
            got = scn.engine.pull(scn.queue, self.consumer_id, 10)
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
                    scn.engine.ack(scn.queue, d.tag)
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
    try:
        scenario.start()
        run.run_loop()
    finally:
        # the producers and consumers point back at the scenario, and so do
        # the events a raising run leaves queued; dropping them leaves no
        # cycle, so reference counting frees the run
        run.heap.clear()
        del scenario.producers, scenario.consumers
    report = check_correctness(run.produced, run.consumed, s.qos)
    return ScenarioResult(
        produced=run.produced, consumed=run.consumed, phase_log=run.phase_log, report=report
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
