"""Exchange/binding/queue engine.

Messages enter through channels and exchanges, get routed to bound queues,
and leave through per-consumer deliveries that are acknowledged explicitly.
Publisher confirms follow the earliest applicable acceptance point:
unroutable messages confirm immediately, routable ones once every routed
queue accepted, persistent ones after the durable store write, mirrored ones
after all mirrors accepted.

Queues keep entries in per-flow sequence order at all times: retransmitted
messages are insertion-sorted back into place, so a consumer never needs to
resequence.  One payload copy is shared across all queues a message routes
to: each queue's entry holds that body and per-entry index state.
Publishing and delivering cost the same at any queue depth and binding
count: queues index their entries (see `_Queue`), each exchange's bindings
are compiled when bound (see `_Routes`), and each routed set resolves to
its queues once (see `_VHost`).  A publish pays only for the policies its
queues have: expiry runs only where a deadline exists.  The locks an
exchange message takes in `publish`, `pull`, `ack` and the body store are
taken with `acquire` and released in a `finally`: on CPython 3.11 that
costs about half what a `with` block does, and a message routed to two
queues takes about seven.

A memory cap with spill moves the oldest entries into a penalized secondary
tier, reproducing the latency cliff of a broker that outgrows DRAM.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .core import BrokerContract, BrokerDown, Clock, Message, ScenarioInvalid, spin_ns
from .core import _frozen_delattr, _frozen_setattr, _new_tuple
from .core import check_keys, file_mapping, from_keys, validate_message
from .hashing import stable_hash64


# --------------------------------------------------------------------------
# errors
# --------------------------------------------------------------------------

class ExchError(Exception):
    pass


class SpecConflict(ExchError):
    pass


class UnknownEntity(ExchError):
    pass


class UnknownExchange(UnknownEntity):
    pass


class UnknownQueue(UnknownEntity):
    pass


class UnknownTag(ExchError):
    pass


class NotInTx(ExchError):
    pass


class Unroutable(ExchError):
    def __init__(self, exchange: str, routing_key: Optional[str]) -> None:
        super().__init__(f"{exchange} cannot route {routing_key!r}")
        self.exchange = exchange
        self.routing_key = routing_key


# --------------------------------------------------------------------------
# declaration types
# --------------------------------------------------------------------------

class ExchangeKind(Enum):
    DIRECT = "direct"
    FANOUT = "fanout"
    TOPIC = "topic"
    HEADERS = "headers"
    CONSISTENT_HASH = "consistent_hash"


class MatchMode(Enum):
    ALL = "all"
    ANY = "any"


class OverflowPolicy(Enum):
    DROP_OLDEST = "drop_oldest"
    REJECT_PUBLISH = "reject_publish"


class ConsumeMode(Enum):
    PULL = "pull"


@dataclass(frozen=True)
class ExchangeSpec:
    name: str
    kind: ExchangeKind
    vhost: str = "/"
    alternate: Optional[str] = None


@dataclass(frozen=True)
class QueueSpec:
    name: str
    vhost: str = "/"
    max_length: Optional[int] = None
    default_ttl: Optional[int] = None        # milliseconds
    memory_cap_bytes: Optional[int] = None
    spill_to_disk: bool = False
    mirrors: tuple = ()
    durable: bool = False
    overflow: OverflowPolicy = OverflowPolicy.DROP_OLDEST

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("queue name must be non-empty")
        if self.max_length is not None and self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.default_ttl is not None and self.default_ttl < 0:
            raise ValueError("default_ttl must be >= 0")


@dataclass(frozen=True)
class BindingSpec:
    exchange: str
    queue: str
    vhost: str = "/"
    key: Optional[str] = None            # direct
    pattern: Optional[str] = None        # topic
    header_match: Optional[dict] = None  # headers
    match_mode: MatchMode = MatchMode.ALL
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError("weight must be >= 1")


# A publish returns one `Confirm` and a pull one `Delivery` per message, so
# both are named tuples built with `tuple.__new__`: no Python-level
# `__new__`, and not one `object.__setattr__` per field as a frozen
# dataclass pays.  On 3.11 a build costs under a third of a slotted
# dataclass's, which the slower field reads do not give back.  The fields,
# their order, the repr and equality between records are the dataclasses',
# and setting or deleting any attribute raises `FrozenInstanceError`.

class Confirm(NamedTuple):
    ack: bool
    publish_seq: int
    routed_count: int
    reason: Optional[str] = None

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr


class Delivery(NamedTuple):
    tag: int
    queue: str
    consumer_id: str
    message: Message
    redelivered: bool
    from_spill: bool

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr


@dataclass(frozen=True)
class TxResult:
    applied: int
    total: int
    complete: bool


# --------------------------------------------------------------------------
# topic pattern matching
# --------------------------------------------------------------------------

def match_topic(pattern: str, routing_key: str) -> bool:
    """AMQP-style wildcard match over dot-separated segments.

    A literal segment matches itself, "*" matches exactly one segment and
    "#" matches zero or more segments.
    """
    p = pattern.split(".") if pattern else []
    k = routing_key.split(".") if routing_key else []
    # dp[i][j]: does p[i:] match k[j:]
    np, nk = len(p), len(k)
    dp = [[False] * (nk + 1) for _ in range(np + 1)]
    dp[np][nk] = True
    for i in range(np - 1, -1, -1):
        for j in range(nk, -1, -1):
            if p[i] == "#":
                dp[i][j] = dp[i + 1][j] or (j < nk and dp[i][j + 1])
            elif j < nk and (p[i] == "*" or p[i] == k[j]):
                dp[i][j] = dp[i + 1][j + 1]
            else:
                dp[i][j] = False
    return dp[0][0]


class _TopicNode:
    """One trie node: the state after matching a pattern prefix.  A node
    reached through a "#" edge absorbs any further segment.

    Once the trie is built, `closure` holds the node and every node its "#"
    edges reach ("#" may match zero segments), and `any` the closed set of
    nodes any segment leads to: the node itself if it absorbs, and the
    closure of its "*" child."""

    __slots__ = ("words", "star", "hash", "queues", "closure", "any")

    def __init__(self, absorbs: bool = False) -> None:
        self.words: dict[str, _TopicNode] = {}
        self.star: Optional[_TopicNode] = None
        self.hash: Optional[_TopicNode] = None
        self.queues: frozenset[str] = frozenset()
        self.closure: tuple[_TopicNode, ...] = (self,)
        self.any: tuple[_TopicNode, ...] = (self,) if absorbs else ()


class _TopicState:
    """One state of a trie's lazily determinized walk: the set of trie nodes
    active after some key prefix, closed over "#", and the queues their
    bindings name.  `next` has a slot per word that is a literal edge of one
    of the nodes, None until that step is first taken; every other word
    leads to `other`, None until first taken too."""

    __slots__ = ("nodes", "queues", "next", "other")

    def __init__(self, nodes: frozenset) -> None:
        self.nodes = nodes
        self.queues: frozenset[str] = frozenset().union(*[node.queues for node in nodes])
        self.next: dict[str, Optional[_TopicState]] = dict.fromkeys(
            word for node in nodes for word in node.words
        )
        self.other: Optional[_TopicState] = None


# the most states a trie keeps, per trie node; past it a step is computed
# and not kept, so memory stays bounded by the bindings whatever the keys
_STATES_PER_NODE = 4


class _TopicTrie:
    """Topic patterns compiled into a segment trie, as RabbitMQ's topic
    exchange does, and matched by the subset construction (Rabin & Scott,
    1959) applied lazily: a key walks one state per segment, and a step
    between states is computed from the trie on first use and then looked
    up.  A step costs one dict lookup whatever the number of bindings, and
    the states kept are at most `_STATES_PER_NODE` per trie node.  It
    agrees with `match_topic`, which stays the reference."""

    def __init__(self, bindings: Iterable[BindingSpec]) -> None:
        self.root = _TopicNode()
        for b in bindings:
            node = self.root
            for word in b.pattern.split(".") if b.pattern else ():
                if word == "#":
                    node.hash = node.hash or _TopicNode(absorbs=True)
                    node = node.hash
                elif word == "*":
                    node.star = node.star or _TopicNode()
                    node = node.star
                else:
                    node = node.words.setdefault(word, _TopicNode())
            node.queues |= {b.queue}
        nodes = [self.root]
        for node in nodes:  # breadth first: every node after its parent
            nodes += node.words.values()
            nodes += filter(None, (node.star, node.hash))
        for node in reversed(nodes):  # children's closures first
            if node.hash is not None:
                node.closure += node.hash.closure
            if node.star is not None:
                node.any += node.star.closure
        self._cap = _STATES_PER_NODE * len(nodes)
        self._states: dict[frozenset, _TopicState] = {}
        self._lock = threading.Lock()  # serializes steps taken for the first time
        self._start = self._state(frozenset(self.root.closure))

    def match(self, routing_key: Optional[str]) -> frozenset[str]:
        state = self._start
        for word in routing_key.split(".") if routing_key else ():
            nxt = state.next.get(word, state.other)
            state = self._step(state, word) if nxt is None else nxt
        return state.queues

    def _step(self, state: _TopicState, word: str) -> _TopicState:
        """The state after `word`, kept as `state`'s step if both are kept."""
        literal = word in state.next
        step: list[_TopicNode] = []
        for node in state.nodes:
            step += node.any
            child = node.words.get(word) if literal else None
            if child is not None:
                step += child.closure
        with self._lock:
            nxt = self._state(frozenset(step))
            if self._states.get(nxt.nodes) is nxt:
                if literal:
                    state.next[word] = nxt
                else:
                    state.other = nxt
        return nxt

    def _state(self, nodes: frozenset) -> _TopicState:
        state = self._states.get(nodes)
        if state is None:
            state = _TopicState(nodes)
            if len(self._states) < self._cap:
                self._states[nodes] = state
        return state


# --------------------------------------------------------------------------
# runtime state
# --------------------------------------------------------------------------

class _Body:
    """A payload and the tier it is in: `spilled` moves it between tiers, and
    its bytes stay the same object from ingest until the last release."""

    __slots__ = ("data", "refs", "spilled")

    def __init__(self, data: bytes, refs: int) -> None:
        self.data = data
        self.refs = refs
        self.spilled = False


class _BodyStore:
    """One shared copy of each published payload.  Each queue entry holds
    its `_Body` and one reference to it; the last reference released frees
    the body.  Running counters of bodies, live bytes and spilled bytes keep
    every read constant-time.  The lock keeps the counters, the references
    and each body's tier consistent across the queues that share a body; a
    delivery reads a body it holds a reference to without it, as one flag
    says the tier and the bytes never change.  Every message takes the lock
    at least twice, so it is taken without a `with` block (see the module
    docstring)."""

    def __init__(self) -> None:
        self._count = 0
        self._live_bytes = 0
        self._spilled_bytes = 0
        self._lock = threading.Lock()

    def put(self, data: bytes, refs: int) -> _Body:
        """Store a copy of `data` holding `refs` references, one for each
        queue it is routed to; a queue that does not keep its entry gives
        its reference back through `release`."""
        # ingest a real copy of the frame (bytes(b) would alias)
        body = _Body(memoryview(data).tobytes(), refs)
        self._lock.acquire()
        try:
            self._count += 1
            self._live_bytes += len(body.data)
        finally:
            self._lock.release()
        return body

    def release(self, body: _Body, refs: int) -> None:
        self._lock.acquire()
        try:
            body.refs -= refs
            if not body.refs:
                self._count -= 1
                if body.spilled:
                    self._spilled_bytes -= len(body.data)
                else:
                    self._live_bytes -= len(body.data)
                # a read of a freed body fails loudly, and a stale deadline
                # item that still holds its entry holds no payload
                body.data = None
        finally:
            self._lock.release()

    def spill(self, body: _Body) -> int:
        """Move the body to the secondary tier; returns bytes moved."""
        self._lock.acquire()
        try:
            if body.spilled:
                return 0
            body.spilled = True
            moved = len(body.data)
            self._live_bytes -= moved
            self._spilled_bytes += moved
            return moved
        finally:
            self._lock.release()

    def unspill(self, body: _Body) -> bytes:
        """Move the body back to memory; returns it."""
        self._lock.acquire()
        try:
            if body.spilled:
                body.spilled = False
                self._spilled_bytes -= len(body.data)
                self._live_bytes += len(body.data)
            return body.data
        finally:
            self._lock.release()

    def live_payload_bytes(self) -> int:
        return self._live_bytes

    def spilled_bytes(self) -> int:
        return self._spilled_bytes

    def count(self) -> int:
        return self._count


class _Entry:
    __slots__ = (
        "flow", "seq", "body", "size", "headers", "routing_key",
        "produced_at", "ttl_ms", "fsynced", "mirrored_on",
        "spilled", "delivery_count", "deadline", "queued",
    )

    def __init__(
        self, msg: Message, body: _Body, size: int, deadline: Optional[int]
    ) -> None:
        self.flow = msg.flow_id
        self.seq = msg.seq_no
        self.body = body
        self.size = size
        self.headers = msg.headers
        self.routing_key = msg.routing_key
        self.produced_at = msg.produced_at
        self.ttl_ms = msg.ttl_ms
        self.fsynced = False
        self.mirrored_on: Optional[set[str]] = None  # a set on mirrored queues only
        self.spilled = False
        self.delivery_count = 0
        self.deadline = deadline  # TTL expiry in clock ns, from the first enqueue
        self.queued = False  # in its queue's `entries`, not delivered or dropped


class _Consumer:
    __slots__ = ("consumer_id", "prefetch", "auto_ack", "unacked")

    def __init__(self, consumer_id: str, prefetch: int, auto_ack: bool) -> None:
        self.consumer_id = consumer_id
        self.prefetch = prefetch
        self.auto_ack = auto_ack
        self.unacked = 0


class _Queue:
    """A queue's entries in per-flow seq order, with indexes that keep each
    publish and delivery independent of the queue's depth.  Every change to
    `entries` goes through `insert`, `pop_head` or `remove`, so the indexes
    cannot drift from it:

    - `_flows` holds, per flow with queued entries, the highest seq
      inserted and the count queued.  A higher seq is new and belongs at
      the tail; only a retransmit takes the scan that finds its place or
      its duplicate;
    - `deadlines` is a min-heap of (TTL deadline, insert number, entry),
      pushed on every insert of an entry with a deadline.  Items of entries
      that left the queue go stale and are skipped; a head pop takes its
      item with it when it is the heap's top, as it is when deadlines follow
      queue order, and the heap is rebuilt from queued entries past twice
      the depth.  Expiry runs only where a deadline exists: while the heap
      is empty, publish and pull skip `expire`, and pull the clock read;
    - `_mem` counts the bytes of entries not spilled, and every entry
      before `_spill_cursor` is spilled.
    """

    def __init__(self, spec: QueueSpec, home_node: str) -> None:
        self.spec = spec
        self.home_node = home_node
        self.entries: deque[_Entry] = deque()
        self.unacked: dict[int, tuple[_Entry, str]] = {}
        self.consumers: dict[str, _Consumer] = {}
        self.lock = threading.RLock()
        self.available = True
        self._mem = 0
        self._spill_cursor = 0
        self._flows: dict[str, list[int]] = {}  # flow -> [highest seq, count]
        self.deadlines: list[tuple[int, int, _Entry]] = []
        self._inserts = itertools.count()

    def insert(self, entry: _Entry) -> bool:
        """Insert in per-flow seq order; duplicate live (flow, seq) keys are
        absorbed (the retransmit carries the same content)."""
        flow = self._flows.get(entry.flow)
        if flow is None:
            self._flows[entry.flow] = [entry.seq, 1]
            self.entries.append(entry)
        elif entry.seq > flow[0]:
            flow[0] = entry.seq
            flow[1] += 1
            self.entries.append(entry)
        else:
            # a flow's entries are queued in ascending seq order, so the
            # first one at or above this seq is its duplicate or successor
            idx = len(self.entries)
            for i, e in enumerate(self.entries):
                if e.flow == entry.flow and e.seq >= entry.seq:
                    if e.seq == entry.seq:
                        return False
                    idx = i
                    break
            self.entries.insert(idx, entry)
            flow[1] += 1
            self._spill_cursor = min(self._spill_cursor, idx)
        entry.queued = True
        if not entry.spilled:
            self._mem += entry.size
        if entry.deadline is not None:
            heapq.heappush(self.deadlines, (entry.deadline, next(self._inserts), entry))
            if len(self.deadlines) > 2 * len(self.entries):
                self.deadlines = [
                    (e.deadline, next(self._inserts), e)
                    for e in self.entries
                    if e.deadline is not None
                ]
                heapq.heapify(self.deadlines)
        return True

    def pop_head(self) -> _Entry:
        entry = self.entries.popleft()
        self._forget(entry)
        if self.deadlines and self.deadlines[0][2] is entry:
            heapq.heappop(self.deadlines)
        if self._spill_cursor:
            self._spill_cursor -= 1
        if not entry.spilled:
            self._mem -= entry.size
        return entry

    def remove(self, doomed: Callable[[_Entry], bool]) -> list[_Entry]:
        """Drop every entry `doomed` picks; returns them in queue order."""
        kept: deque[_Entry] = deque()
        removed: list[_Entry] = []
        cursor = 0
        for i, e in enumerate(self.entries):
            if not doomed(e):
                kept.append(e)
                if i < self._spill_cursor:  # still in the spilled prefix
                    cursor += 1
                continue
            removed.append(e)
            self._forget(e)
            if not e.spilled:
                self._mem -= e.size
        if removed:
            self.entries = kept
            self._spill_cursor = cursor
        return removed

    def expire(self, now: int) -> list[_Entry]:
        """Remove the entries whose TTL ran out before `now`; returns them in
        queue order.  Costs one heap peek unless a queued entry is due."""
        heap, due = self.deadlines, False
        while heap and heap[0][0] < now:
            due = heapq.heappop(heap)[2].queued or due
        if not due:
            return []
        return self.remove(lambda e: e.deadline is not None and e.deadline < now)

    def spill(self, cap: int, spill_body: Callable[[_Body], int]) -> None:
        """Spill the oldest unspilled entries until at most `cap` bytes stay
        in memory.  `_mem` drops by each entry's size, but the loop counts
        only the bytes `spill_body` moved: a body another queue already
        spilled moves none."""
        mem, i = self._mem, self._spill_cursor
        while mem > cap and i < len(self.entries):
            e = self.entries[i]
            i += 1
            if e.spilled:
                continue
            mem -= spill_body(e.body)
            e.spilled = True
            self._mem -= e.size
        self._spill_cursor = i

    def _forget(self, entry: _Entry) -> None:
        entry.queued = False
        flow = self._flows[entry.flow]
        flow[1] -= 1
        if not flow[1]:  # with no entry queued, any seq of the flow appends
            del self._flows[entry.flow]


class _Routes:
    """One exchange's bindings, compiled for its kind when bound: `match`
    is that kind's matcher over the compiled table.  `bind` builds a new
    table and swaps it in whole, so a concurrent `route` sees either the old
    table or the new one."""

    def __init__(self, kind: ExchangeKind, bindings: tuple) -> None:
        self.bindings = bindings
        self.match: Callable[[Message], frozenset[str]]
        if kind is ExchangeKind.FANOUT:
            queues = frozenset(b.queue for b in bindings)
            self.match = lambda msg: queues
        elif kind is ExchangeKind.DIRECT:
            by_key: dict[Optional[str], frozenset[str]] = {}
            for b in bindings:
                by_key[b.key] = by_key.get(b.key, frozenset()) | {b.queue}
            nowhere: frozenset[str] = frozenset()
            self.match = lambda msg: by_key.get(msg.routing_key, nowhere)
        elif kind is ExchangeKind.TOPIC:
            trie = _TopicTrie(b for b in bindings if b.pattern is not None)
            self.match = lambda msg: trie.match(msg.routing_key)
        elif kind is ExchangeKind.HEADERS:
            self.match = lambda msg: _match_headers(bindings, msg)
        else:
            slots = [
                b.queue for b in sorted(bindings, key=lambda b: b.queue) for _ in range(b.weight)
            ]
            self.match = lambda msg: frozenset(
                (slots[stable_hash64((msg.routing_key or "").encode()) % len(slots)],)
            )


def _match_headers(bindings: tuple, msg: Message) -> frozenset[str]:
    """The queues of the headers `bindings` whose header match `msg` meets.
    It is a function of the bindings, not a method of `_Routes`, so that a
    table's matcher holds no reference back to the table."""
    out = set()
    for b in bindings:
        if not b.header_match:
            continue
        hits = [msg.headers.get(k) == v for k, v in b.header_match.items()]
        if (b.match_mode is MatchMode.ALL and all(hits)) or (
            b.match_mode is MatchMode.ANY and any(hits)
        ):
            out.add(b.queue)
    return frozenset(out)


# the most routed sets a vhost maps to their queues, per binding; past it a
# set's queues are looked up and not kept, so memory stays bounded by the
# bindings whatever the keys
_TARGETS_PER_BINDING = 4


class _VHost:
    """A vhost's entities.  `targets` maps each routed set `route` returned
    to its queues in name order, the order a publish takes their locks in;
    queues are never deleted or replaced, so an entry never goes stale."""

    def __init__(self) -> None:
        self.exchanges: dict[str, ExchangeSpec] = {}
        self.queues: dict[str, _Queue] = {}
        self.routes: dict[str, _Routes] = {}  # exchange name -> its bindings
        self.bindings = 0
        self.targets: dict[frozenset, tuple[_Queue, ...]] = {}

    def resolve(self, names: frozenset) -> tuple:
        """The queues of routed set `names`, in name order."""
        targets = tuple([self.queues[name] for name in sorted(names)])
        if len(self.targets) < _TARGETS_PER_BINDING * self.bindings:
            self.targets[names] = targets
        return targets


class Channel:
    """Publish ordering scope.  Single-threaded by contract: one caller at a
    time per channel; distinct channels may run concurrently."""

    def __init__(self, engine: "ExchEngine", vhost: str) -> None:
        self.engine = engine
        self.vhost = vhost
        self.next_publish_seq = 1
        self.tx_mode = False
        self.tx_buffer: list[tuple] = []  # (exchange, msg, persistent) per publish

    def tx_select(self) -> None:
        """Enter transaction mode; on a channel already in it, as AMQP's
        `tx.select`, keep what is buffered."""
        if not self.tx_mode:
            self.tx_mode = True
            self.tx_buffer = []


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------

# simulated device costs under latency_mode="real": a durable write, a
# mirror's acceptance, and a read from the spill tier, which costs 10x the
# nominal in-memory delivery through the full pull path (~50us in-process
# at desk scale)
FSYNC_LATENCY_NS = 40_000
MIRROR_SYNC_NS = 20_000
SPILL_READ_NS = 10 * 50_000


class ExchEngine(BrokerContract):
    """In-process exchange/queue broker over simulated nodes.

    Each queue is its own serialization domain; exchanges and binding tables
    are read-mostly.  Simulated disk latency applies to durable writes and
    spill reads when `latency_mode="real"`; the harness runs engines with
    `latency_mode="none"` and accounts costs on its own virtual clock.
    """

    def __init__(
        self,
        nodes: int | Iterable[str] = 3,
        *,
        clock: Clock = time.monotonic_ns,
        latency_mode: str = "real",
        spill_read_ns: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(nodes, clock)
        self.vhosts: dict[str, _VHost] = {}
        self.bodies = _BodyStore()
        real = latency_mode == "real"
        self.fsync_latency_ns = FSYNC_LATENCY_NS if real else 0
        self.mirror_sync_ns = MIRROR_SYNC_NS if real else 0
        self.memory_budget_bytes = memory_budget_bytes
        self._tags = itertools.count(1)  # delivery tags; `next` is atomic
        self._next_queue_node = 0
        self._lock = threading.RLock()
        self._flow_cond = threading.Condition(self._lock)
        self._flow_blocked = False
        if spill_read_ns is None:
            spill_read_ns = SPILL_READ_NS if real else 0
        self.spill_read_ns = spill_read_ns

    # -- contract ------------------------------------------------------------

    def crash_node(self, node_id: str) -> None:
        node = self._node(node_id)
        node.alive = False
        with self._lock:
            for vh in self.vhosts.values():
                for q in vh.queues.values():
                    with q.lock:
                        if q.home_node != node_id:
                            continue
                        promoted = next(
                            (m for m in q.spec.mirrors if self.nodes[m].alive), None
                        )
                        # in-flight deliveries die with their consumers' tags
                        requeued = [e for e, _ in q.unacked.values()]
                        q.unacked.clear()
                        for cons in q.consumers.values():
                            cons.unacked = 0
                        for e in requeued:
                            self._requeue(q, e)
                        if promoted is not None:
                            self._drop(q.remove(lambda e: promoted not in e.mirrored_on))
                            q.home_node = promoted
                        else:
                            q.available = False
            self._flow_update()

    def restart_node(self, node_id: str) -> None:
        node = self._node(node_id)
        node.alive = True
        with self._lock:
            for vh in self.vhosts.values():
                for q in vh.queues.values():
                    with q.lock:
                        if q.home_node != node_id or q.available:
                            continue
                        durable = q.spec.durable
                        self._drop(q.remove(lambda e: not (durable and e.fsynced)))
                        q.available = True
            self._flow_update()

    def payload_bytes(self) -> int:
        return self.bodies.live_payload_bytes() + self.bodies.spilled_bytes()

    # -- declarations ----------------------------------------------------------

    def declare_exchange(self, spec: ExchangeSpec) -> ExchangeSpec:
        with self._lock:
            vh = self.vhosts.setdefault(spec.vhost, _VHost())
            existing = vh.exchanges.get(spec.name)
            if existing is not None:
                if existing != spec:
                    raise SpecConflict(f"exchange {spec.vhost}{spec.name} redeclared differently")
                return existing
            vh.exchanges[spec.name] = spec
            return spec

    def declare_queue(self, spec: QueueSpec) -> QueueSpec:
        for m in spec.mirrors:
            self._node(m)
        with self._lock:
            vh = self.vhosts.setdefault(spec.vhost, _VHost())
            existing = vh.queues.get(spec.name)
            if existing is not None:
                if existing.spec != spec:
                    raise SpecConflict(f"queue {spec.vhost}{spec.name} redeclared differently")
                return existing.spec
            home = list(self.nodes)[self._next_queue_node % len(self.nodes)]
            self._next_queue_node += 1
            vh.queues[spec.name] = _Queue(spec, home)
            return spec

    def bind(self, b: BindingSpec) -> None:
        with self._lock:
            vh = self.vhosts.get(b.vhost)
            if vh is None or b.exchange not in vh.exchanges:
                raise UnknownEntity(f"exchange {b.vhost}{b.exchange}")
            if b.queue not in vh.queues:
                raise UnknownEntity(f"queue {b.vhost}{b.queue}")
            routes = vh.routes.get(b.exchange)
            bound = routes.bindings if routes is not None else ()
            if b not in bound:
                vh.routes[b.exchange] = _Routes(vh.exchanges[b.exchange].kind, (*bound, b))
                vh.bindings += 1

    def load_topology(self, topology: dict) -> None:
        """Declare exchanges, queues and bindings from a topology mapping
        (the JSON file schema)."""
        for _, error in _load(self, topology):
            try:
                raise error
            finally:
                del error  # its traceback holds this frame

    # -- routing ------------------------------------------------------------

    def route(self, exchange: str, msg: Message, vhost: str = "/") -> frozenset:
        """Queue names the message routes to; `Unroutable` if none, after
        giving the alternate exchange one chance."""
        vh = self.vhosts.get(vhost) or self._vhost(vhost)
        routes = vh.routes.get(exchange)  # an exchange with bindings exists
        if routes is not None and (queues := routes.match(msg)):
            return queues
        ex = vh.exchanges.get(exchange)
        if ex is None:
            raise UnknownExchange(f"{vhost}{exchange}")
        routes = vh.routes.get(ex.alternate)
        if routes is not None and (queues := routes.match(msg)):
            return queues
        raise Unroutable(exchange, msg.routing_key)

    # -- channels and publishing ------------------------------------------------

    def channel(self, vhost: str = "/") -> Channel:
        self._vhost_or_create(vhost)
        return Channel(self, vhost)

    def publish(
        self,
        channel: Channel,
        exchange: str,
        msg: Message,
        persistent: bool = False,
    ) -> Optional[Confirm]:
        """Publish on a channel; returns the publisher confirm, or None when
        the channel is in transaction mode (the publish is buffered)."""
        if channel.tx_mode:
            # a bad message is refused now, as outside a transaction, and
            # not left in the buffer to fail the commit
            validate_message(msg)
            channel.tx_buffer.append((exchange, msg, persistent))
            return None
        return self._do_publish(channel, exchange, msg, persistent)

    def tx_commit(self, channel: Channel) -> TxResult:
        """Apply buffered publishes in order.  An injected crash mid-commit
        leaves a strict prefix applied; there is no atomicity.  Any other
        error keeps the channel in transaction mode with the publishes it
        did not apply, so a retried commit applies each publish once."""
        if not channel.tx_mode:
            raise NotInTx("tx_commit before tx_select")
        ops = channel.tx_buffer
        applied = 0
        try:
            for exchange, msg, persistent in ops:
                self._fire_fault("tx_commit_op", channel.vhost)
                self._do_publish(channel, exchange, msg, persistent)
                applied += 1
        except BrokerDown:
            channel.tx_buffer = []
            channel.tx_mode = False
            return TxResult(applied=applied, total=len(ops), complete=False)
        except BaseException:
            # not a crash: the transaction stays open with what it did not apply
            del ops[:applied]
            raise
        channel.tx_buffer = []
        channel.tx_mode = False
        return TxResult(applied=applied, total=len(ops), complete=True)

    def _do_publish(
        self, channel: Channel, exchange: str, msg: Message, persistent: bool
    ) -> Confirm:
        validate_message(msg)
        seq = channel.next_publish_seq
        channel.next_publish_seq += 1

        if self.memory_budget_bytes is not None:
            self._flow_gate()

        try:
            queues = self.route(exchange, msg, vhost=channel.vhost)
        except Unroutable:
            # the broker verified the message routes nowhere: confirm now
            return _new_tuple(Confirm, (True, seq, 0, "unroutable"))

        vh = self.vhosts[channel.vhost]
        targets = vh.targets.get(queues) or vh.resolve(queues)
        n = len(targets)
        size = len(msg.payload)
        # one reference per target up front, so an ack on one queue cannot
        # free the body before the next queue has its entry
        body = self.bodies.put(msg.payload, n)
        now = self.clock()
        kept = accepted = 0
        rejected = False
        try:
            for q in targets:
                spec = q.spec
                q.lock.acquire()
                try:
                    if not q.available or not self.nodes[q.home_node].alive:
                        raise BrokerDown(f"queue {spec.name} is down")
                    if q.deadlines:  # a queue with no deadline skips expiry
                        expired = q.expire(now)
                        if expired:
                            self._drop(expired)
                    if spec.max_length is not None and len(q.entries) >= spec.max_length:
                        if spec.overflow is OverflowPolicy.REJECT_PUBLISH:
                            rejected = True
                            continue
                        self.bodies.release(q.pop_head().body, 1)
                    # RabbitMQ counts a TTL from enqueue: the entry keeps
                    # this deadline when it is requeued or promoted
                    ttl = spec.default_ttl if msg.ttl_ms is None else msg.ttl_ms
                    deadline = None if ttl is None else now + ttl * 1_000_000
                    entry = _Entry(msg, body, size, deadline)
                    # a duplicate retransmit is absorbed in place and counts
                    # as accepted
                    if q.insert(entry):
                        kept += 1
                        if persistent and spec.durable:
                            if self.fault_hook is not None:
                                self.fault_hook("before_fsync", spec.name)
                            entry.fsynced = True
                            if self.fsync_latency_ns:
                                spin_ns(self.fsync_latency_ns)
                        if spec.mirrors:
                            mirrored_on = entry.mirrored_on = set()
                            mirror_down = False
                            for m in spec.mirrors:
                                if self.nodes[m].alive:
                                    mirrored_on.add(m)
                                    if self.mirror_sync_ns:
                                        spin_ns(self.mirror_sync_ns)
                                else:
                                    mirror_down = True
                            if mirror_down:
                                raise BrokerDown(f"mirror of {spec.name} is down")
                        if spec.memory_cap_bytes is not None and spec.spill_to_disk:
                            q.spill(spec.memory_cap_bytes, self.bodies.spill)
                    accepted += 1
                finally:
                    q.lock.release()
        finally:
            # the references of absorbed, rejected and unreached entries
            if kept < n:
                self.bodies.release(body, n - kept)

        if self.memory_budget_bytes is not None:
            self._flow_update()
        if rejected:
            return _new_tuple(Confirm, (False, seq, accepted, "queue full"))
        return _new_tuple(Confirm, (True, seq, accepted, None))

    # -- consumption ----------------------------------------------------------

    def consume(
        self,
        queue: str,
        consumer_id: str,
        mode: ConsumeMode = ConsumeMode.PULL,
        prefetch: int = 1,
        auto_ack: bool = False,
        vhost: str = "/",
    ) -> "ConsumerHandle":
        """Attach a consumer that takes deliveries by `pull`, at most
        `prefetch` of them unacked at a time (any number with `auto_ack`).
        Every consumer pulls, so `mode` is not read; it stays in the
        signature because callers pass `ConsumeMode.PULL` positionally."""
        if prefetch < 1:
            raise ValueError(f"prefetch must be >= 1, got {prefetch!r}")
        q = self._queue(vhost, queue)
        with q.lock:
            if consumer_id in q.consumers:
                raise ExchError(f"consumer {consumer_id} already attached to {queue}")
            q.consumers[consumer_id] = _Consumer(consumer_id, prefetch, auto_ack)
        return ConsumerHandle(self, vhost, queue, consumer_id)

    def cancel_consumer(self, handle: "ConsumerHandle") -> None:
        """Detach a consumer; its unacked deliveries go back to the queue."""
        q = self._queue(handle.vhost, handle.queue)
        with q.lock:
            q.consumers.pop(handle.consumer_id, None)
            doomed = [tag for tag, (_, cid) in q.unacked.items() if cid == handle.consumer_id]
            for tag in doomed:
                self._requeue(q, q.unacked.pop(tag)[0])
        self._flow_update()

    def pull(self, queue: str, consumer_id: str, max_n: int = 1, vhost: str = "/") -> list[Delivery]:
        """Demand-driven delivery; empty list when the queue has nothing.
        Expiry runs once, at one clock reading, before up to `max_n` heads
        are taken, as it would before each of them."""
        q = self._queue(vhost, queue)
        out: list[Delivery] = []
        q.lock.acquire()
        try:
            if not q.available or not self.nodes[q.home_node].alive:
                raise BrokerDown(f"queue {queue} is down")
            cons = q.consumers.get(consumer_id)
            if cons is None:
                raise ExchError(f"consumer {consumer_id} not attached to {queue}")
            n = max_n if cons.auto_ack else min(max_n, cons.prefetch - cons.unacked)
            if n > 0:
                if q.deadlines:  # a queue with no deadline skips the clock
                    expired = q.expire(self.clock())
                    if expired:
                        self._drop(expired)
                entries = q.entries
                while n and entries:
                    out.append(self._deliver(q, cons, q.pop_head()))
                    n -= 1
        finally:
            q.lock.release()
        if self.memory_budget_bytes is not None:
            self._flow_update()  # expiry and auto-ack released bodies
        return out

    def ack(self, queue: str, tag: int, vhost: str = "/") -> None:
        """Settle a delivery for good: release its body reference."""
        q = self._queue(vhost, queue)
        q.lock.acquire()
        try:
            self.bodies.release(self._settle(q, tag).body, 1)
        finally:
            q.lock.release()
        if self.memory_budget_bytes is not None:
            self._flow_update()

    def nack(self, queue: str, tag: int, requeue: bool = True, vhost: str = "/") -> None:
        """Settle a delivery: requeue it, or, as `ack` does, release it."""
        if not requeue:
            return self.ack(queue, tag, vhost)
        q = self._queue(vhost, queue)
        with q.lock:
            self._requeue(q, self._settle(q, tag))
        self._flow_update()

    def redeliver_unacked(self, queue: str, tag: int, vhost: str = "/") -> Optional[Delivery]:
        """Deliver a second copy of an unacked entry (delivery-timeout
        behavior, used by fault injection)."""
        q = self._queue(vhost, queue)
        with q.lock:
            if tag not in q.unacked:
                return None
            entry, cid = q.unacked[tag]
            if cid not in q.consumers:
                return None
            return self._delivery(q, entry, tag, cid, redelivered=True)

    # -- TTL and queue counts ----------------------------------------------------

    def expire_ttl(self, queue: str, vhost: str = "/") -> int:
        q = self._queue(vhost, queue)
        with q.lock:
            expired = self._drop(q.expire(self.clock()))
        self._flow_update()
        return expired

    def queue_depth(self, queue: str, vhost: str = "/") -> int:
        q = self._queue(vhost, queue)
        with q.lock:
            return len(q.entries)

    def unacked_count(self, queue: str, vhost: str = "/") -> int:
        q = self._queue(vhost, queue)
        with q.lock:
            return len(q.unacked)

    def spilled_entry_count(self, queue: str, vhost: str = "/") -> int:
        q = self._queue(vhost, queue)
        with q.lock:
            return sum(1 for e in q.entries if e.spilled)

    # -- internals ----------------------------------------------------------

    def _deliver(self, q: _Queue, cons: _Consumer, entry: _Entry) -> Delivery:
        """Deliver an entry taken off the queue's head to `cons`."""
        tag = next(self._tags)
        entry.delivery_count += 1
        delivery = self._delivery(q, entry, tag, cons.consumer_id, entry.delivery_count > 1)
        if cons.auto_ack:
            self.bodies.release(entry.body, 1)
        else:
            q.unacked[tag] = (entry, cons.consumer_id)
            cons.unacked += 1
        return delivery

    def _settle(self, q: _Queue, tag: int) -> _Entry:
        """Take an unacked delivery off its queue's and consumer's counts."""
        settled = q.unacked.pop(tag, None)
        if settled is None:
            raise UnknownTag(str(tag))
        entry, cid = settled
        cons = q.consumers.get(cid)
        if cons is not None and cons.unacked > 0:
            cons.unacked -= 1
        return entry

    def _delivery(
        self, q: _Queue, entry: _Entry, tag: int, consumer_id: str, redelivered: bool
    ) -> Delivery:
        """Read the entry's body and build its delivery.  An entry this queue
        spilled is moved back to memory; a body another queue spilled is read
        where it is.  Either way a read from the spill tier pays its cost."""
        if entry.spilled:
            payload = self.bodies.unspill(entry.body)
            entry.spilled = False
            from_spill = True
        else:
            # the tier is read once, before the bytes, which never change;
            # another queue's spill or unspill racing this read moves only
            # the simulated read cost, never the payload
            from_spill = entry.body.spilled
            payload = entry.body.data
        if from_spill and self.spill_read_ns:
            spin_ns(self.spill_read_ns)
        # the consumer gets its own frame copy off the shared body
        message = Message(
            entry.flow, entry.seq, memoryview(payload).tobytes(), None,
            entry.routing_key, entry.headers, entry.produced_at, entry.ttl_ms,
        )
        return _new_tuple(Delivery, (tag, q.spec.name, consumer_id, message, redelivered, from_spill))

    def _requeue(self, q: _Queue, entry: _Entry) -> None:
        """Put a delivered entry back in its place; a copy of it already
        queued absorbs it."""
        entry.delivery_count += 1
        if not q.insert(entry):
            self.bodies.release(entry.body, 1)

    def _drop(self, removed: list[_Entry]) -> int:
        """Release the bodies of entries taken out of their queue for good."""
        for e in removed:
            self.bodies.release(e.body, 1)
        return len(removed)

    def _flow_gate(self) -> None:
        with self._flow_cond:
            while self._flow_blocked:
                self._flow_cond.wait(timeout=0.05)
                self._flow_refresh()

    def _flow_update(self) -> None:
        if self.memory_budget_bytes is not None:
            with self._flow_cond:
                self._flow_refresh()

    def _flow_refresh(self) -> None:
        used = self.bodies.live_payload_bytes()
        high = 0.8 * self.memory_budget_bytes
        low = 0.6 * self.memory_budget_bytes
        if not self._flow_blocked and used > high:
            self._flow_blocked = True
        elif self._flow_blocked and used < low:
            self._flow_blocked = False
            self._flow_cond.notify_all()

    def _vhost(self, vhost: str) -> _VHost:
        vh = self.vhosts.get(vhost)
        if vh is None:
            raise UnknownEntity(f"vhost {vhost}")
        return vh

    def _vhost_or_create(self, vhost: str) -> _VHost:
        with self._lock:
            return self.vhosts.setdefault(vhost, _VHost())

    def _queue(self, vhost: str, name: str) -> _Queue:
        try:
            return self.vhosts[vhost].queues[name]
        except KeyError:
            self._vhost(vhost)
            raise UnknownQueue(f"{vhost}{name}") from None

    def _unknown_node(self, node_id: str) -> ExchError:
        return UnknownEntity(f"node {node_id}")


class ConsumerHandle:
    """A consumer attached to one queue.

    `pull` hands out deliveries; `ack`/`nack` settle them by delivery tag.
    Acking the last owner of an entry lets the broker delete the shared
    message body.
    """

    def __init__(self, engine: ExchEngine, vhost: str, queue: str, consumer_id: str) -> None:
        self.engine = engine
        self.vhost = vhost
        self.queue = queue
        self.consumer_id = consumer_id

    def pull(self, max_n: int = 1) -> list[Delivery]:
        return self.engine.pull(self.queue, self.consumer_id, max_n, vhost=self.vhost)

    def ack(self, tag: int) -> None:
        self.engine.ack(self.queue, tag, vhost=self.vhost)

    def nack(self, tag: int, requeue: bool = True) -> None:
        self.engine.nack(self.queue, tag, requeue=requeue, vhost=self.vhost)


# --------------------------------------------------------------------------
# topology files
# --------------------------------------------------------------------------

# a topology file's own keys (`_load` checks that each section is a list);
# its items' keys are their spec classes' fields
_TOPOLOGY_KEYS = {"vhost": "str", "exchanges": "list", "queues": "list", "bindings": "list"}

# what reading or declaring one malformed or conflicting item raises
_ITEM_ERRORS = (ExchError, AttributeError, TypeError, ValueError)


class _Where:
    """A topology item's name in a refusal, "kind item": formatted only when
    an item is refused, as the item's repr costs more than reading it."""

    __slots__ = ("kind", "item")

    def __init__(self, kind: str, item: object) -> None:
        self.kind = kind
        self.item = item

    def __str__(self) -> str:
        return f"{self.kind} {self.item!r}"


def _load(engine: ExchEngine, topology: dict) -> Iterator[tuple[str, Exception]]:
    """Declare each item of a topology mapping on `engine`, in load order:
    exchanges, then queues, then bindings.  `from_keys` reads each item into
    its spec class, with the file's `vhost` as the item's default, and then
    `declare_exchange`, `declare_queue` or `bind` declares it; an item that
    raises is yielded as (where, error), where naming the item, and loading
    goes on.  An unknown file key, and a section that is not a list, yield
    one error each."""
    try:
        check_keys(_TOPOLOGY_KEYS, topology, "topology")
    except ScenarioInvalid as e:
        yield "topology", e
    file_vhost = {"vhost": topology["vhost"]} if "vhost" in topology else {}
    for section, spec_class, read, declare in (
        ("exchanges", ExchangeSpec, {"kind": ExchangeKind}, engine.declare_exchange),
        ("queues", QueueSpec, {"mirrors": tuple, "overflow": OverflowPolicy}, engine.declare_queue),
        ("bindings", BindingSpec, {"match_mode": MatchMode}, engine.bind),
    ):
        items = topology.get(section, ())
        if not isinstance(items, (list, tuple)):
            yield "topology", ExchError(f"{section} must be a list, got {items!r}")
            continue
        kind = section[:-1]
        for item in items:
            where = _Where(kind, item)
            try:
                item = {**file_vhost, **file_mapping(item, kind)}
                declare(from_keys(spec_class, item, where, **read))
            except _ITEM_ERRORS as e:
                yield str(where), e


def validate_topology(topology: dict) -> list[str]:
    """What `load_topology` would reject, as a list of problems, one per
    item that raises.  The topology is loaded into a scratch engine whose
    nodes are the mirror names the file uses."""
    if not isinstance(topology, dict):
        return ["topology must be a JSON object"]
    queues = topology.get("queues", ())
    mirrors = {
        m
        for q in (queues if isinstance(queues, (list, tuple)) else ())
        if isinstance(q, dict) and isinstance(q.get("mirrors"), (list, tuple))
        for m in q["mirrors"]
        if isinstance(m, str)
    }
    scratch = ExchEngine(sorted(mirrors) or 1, latency_mode="none")
    problems = []
    for where, e in _load(scratch, topology):
        why = f"unknown {e}" if isinstance(e, UnknownEntity) else str(e)
        # the file reader's errors name their item already
        problems.append(why if isinstance(e, ScenarioInvalid) else f"{where}: {why}")
    return problems
