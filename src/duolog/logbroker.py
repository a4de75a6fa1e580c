"""Partitioned append-log engine.

Topics are split into partitions; each partition is an offset-indexed log of
segments replicated over simulated nodes.  Consumption is pull-based through
consumer groups that track committed offsets themselves.  Retention drops
whole segments, compaction keeps the newest record per key, and partition
replicas can be moved between nodes online.

Simulated nodes are in-process storage domains with a volatile and a durable
region: a crash discards everything above the flushed watermark, which is
what reproduces fsync-window loss without real disks.

Record layout: little-endian, length-prefixed records of

    u32 payload length | u32 header-block length | u64 offset |
    u64 produced_at_ns | header block | payload bytes

where the header block is a fixed struct

    u8 version | i64 seq | i64 ttl_ms | u32 flow length | u32 key length |
    u32 routing-key length | u32 headers length

followed by the UTF-8 flow id, the key, the UTF-8 routing key and, when
non-empty, the compact-JSON headers.  A length of 0xFFFFFFFF stands for
None (so `key=b""` stays distinct from no key) and a ttl of -2**63 for no
TTL.  Each record is encoded once on append; in memory a segment is a list
of those immutable records, shared by every replica of the partition.  The
optional `.seg` files, one per segment named `<base_offset>.seg`, hold the
segment's records concatenated.
"""

from __future__ import annotations

import functools
import json
import struct
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import BrokerContract, BrokerDown, Clock, FlushPolicy, Message, spin_ns
from .core import _frozen_delattr, _frozen_setattr, _new_tuple
from .core import (
    _set_flow_id, _set_headers, _set_key, _set_payload, _set_produced_at,
    _set_routing_key, _set_seq_no, _set_ttl_ms,
)
from .hashing import stable_hash64


# --------------------------------------------------------------------------
# errors
# --------------------------------------------------------------------------

class LogError(Exception):
    pass


class DuplicateTopic(LogError):
    pass


class UnknownTopic(LogError):
    pass


class UnknownPartition(LogError):
    pass


class UnknownNode(LogError):
    pass


class UnknownGroup(LogError):
    pass


class NotEnoughNodes(LogError):
    pass


class OffsetOutOfRange(LogError):
    pass


class NotAssigned(LogError):
    pass


class ReplicaExists(LogError):
    pass


class ReplicaMissing(LogError):
    pass


class KeylessMessage(LogError):
    pass


# --------------------------------------------------------------------------
# configuration types
# --------------------------------------------------------------------------

class LogAckMode(Enum):
    ACKS_0 = 0        # fire and forget: acknowledged on enqueue
    ACKS_1 = 1        # acknowledged once the leader holds the batch
    ACKS_QUORUM = -1  # acknowledged once a majority of replicas hold it


# the names scenario topologies and bench workloads give the ack modes
ACK_MODES = {"0": LogAckMode.ACKS_0, "1": LogAckMode.ACKS_1, "quorum": LogAckMode.ACKS_QUORUM}


@dataclass(frozen=True)
class RetentionPolicy:
    """At least one retention bound: age, message count or byte quota."""

    max_age_ms: Optional[int] = 7 * 24 * 3600 * 1000
    max_messages: Optional[int] = None
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_age_ms is None and self.max_messages is None and self.max_bytes is None:
            raise ValueError("at least one retention bound must be set")


@dataclass(frozen=True)
class TopicConfig:
    name: str
    partitions: int = 1
    replication_factor: int = 1
    retention: RetentionPolicy = RetentionPolicy()
    segment_bytes: int = 1 << 20
    flush: FlushPolicy = FlushPolicy()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("topic name must be non-empty")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")


class AckPhase(Enum):
    ENQUEUED = "enqueued"
    LEADER = "leader"
    QUORUM = "quorum"


# the phase at which `append_batch` acknowledges under each ack mode
_ACK_PHASE = {
    LogAckMode.ACKS_0: AckPhase.ENQUEUED,
    LogAckMode.ACKS_1: AckPhase.LEADER,
    LogAckMode.ACKS_QUORUM: AckPhase.QUORUM,
}


# a named tuple built with `tuple.__new__`, as the exchange's `Confirm` is:
# one per `append_batch`, with a frozen dataclass's fields, repr and
# `FrozenInstanceError`; as a tuple it also equals a plain tuple of the same
# values, and it is no longer a dataclass
class AppendReceipt(NamedTuple):
    base_offset: int
    count: int
    acked_at_phase: AckPhase

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr


@dataclass(frozen=True)
class PurgeReport:
    removed_per_partition: dict


@dataclass(frozen=True)
class CompactReport:
    partition: int
    removed: int
    retained: int


# --------------------------------------------------------------------------
# record codec
# --------------------------------------------------------------------------

_RECORD_HEADER = struct.Struct("<IIQQ")
# the prefix, then the fixed part of the header block: version, seq, ttl_ms,
# and the lengths of flow id, key, routing key and headers
_RECORD = struct.Struct("<IIQQBqqIIII")
_FIXED = _RECORD.size - _RECORD_HEADER.size
RECORD_VERSION = 1
_NONE_LEN = 0xFFFFFFFF  # a length field's "None"
_NO_TTL = -(1 << 63)
# bound once for every record's encode and decode
_pack_record = _RECORD.pack
_unpack_record = _RECORD.unpack_from
_RECORD_SIZE = _RECORD.size
_new_message = Message.__new__


def encode_record(offset: int, msg: Message) -> bytes:
    flow, key, rk, headers = msg.flow_id, msg.key, msg.routing_key, msg.headers
    ttl, payload = msg.ttl_ms, msg.payload
    if flow is None:
        flow, flow_len = b"", _NONE_LEN
    else:
        flow = flow.encode()
        flow_len = len(flow)
    if key is None:
        key, key_len = b"", _NONE_LEN
    else:
        key_len = len(key)
    if rk is None:
        rk, rk_len = b"", _NONE_LEN
    else:
        rk = rk.encode()
        rk_len = len(rk)
    headers = json.dumps(headers, sort_keys=True, separators=(",", ":")).encode() if headers else b""
    return b"".join((
        _pack_record(
            len(payload),
            _FIXED + len(flow) + len(key) + len(rk) + len(headers),
            offset,
            msg.produced_at,
            RECORD_VERSION,
            msg.seq_no,
            _NO_TTL if ttl is None else ttl,
            flow_len, key_len, rk_len, len(headers),
        ),
        flow, key, rk, headers, payload,
    ))


def decode_record(buf: bytes, pos: int = 0) -> tuple[int, Message, int]:
    """Decode one record at `pos`; returns (offset, message, next_pos).

    The `Message` is filled through its slot setters, as its `__init__`
    fills it, without the call into `__init__` and its defaults."""
    (payload_len, _, offset, produced_at, version, seq, ttl,
     flow_len, key_len, rk_len, headers_len) = _unpack_record(buf, pos)
    if version != RECORD_VERSION:
        raise ValueError(f"record version {version} at {pos} is not {RECORD_VERSION}")
    pos += _RECORD_SIZE
    msg = _new_message(Message)
    if flow_len == _NONE_LEN:
        _set_flow_id(msg, None)
    else:
        end = pos + flow_len
        _set_flow_id(msg, buf[pos:end].decode())
        pos = end
    if key_len == _NONE_LEN:
        _set_key(msg, None)
    else:
        end = pos + key_len
        _set_key(msg, buf[pos:end])
        pos = end
    if rk_len == _NONE_LEN:
        _set_routing_key(msg, None)
    else:
        end = pos + rk_len
        _set_routing_key(msg, buf[pos:end].decode())
        pos = end
    if headers_len:
        end = pos + headers_len
        _set_headers(msg, json.loads(buf[pos:end]))
        pos = end
    else:
        _set_headers(msg, {})
    end = pos + payload_len
    _set_payload(msg, buf[pos:end])
    _set_seq_no(msg, seq)
    _set_produced_at(msg, produced_at)
    _set_ttl_ms(msg, None if ttl == _NO_TTL else ttl)
    return offset, msg, end


def iter_records(buf: bytes) -> Iterator[tuple[int, Message]]:
    pos = 0
    while pos < len(buf):
        offset, msg, pos = decode_record(buf, pos)
        yield offset, msg


def record_key(buf: bytes) -> tuple[int, Optional[bytes]]:
    """Offset and key of the record `buf`, without a full decode."""
    (_, _, offset, _, _, _, _, flow_len, key_len, _, _) = _unpack_record(buf)
    start = _RECORD_SIZE + (0 if flow_len == _NONE_LEN else flow_len)
    key = None if key_len == _NONE_LEN else buf[start:start + key_len]
    return offset, key


# --------------------------------------------------------------------------
# storage
# --------------------------------------------------------------------------

class Segment:
    """One contiguous run of a partition log: the encoded records and their
    offsets, in parallel lists.

    Offsets may be sparse after compaction.  Record `bytes` are immutable,
    so every replica of a partition holds the same objects; `size_bytes`
    still counts each segment's logical bytes.  A segment is never empty:
    `append_encoded` makes one only to append to it, and
    `truncate_to_flushed` drops any that it empties.
    """

    __slots__ = ("base_offset", "offsets", "records", "size_bytes")

    def __init__(self, base_offset: int) -> None:
        self.base_offset = base_offset
        self.offsets: list[int] = []
        self.records: list[bytes] = []
        self.size_bytes = 0

    @property
    def count(self) -> int:
        return len(self.offsets)

    @property
    def last_offset(self) -> int:
        return self.offsets[-1]

    def truncate_from(self, offset: int) -> int:
        """Drop records with offset >= `offset`; returns how many were cut."""
        i = bisect_left(self.offsets, offset)
        cut = len(self.offsets) - i
        if cut:
            self.size_bytes -= sum(map(len, self.records[i:]))
            del self.offsets[i:]
            del self.records[i:]
        return cut

    def clone(self) -> "Segment":
        s = Segment(self.base_offset)
        s.offsets = list(self.offsets)
        s.records = list(self.records)
        s.size_bytes = self.size_bytes
        return s


# the sort keys of a replica's segments, which are in offset order
_base_offset = attrgetter("base_offset")
_last_offset = attrgetter("last_offset")


class Replica:
    """One node's copy of a partition log."""

    __slots__ = (
        "node_id", "topic", "partition",
        "segments", "next_offset", "flushed_up_to", "last_flush_ns", "start_offset",
    )

    def __init__(self, node_id: str, topic: str, partition: int) -> None:
        self.node_id = node_id
        self.topic = topic
        self.partition = partition
        self.segments: list[Segment] = []
        self.next_offset = 0
        self.flushed_up_to = 0
        self.last_flush_ns = 0
        # first offset still covered by the log; advanced by retention only,
        # compaction leaves it alone and merely makes the log sparse
        self.start_offset = 0

    def append_encoded(
        self, offsets: Sequence[int], records: Sequence[bytes], segment_bytes: int, size: int
    ) -> None:
        """Append already-encoded records of `size` bytes in all, rolling a
        new segment whenever the next record would push a non-empty tail
        past `segment_bytes`."""
        tail = self.segments[-1] if self.segments else None
        if tail is not None and tail.size_bytes + size <= segment_bytes:
            # the whole batch fits the tail, so no record would roll a segment
            tail.offsets.extend(offsets)
            tail.records.extend(records)
            tail.size_bytes += size
        else:
            for offset, rec in zip(offsets, records):
                if tail is None or tail.size_bytes + len(rec) > segment_bytes:
                    tail = Segment(offset)
                    self.segments.append(tail)
                tail.offsets.append(offset)
                tail.records.append(rec)
                tail.size_bytes += len(rec)
        self.next_offset = offsets[-1] + 1

    def total_messages(self) -> int:
        return sum(seg.count for seg in self.segments)

    def total_bytes(self) -> int:
        return sum(seg.size_bytes for seg in self.segments)

    def first_segment(self, offset: int) -> int:
        """Index of the first segment that can hold an offset >= `offset`:
        the last whose base is at or below it, as a segment's offsets start
        at or above its base and the segments are in order."""
        return max(bisect_right(self.segments, offset, key=_base_offset) - 1, 0)

    def records_from(self, offset: int) -> Iterator[tuple[int, bytes]]:
        segs = self.segments
        for s in range(self.first_segment(offset), len(segs)):
            seg = segs[s]
            i = bisect_left(seg.offsets, offset)
            yield from zip(seg.offsets[i:], seg.records[i:])

    def truncate_to_flushed(self) -> int:
        """Discard the volatile region (offsets >= flushed_up_to)."""
        lost = 0
        keep: list[Segment] = []
        for seg in self.segments:
            if seg.last_offset < self.flushed_up_to:
                keep.append(seg)
            else:
                lost += seg.truncate_from(self.flushed_up_to)
                if seg.count:
                    keep.append(seg)
        self.segments = keep
        self.next_offset = self.flushed_up_to
        return lost


class Partition:
    def __init__(self, topic: str, index: int, replicas: list[Replica]) -> None:
        self.topic = topic
        self.index = index
        self.replicas = replicas
        self.lock = threading.RLock()
        # the quorum offset when a replica last crashed: its truncation must
        # not hide offsets a quorum already confirmed
        self.hw_floor = 0

    def replica_on(self, node_id: str) -> Optional[Replica]:
        for r in self.replicas:
            if r.node_id == node_id:
                return r
        return None


@dataclass
class Topic:
    config: TopicConfig
    partitions: list[Partition]


@dataclass
class ConsumerGroup:
    group_id: str
    assignment: dict = field(default_factory=dict)   # (topic, partition) -> member
    committed: dict = field(default_factory=dict)    # (topic, partition) -> offset


# --------------------------------------------------------------------------
# partitioner
# --------------------------------------------------------------------------

def partition_for(key: Optional[bytes], n_partitions: int, rotation: int = 0) -> int:
    """Pick a partition for a message key.

    Keyed messages hash deterministically (stable across runs and
    processes); keyless messages rotate round-robin using the caller-held
    `rotation` counter.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    if key is None:
        return rotation % n_partitions
    return stable_hash64(key) % n_partitions


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------

# the most (key, partition count) pairs whose partition is kept; the least
# recently used is dropped past it, so memory stays bounded whatever the keys
_KEYS_CACHED = 1024


@functools.lru_cache(maxsize=_KEYS_CACHED)
def _keyed_partition(key: bytes, n_partitions: int) -> int:
    """`partition_for` of a keyed message, kept for the most recently used
    keys: FNV-1a in pure Python costs about 0.4 us for a 3-byte key, and
    more for a longer one."""
    return stable_hash64(key) % n_partitions


# a flush bound that is not set: no count or age reaches it
_NEVER = float("inf")


def quorum_size(replication_factor: int) -> int:
    return (replication_factor + 1 + 1) // 2  # ceil((rf + 1) / 2)


def _quorum_offset(replicas: list[Replica], rf: int) -> int:
    """The highest offset held by a quorum of the `rf` replicas: the
    `quorum_size(rf)`-th largest of their next offsets.  Picked by compares
    up to rf=3, without building and sorting a list."""
    if rf == 3:
        a, b, c = replicas
        a, b, c = a.next_offset, b.next_offset, c.next_offset
        if a > b:
            a, b = b, a
        # the middle of three: b, unless c is below it
        if c >= b:
            return b
        return c if c > a else a
    if rf == 2:
        a, b = replicas
        a, b = a.next_offset, b.next_offset
        return a if a < b else b
    if rf == 1:
        return replicas[0].next_offset
    return sorted([r.next_offset for r in replicas])[-quorum_size(rf)]


class LogEngine(BrokerContract):
    """In-process partitioned log broker over simulated nodes.

    One logical writer per partition (appends are serialized per partition),
    fetches take the same per-partition lock, control operations take the
    engine lock.  Safe for concurrent use by many producer/consumer threads.
    """

    _unknown_node = UnknownNode

    def __init__(
        self,
        nodes: int | Iterable[str] = 3,
        *,
        clock: Clock = time.monotonic_ns,
        data_dir: Optional[Path] = None,
        fsync_latency_ns: int = 0,
        replica_ack_rtt_ns: int = 0,
    ) -> None:
        super().__init__(nodes, clock)
        self.topics: dict[str, Topic] = {}
        self.groups: dict[str, ConsumerGroup] = {}
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.fsync_latency_ns = fsync_latency_ns
        # waiting on a follower acknowledgment costs a second round trip
        self.replica_ack_rtt_ns = replica_ack_rtt_ns
        self._rotors: dict[str, int] = {}
        self._lock = threading.RLock()

    # -- contract ----------------------------------------------------------

    def crash_node(self, node_id: str) -> None:
        node = self._node(node_id)
        node.alive = False
        with self._lock:
            for topic in self.topics.values():
                for part in topic.partitions:
                    with part.lock:
                        rep = part.replica_on(node_id)
                        if rep is not None:
                            part.hw_floor = max(
                                part.hw_floor,
                                _quorum_offset(part.replicas, topic.config.replication_factor),
                            )
                            rep.truncate_to_flushed()

    def restart_node(self, node_id: str) -> None:
        node = self._node(node_id)
        node.alive = True
        with self._lock:
            for topic in self.topics.values():
                for part in topic.partitions:
                    with part.lock:
                        rep = part.replica_on(node_id)
                        if rep is None:
                            continue
                        try:
                            leader = self._leader(part)
                        except BrokerDown:
                            continue
                        if leader is not rep:
                            self._catch_up(rep, leader, topic.config)

    def payload_bytes(self) -> int:
        total = 0
        with self._lock:
            for topic in self.topics.values():
                for part in topic.partitions:
                    with part.lock:
                        for rep in part.replicas:
                            total += rep.total_bytes()
        return total

    # -- topics ------------------------------------------------------------

    def create_topic(self, cfg: TopicConfig) -> Topic:
        with self._lock:
            if cfg.name in self.topics:
                raise DuplicateTopic(cfg.name)
            if cfg.replication_factor > len(self.nodes):
                raise NotEnoughNodes(
                    f"replication_factor {cfg.replication_factor} > {len(self.nodes)} nodes"
                )
            node_ids = list(self.nodes)
            now = self.clock()
            partitions = []
            for p in range(cfg.partitions):
                replicas = [
                    Replica(node_ids[(p + i) % len(node_ids)], cfg.name, p)
                    for i in range(cfg.replication_factor)
                ]
                for rep in replicas:
                    rep.last_flush_ns = now
                partitions.append(Partition(cfg.name, p, replicas))
            topic = Topic(cfg, partitions)
            self.topics[cfg.name] = topic
            self._rotors[cfg.name] = 0
            return topic

    def partition_for(self, topic: str, key: Optional[bytes]) -> int:
        t = self.topics.get(topic)
        if t is None:
            raise UnknownTopic(topic)
        if key is None:
            self._lock.acquire()
            try:
                rotation = self._rotors[topic]
                self._rotors[topic] = rotation + 1
            finally:
                self._lock.release()
            return partition_for(None, t.config.partitions, rotation=rotation)
        return _keyed_partition(key, t.config.partitions)

    # -- append / fetch ------------------------------------------------------

    def append_batch(
        self,
        topic: str,
        partition: int,
        msgs: list[Message],
        acks: LogAckMode = LogAckMode.ACKS_1,
    ) -> AppendReceipt:
        if not msgs:
            raise ValueError("append_batch needs at least one message")
        t = self.topics.get(topic)
        if t is None:
            raise UnknownTopic(topic)
        if not 0 <= partition < len(t.partitions):
            raise UnknownPartition(f"{topic}/{partition}")
        part = t.partitions[partition]
        cfg = t.config
        # the phase named by identity, before anything is appended: a value
        # that is no ack mode raises `_ACK_PHASE`'s `KeyError` with no
        # replica moved, and `_ACK_PHASE[acks]` would run the Python-level
        # `Enum.__hash__` for the two modes named here
        if acks is LogAckMode.ACKS_QUORUM:
            phase = AckPhase.QUORUM
        elif acks is LogAckMode.ACKS_1:
            phase = AckPhase.LEADER
        else:
            phase = _ACK_PHASE[acks]
        # a fault hook may crash a node under the lock, which re-enters it
        part.lock.acquire()
        try:
            leader = self._leader(part)
            if self.fault_hook is not None:
                self.fault_hook("pre_commit", topic, partition)
            base = leader.next_offset
            end = base + len(msgs)
            # encoded once; every replica holds the same record and offset
            # objects (a list, as extending three replicas from a `range`
            # would make each its own offset ints)
            offsets = list(range(base, end))
            records = [encode_record(off, msg) for off, msg in zip(offsets, msgs)]
            size = sum(map(len, records))
            segment_bytes = cfg.segment_bytes
            # `cfg.flush.due` inline for each replica, with its bounds read
            # once (a bound not set is one never reached) and one clock read
            every, after_ms = cfg.flush.flush_interval_messages, cfg.flush.flush_interval_ms
            every = _NEVER if every is None else every
            after_ns = _NEVER if after_ms is None else after_ms * 1_000_000
            now = self.clock()
            leader.append_encoded(offsets, records, segment_bytes, size)
            if (leader.next_offset - leader.flushed_up_to >= every
                    or now - leader.last_flush_ns >= after_ns):
                self._flush(leader, cfg, now)
            if self.fault_hook is not None:
                self.fault_hook("post_leader", topic, partition)
            acceptors = 1
            nodes = self.nodes
            for rep in part.replicas:
                if rep is leader or not nodes[rep.node_id].alive:
                    continue
                if rep.next_offset < base:
                    self._catch_up(rep, leader, cfg)
                if rep.next_offset == base:
                    rep.append_encoded(offsets, records, segment_bytes, size)
                    if (rep.next_offset - rep.flushed_up_to >= every
                            or now - rep.last_flush_ns >= after_ns):
                        self._flush(rep, cfg, now)
                if rep.next_offset >= end:
                    acceptors += 1
            if phase is AckPhase.QUORUM:
                rf = cfg.replication_factor
                if acceptors < quorum_size(rf):
                    raise BrokerDown(
                        f"quorum {quorum_size(rf)} unavailable ({acceptors} acceptors)"
                    )
                if rf >= 2 and self.replica_ack_rtt_ns:
                    spin_ns(self.replica_ack_rtt_ns)
            return _new_tuple(AppendReceipt, (base, len(msgs), phase))
        finally:
            part.lock.release()

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_bytes: int = 1 << 20,
    ) -> tuple[list[Message], int]:
        """Messages with offsets >= `offset` up to `max_bytes`, plus the
        high watermark.  Under replication only quorum-held offsets are
        visible."""
        if offset < 0:
            raise OffsetOutOfRange(f"offset {offset} < 0")
        t = self.topics.get(topic)
        if t is None:
            raise UnknownTopic(topic)
        if not 0 <= partition < len(t.partitions):
            raise UnknownPartition(f"{topic}/{partition}")
        part = t.partitions[partition]
        part.lock.acquire()
        try:
            leader = self._leader(part)
            hw = self._high_watermark(part, t.config.replication_factor, leader)
            start = leader.start_offset
            if offset < start:
                raise OffsetOutOfRange(f"offset {offset} < oldest retained {start}")
            if offset > leader.next_offset:
                raise OffsetOutOfRange(f"offset {offset} > next offset {leader.next_offset}")
            out: list[Message] = []
            if offset >= hw:
                return out, hw
            segs = leader.segments
            used = 0
            for s in range(leader.first_segment(offset), len(segs)):
                offsets, records = segs[s].offsets, segs[s].records
                lo = bisect_left(offsets, offset)
                cut = bisect_left(offsets, hw, lo)  # the first offset at the watermark
                for i in range(lo, cut):
                    rec = records[i]
                    used += len(rec)
                    if used > max_bytes and out:
                        return out, hw
                    # looked up by its module name on every call, so that
                    # a wrapper installed on `decode_record` sees each one
                    out.append(decode_record(rec)[1])
                if cut < len(offsets):
                    break
            return out, hw
        finally:
            part.lock.release()

    def flush_all(self, topic: str) -> None:
        t = self._topic(topic)
        for part in t.partitions:
            with part.lock:
                for rep in part.replicas:
                    if self.nodes[rep.node_id].alive:
                        self._flush(rep, t.config, self.clock())

    def next_offset(self, topic: str, partition: int) -> int:
        t = self.topics.get(topic)
        if t is None:
            raise UnknownTopic(topic)
        if not 0 <= partition < len(t.partitions):
            raise UnknownPartition(f"{topic}/{partition}")
        part = t.partitions[partition]
        part.lock.acquire()
        try:
            return self._leader(part).next_offset
        finally:
            part.lock.release()

    def high_watermark(self, topic: str, partition: int) -> int:
        t = self.topics.get(topic)
        if t is None:
            raise UnknownTopic(topic)
        if not 0 <= partition < len(t.partitions):
            raise UnknownPartition(f"{topic}/{partition}")
        part = t.partitions[partition]
        part.lock.acquire()
        try:
            # `_leader` raises `BrokerDown` when every replica is down, as
            # `fetch` does
            return self._high_watermark(part, t.config.replication_factor, self._leader(part))
        finally:
            part.lock.release()

    # -- consumer groups -----------------------------------------------------

    def assign_partitions(self, group_id: str, topic: str, member_ids: list[str]) -> dict[int, str]:
        """Deterministic balanced assignment: sorted partitions dealt
        round-robin over sorted members; extra members idle."""
        if not member_ids:
            raise ValueError("need at least one member")
        t = self._topic(topic)
        members = sorted(member_ids)
        with self._lock:
            group = self.groups.setdefault(group_id, ConsumerGroup(group_id))
            assignment = {}
            for p in range(t.config.partitions):
                owner = members[p % len(members)]
                assignment[p] = owner
                group.assignment[(topic, p)] = owner
            return assignment

    def commit_offset(
        self, group_id: str, member_id: str, topic: str, partition: int, offset: int
    ) -> None:
        t = self.topics.get(topic)
        if t is None:
            raise UnknownTopic(topic)
        if not 0 <= partition < len(t.partitions):
            raise UnknownPartition(f"{topic}/{partition}")
        part = t.partitions[partition]
        tp = (topic, partition)
        self._lock.acquire()
        try:
            group = self.groups.get(group_id)
            if group is None or group.assignment.get(tp) != member_id:
                raise NotAssigned(f"{member_id} does not own {topic}/{partition} in {group_id}")
            part.lock.acquire()
            try:
                limit = self._leader(part).next_offset
            finally:
                part.lock.release()
            if offset < 0 or offset > limit:
                raise OffsetOutOfRange(f"commit {offset} outside [0, {limit}]")
            group.committed[tp] = offset
        finally:
            self._lock.release()

    def committed(self, group_id: str, topic: str, partition: int) -> int:
        with self._lock:
            group = self.groups.get(group_id)
            if group is None:
                raise UnknownGroup(group_id)
            return group.committed.get((topic, partition), 0)

    # -- retention / compaction ----------------------------------------------

    def purge(self, topic: str) -> PurgeReport:
        """Drop oldest whole segments until every active retention bound
        holds; the tail segment's unflushed region is never dropped."""
        t = self._topic(topic)
        pol = t.config.retention
        now = self.clock()
        removed: dict[int, int] = {}
        for part in t.partitions:
            with part.lock:
                leader = self._leader(part)
                segs = leader.segments
                # the leader's totals, taken once and less each segment dropped
                total, size = leader.total_messages(), leader.total_bytes()
                messages = total
                k = 0
                while k < len(segs):
                    seg = segs[k]
                    if seg.last_offset >= leader.flushed_up_to:
                        break  # protects the unflushed tail region
                    if not self._retention_violated(pol, seg, messages, size, now):
                        break
                    messages -= seg.count
                    size -= seg.size_bytes
                    k += 1
                removed[part.index] = total - messages
                if k:
                    self._drop_segments(part, segs[k - 1].last_offset + 1)
        return PurgeReport(removed_per_partition=removed)

    def compact(self, topic: str, partition: int) -> CompactReport:
        """Keep only the highest-offset record per key; survivor offsets are
        unchanged, so the log becomes sparse."""
        t = self._topic(topic)
        part = self._partition(t, partition)
        with part.lock:
            leader = self._leader(part)
            for rep in part.replicas:
                if rep is not leader and self.nodes[rep.node_id].alive:
                    self._catch_up(rep, leader, t.config)
            last_per_key: dict[bytes, int] = {}
            total = 0
            for seg in leader.segments:
                for rec in seg.records:
                    off, key = record_key(rec)
                    if key is None:
                        raise KeylessMessage(f"offset {off} has no key")
                    last_per_key[key] = off
                    total += 1
            survivors = set(last_per_key.values())
            for rep in part.replicas:
                self._rewrite_with(rep, survivors, t.config.segment_bytes)
            retained = len(survivors)
            return CompactReport(partition=partition, removed=total - retained, retained=retained)

    # -- partition movement ----------------------------------------------------

    def move_partition(self, topic: str, partition: int, from_node: str, to_node: str) -> None:
        """Create a caught-up replica on `to_node`, then delete the old one.
        Appends and fetches keep working throughout."""
        t = self._topic(topic)
        part = self._partition(t, partition)
        self._node(from_node)
        dest = self._node(to_node)
        if not dest.alive:
            raise BrokerDown(f"{to_node} is down")
        with part.lock:
            if part.replica_on(to_node) is not None:
                raise ReplicaExists(f"{to_node} already hosts {topic}/{partition}")
            src = part.replica_on(from_node)
            if src is None:
                raise ReplicaMissing(f"{from_node} hosts no replica of {topic}/{partition}")
            if not self.nodes[from_node].alive:
                src = self._leader(part)
            new = Replica(to_node, topic, partition)
            new.segments = [seg.clone() for seg in src.segments]
            new.next_offset = src.next_offset
            new.flushed_up_to = src.next_offset  # materialized on arrival
            new.start_offset = src.start_offset
            new.last_flush_ns = self.clock()
            idx = part.replicas.index(part.replica_on(from_node))
            part.replicas[idx] = new

    # -- persistence --------------------------------------------------------

    def segment_paths(self, topic: str, partition: int, node_id: str) -> list[Path]:
        if self.data_dir is None:
            return []
        d = self.data_dir / node_id / topic / str(partition)
        return sorted(d.glob("*.seg")) if d.exists() else []

    # -- internals ----------------------------------------------------------

    def _topic(self, name: str) -> Topic:
        t = self.topics.get(name)
        if t is None:
            raise UnknownTopic(name)
        return t

    def _partition(self, topic: Topic, index: int) -> Partition:
        if not 0 <= index < len(topic.partitions):
            raise UnknownPartition(f"{topic.config.name}/{index}")
        return topic.partitions[index]

    def _leader(self, part: Partition) -> Replica:
        best: Optional[Replica] = None
        for rep in part.replicas:
            if not self.nodes[rep.node_id].alive:
                continue
            if best is None or rep.next_offset > best.next_offset:
                best = rep
        if best is None:
            raise BrokerDown(f"all replicas of {part.topic}/{part.index} down")
        return best

    def _high_watermark(
        self, part: Partition, rf: int, leader: Optional[Replica] = None
    ) -> int:
        """Pass `leader` when the caller already holds it; without it the
        leader is looked up only where the watermark needs it."""
        if rf == 1:
            return (leader or self._leader(part)).next_offset
        hw = _quorum_offset(part.replicas, rf)
        if part.hw_floor > hw:
            hw = min(part.hw_floor, (leader or self._leader(part)).next_offset)
        return hw

    def _catch_up(self, rep: Replica, leader: Replica, cfg: TopicConfig) -> None:
        missing = list(leader.records_from(rep.next_offset))
        if missing:
            offsets, records = zip(*missing)
            rep.append_encoded(offsets, records, cfg.segment_bytes, sum(map(len, records)))

    def _flush(self, rep: Replica, cfg: TopicConfig, now: int) -> None:
        if rep.flushed_up_to == rep.next_offset:
            return
        rep.flushed_up_to = rep.next_offset
        rep.last_flush_ns = now
        if self.fsync_latency_ns:
            spin_ns(self.fsync_latency_ns)
        if self.data_dir is not None:
            self._persist(rep, cfg)

    def _persist(self, rep: Replica, cfg: TopicConfig) -> None:
        d = self.data_dir / rep.node_id / rep.topic / str(rep.partition)
        d.mkdir(parents=True, exist_ok=True)
        for seg in rep.segments:
            tmp = d / f".{seg.base_offset:020d}.seg.tmp"
            tmp.write_bytes(b"".join(seg.records))
            tmp.replace(d / f"{seg.base_offset:020d}.seg")

    def _retention_violated(
        self, pol: RetentionPolicy, oldest: Segment, messages: int, size: int, now: int
    ) -> bool:
        """Whether a log of `messages` records and `size` bytes, whose oldest
        segment is `oldest`, breaks a bound of `pol` at time `now`."""
        if pol.max_messages is not None and messages > pol.max_messages:
            return True
        if pol.max_bytes is not None and size > pol.max_bytes:
            return True
        if pol.max_age_ms is not None:
            produced_at = _RECORD_HEADER.unpack_from(oldest.records[0])[3]
            if produced_at + pol.max_age_ms * 1_000_000 < now:
                return True
        return False

    def _drop_segments(self, part: Partition, end: int) -> None:
        """Drop from each replica the segments wholly below offset `end`."""
        for rep in part.replicas:
            segs = rep.segments
            k = bisect_left(segs, end, key=_last_offset)
            if k:
                rep.start_offset = max(rep.start_offset, segs[k - 1].last_offset + 1)
                del segs[:k]

    def _rewrite_with(self, rep: Replica, survivors: set[int], segment_bytes: int) -> None:
        offsets: list[int] = []
        records: list[bytes] = []
        for seg in rep.segments:
            for off, rec in zip(seg.offsets, seg.records):
                if off in survivors:
                    offsets.append(off)
                    records.append(rec)
        next_off, flushed = rep.next_offset, rep.flushed_up_to
        rep.segments = []
        if records:
            rep.append_encoded(offsets, records, segment_bytes, sum(map(len, records)))
        rep.next_offset, rep.flushed_up_to = next_off, flushed
