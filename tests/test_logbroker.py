"""Log engine: topics, appends, acks, fetch gating, groups, retention,
compaction, movement and crash semantics."""

import dataclasses
import itertools
import json
import random
import struct
import time

import pytest

from duolog.core import BrokerDown, FlushPolicy, Message
from duolog.logbroker import (
    _ACK_PHASE,
    _KEYS_CACHED,
    _keyed_partition,
    _quorum_offset,
    AckPhase,
    AppendReceipt,
    DuplicateTopic,
    KeylessMessage,
    LogAckMode,
    LogEngine,
    NotAssigned,
    NotEnoughNodes,
    OffsetOutOfRange,
    PurgeReport,
    ReplicaExists,
    Replica,
    RetentionPolicy,
    TopicConfig,
    decode_record,
    encode_record,
    iter_records,
    partition_for,
    quorum_size,
    record_key,
)

NO_TIME_FLUSH = FlushPolicy(flush_interval_messages=10_000, flush_interval_ms=None)


def msgs(flow, start, n, payload=b"x", key=None):
    return [Message(flow, start + i, payload=payload, key=key, produced_at=i) for i in range(n)]


def make_engine(**kw):
    kw.setdefault("clock", lambda: 0)
    return LogEngine(3, **kw)


# --------------------------------------------------------------------------
# record codec
# --------------------------------------------------------------------------

def test_record_round_trip():
    m = Message(
        "flow-1", 7, payload=b"\x00payload\xff", key=b"k1", routing_key="a.b",
        headers={"h": "v"}, produced_at=123456789, ttl_ms=250,
    )
    rec = encode_record(42, m)
    off, decoded, consumed = decode_record(rec)
    assert off == 42
    assert consumed == len(rec)
    assert decoded == m


def test_record_layout_golden():
    # u32 payload len | u32 header len | u64 offset | u64 produced_at, little endian
    m = Message("f", 0, payload=b"AB", produced_at=1)
    rec = encode_record(3, m)
    assert rec[:4] == (2).to_bytes(4, "little")
    header_len = int.from_bytes(rec[4:8], "little")
    assert rec[8:16] == (3).to_bytes(8, "little")
    assert rec[16:24] == (1).to_bytes(8, "little")
    # u8 version | i64 seq | i64 ttl (-2**63: none) | u32 flow, key,
    # routing-key and headers lengths (0xFFFFFFFF: none) | flow id
    assert rec[24:24 + header_len] == bytes.fromhex(
        "01" "0000000000000000" "0000000000000080"
        "01000000" "ffffffff" "ffffffff" "00000000"
    ) + b"f"
    assert rec[24 + header_len:] == b"AB"


CODEC_CASES = list(itertools.product(
    [None, b"", b"\x00\xff\x80key"],                            # key
    [None, "orders.eu.new"],                                   # routing_key
    [{}, {"trace": {"ids": [1, 2, {"x": None}], "é": "ü"}}],  # headers
    [None, 0, 7 * 24 * 3600 * 1000 * 1000],                   # ttl_ms
))


@pytest.mark.parametrize("key,rk,headers,ttl", CODEC_CASES)
def test_record_codec_round_trips_every_field_combination(key, rk, headers, ttl):
    m = Message(
        "flüß-流", 2**62, payload=b"\x00body\xff", key=key, routing_key=rk,
        headers=headers, produced_at=2**64 - 1, ttl_ms=ttl,
    )
    rec = encode_record(2**40, m)
    assert decode_record(rec) == (2**40, m, len(rec))
    assert record_key(rec) == (2**40, key)


def test_record_codec_walks_concatenated_records():
    batch = [
        Message("f", i, payload=b"p" * i, key=key, routing_key=rk, headers=h, ttl_ms=ttl)
        for i, (key, rk, h, ttl) in enumerate(CODEC_CASES)
    ]
    buf = b"".join(encode_record(10 + i, m) for i, m in enumerate(batch))
    assert list(iter_records(buf)) == [(10 + i, m) for i, m in enumerate(batch)]


def test_record_codec_rejects_unknown_version():
    rec = bytearray(encode_record(0, Message("f", 0)))
    rec[24] = 99
    with pytest.raises(ValueError):
        decode_record(bytes(rec))


# The codec as it was before it read each field once and filled `Message`
# through its slot setters: the references the current one must equal.
_REF_RECORD = struct.Struct("<IIQQBqqIIII")
_REF_FIXED = _REF_RECORD.size - struct.calcsize("<IIQQ")


def reference_encode_record(offset, msg):
    flow = b"" if msg.flow_id is None else msg.flow_id.encode()
    key = b"" if msg.key is None else msg.key
    rk = b"" if msg.routing_key is None else msg.routing_key.encode()
    headers = (
        json.dumps(msg.headers, sort_keys=True, separators=(",", ":")).encode()
        if msg.headers else b""
    )
    payload = msg.payload
    return b"".join((
        _REF_RECORD.pack(
            len(payload),
            _REF_FIXED + len(flow) + len(key) + len(rk) + len(headers),
            offset,
            msg.produced_at,
            1,
            msg.seq_no,
            -(1 << 63) if msg.ttl_ms is None else msg.ttl_ms,
            0xFFFFFFFF if msg.flow_id is None else len(flow),
            0xFFFFFFFF if msg.key is None else len(key),
            0xFFFFFFFF if msg.routing_key is None else len(rk),
            len(headers),
        ),
        flow, key, rk, headers, payload,
    ))


def reference_decode_record(buf, pos=0):
    (payload_len, _, offset, produced_at, version, seq, ttl,
     flow_len, key_len, rk_len, headers_len) = _REF_RECORD.unpack_from(buf, pos)
    assert version == 1
    pos += _REF_RECORD.size
    flow = None
    if flow_len != 0xFFFFFFFF:
        flow = buf[pos:pos + flow_len].decode()
        pos += flow_len
    key = None
    if key_len != 0xFFFFFFFF:
        key = buf[pos:pos + key_len]
        pos += key_len
    rk = None
    if rk_len != 0xFFFFFFFF:
        rk = buf[pos:pos + rk_len].decode()
        pos += rk_len
    headers = {}
    if headers_len:
        headers = json.loads(buf[pos:pos + headers_len])
        pos += headers_len
    end = pos + payload_len
    msg = Message(
        flow, seq, buf[pos:end], key, rk, headers, produced_at,
        None if ttl == -(1 << 63) else ttl,
    )
    return offset, msg, end


# every None/present combination of flow id, key, routing key, headers and ttl
ORACLE_MESSAGES = [
    Message(flow, 2**40 + i, payload=b"\x00p" * i, key=key, routing_key=rk,
            headers=headers, produced_at=7 * i, ttl_ms=ttl)
    for i, (flow, key, rk, headers, ttl) in enumerate(itertools.product(
        [None, "flüß-流"], [None, b"\x00k\xff"], [None, "a.b.c"],
        [{}, {"h": [1, {"é": None}]}], [None, 250],
    ))
]


def fields_of(msg):
    """Each field's type and value, so `b"k"` and `bytearray(b"k")` differ."""
    values = [getattr(msg, f.name) for f in dataclasses.fields(msg)]
    return [(type(v), v) for v in values]


def test_the_codec_equals_its_reference_on_every_field_combination():
    assert len(ORACLE_MESSAGES) == 32
    for i, msg in enumerate(ORACLE_MESSAGES):
        rec = encode_record(100 + i, msg)
        assert rec == reference_encode_record(100 + i, msg), msg
        off, got, end = decode_record(rec)
        ref_off, ref, ref_end = reference_decode_record(rec)
        assert (off, end) == (ref_off, ref_end) == (100 + i, len(rec))
        assert fields_of(got) == fields_of(ref) == fields_of(msg)
        # each decode builds its own headers dict, shared with no other message
        again = decode_record(rec)[1]
        assert got.headers == again.headers and got.headers is not again.headers
        assert got.headers is not msg.headers
        got.headers["added"] = 1
        assert "added" not in again.headers and "added" not in msg.headers
        assert record_key(rec) == (100 + i, msg.key)


def test_the_codec_walks_concatenated_records_as_its_reference_does():
    buf = b"".join(reference_encode_record(i, m) for i, m in enumerate(ORACLE_MESSAGES))
    got = list(iter_records(buf))
    pos, ref = 0, []
    while pos < len(buf):
        off, msg, pos = reference_decode_record(buf, pos)
        ref.append((off, msg))
    assert [(off, fields_of(m)) for off, m in got] == [(off, fields_of(m)) for off, m in ref]
    assert [m for _, m in got] == ORACLE_MESSAGES
    # a record decoded in the middle of a buffer ends where the next begins
    starts = [0]
    for i, m in enumerate(ORACLE_MESSAGES):
        starts.append(starts[-1] + len(encode_record(i, m)))
    for i in range(len(ORACLE_MESSAGES)):
        assert decode_record(buf, starts[i])[0::2] == (i, starts[i + 1])


# --------------------------------------------------------------------------
# topics
# --------------------------------------------------------------------------

def test_create_topic_empty_partitions():
    eng = make_engine()
    topic = eng.create_topic(TopicConfig("t", partitions=3))
    assert len(topic.partitions) == 3
    for p in range(3):
        assert eng.next_offset("t", p) == 0


def test_create_topic_duplicate():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    with pytest.raises(DuplicateTopic):
        eng.create_topic(TopicConfig("t"))


def test_create_topic_not_enough_nodes():
    eng = LogEngine(1)
    with pytest.raises(NotEnoughNodes):
        eng.create_topic(TopicConfig("t", replication_factor=2))


def test_create_topic_zero_partitions_rejected():
    with pytest.raises(ValueError):
        TopicConfig("t", partitions=0)


# --------------------------------------------------------------------------
# partitioner
# --------------------------------------------------------------------------

def test_keyed_partitioning_deterministic_and_in_range():
    a = partition_for(b"user42", 4)
    b = partition_for(b"user42", 4)
    assert a == b and 0 <= a < 4


def test_keyless_single_partition():
    assert partition_for(None, 1) == 0


def test_keyless_round_robin():
    got = [partition_for(None, 3, rotation=r) for r in range(6)]
    assert got == [0, 1, 2, 0, 1, 2]


def test_partitioner_golden_values():
    # seed-stable across runs and processes; frozen from first computation
    assert partition_for(b"a", 8) == 4
    assert partition_for(b"user42", 8) == 0
    assert partition_for(b"flow-3", 5) == 4


def test_engine_rotor_round_robins_keyless():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", partitions=3))
    assert [eng.partition_for("t", None) for _ in range(4)] == [0, 1, 2, 0]


def test_engine_partitioner_equals_the_module_one_past_its_cache_bound():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", partitions=7))
    keys = [b"key-%d" % i for i in range(2 * _KEYS_CACHED)]
    for _ in range(2):  # the second pass finds the first half evicted
        for key in keys:
            assert eng.partition_for("t", key) == partition_for(key, 7), key
            assert _keyed_partition.cache_info().currsize <= _KEYS_CACHED
    # a key that turns hot after the cold ones is kept
    hits = _keyed_partition.cache_info().hits
    for _ in range(3):
        assert eng.partition_for("t", b"hot") == partition_for(b"hot", 7)
    assert _keyed_partition.cache_info().hits == hits + 2


def test_a_key_keeps_a_partition_per_partition_count():
    eng = make_engine()
    for n in (1, 2, 3, 5, 8):
        eng.create_topic(TopicConfig(f"t{n}", partitions=n))
    for _ in range(2):
        for n in (1, 2, 3, 5, 8):
            assert eng.partition_for(f"t{n}", b"k") == partition_for(b"k", n)


def test_keyless_rotation_is_per_topic_and_unmoved_by_keyed_calls():
    eng = make_engine()
    eng.create_topic(TopicConfig("a", partitions=3))
    eng.create_topic(TopicConfig("b", partitions=2))
    got = [
        (eng.partition_for("a", None), eng.partition_for("a", b"k"), eng.partition_for("b", None))
        for _ in range(7)
    ]
    assert [a for a, _, _ in got] == [i % 3 for i in range(7)]
    assert [b for _, _, b in got] == [i % 2 for i in range(7)]
    assert {k for _, k, _ in got} == {partition_for(b"k", 3)}


# --------------------------------------------------------------------------
# append / fetch
# --------------------------------------------------------------------------

def test_append_batch_into_empty_partition():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    r = eng.append_batch("t", 0, msgs("f", 0, 5))
    assert r.base_offset == 0 and r.count == 5
    assert eng.next_offset("t", 0) == 5


def test_append_receipt_keeps_its_fields_repr_equality_and_frozenness():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch("t", 0, msgs("f", 0, 2))
    r = eng.append_batch("t", 0, msgs("f", 2, 3))
    assert r == AppendReceipt(2, 3, AckPhase.LEADER)
    # a named tuple, so it also equals a plain tuple and is no dataclass
    assert r == (2, 3, AckPhase.LEADER) and tuple(r) == (2, 3, AckPhase.LEADER)
    assert not dataclasses.is_dataclass(r)
    assert r == AppendReceipt(base_offset=2, count=3, acked_at_phase=AckPhase.LEADER)
    assert r != AppendReceipt(2, 4, AckPhase.LEADER)
    assert hash(r) == hash(AppendReceipt(2, 3, AckPhase.LEADER))
    assert repr(r) == (
        "AppendReceipt(base_offset=2, count=3, acked_at_phase=<AckPhase.LEADER: 'leader'>)")
    for name in ("count", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, name)
    assert (r.base_offset, r.count, r.acked_at_phase) == (2, 3, AckPhase.LEADER)


def test_an_append_reads_the_clock_once_at_rf3():
    reads = []

    def clock():
        reads.append(0)
        return 0

    eng = LogEngine(3, clock=clock)
    eng.create_topic(TopicConfig(
        "t", replication_factor=3,
        flush=FlushPolicy(flush_interval_messages=2, flush_interval_ms=None),
    ))
    for i in range(4):  # the second and fourth appends flush every replica
        before = len(reads)
        eng.append_batch("t", 0, msgs("f", i, 1), LogAckMode.ACKS_QUORUM)
        assert len(reads) - before == 1, i
    assert [rep.flushed_up_to for rep in eng._topic("t").partitions[0].replicas] == [4, 4, 4]


def test_ack_phases():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=3))
    assert eng.append_batch("t", 0, msgs("f", 0, 1), LogAckMode.ACKS_0).acked_at_phase is AckPhase.ENQUEUED
    assert eng.append_batch("t", 0, msgs("f", 1, 1), LogAckMode.ACKS_1).acked_at_phase is AckPhase.LEADER
    assert eng.append_batch("t", 0, msgs("f", 2, 1), LogAckMode.ACKS_QUORUM).acked_at_phase is AckPhase.QUORUM


@pytest.mark.parametrize("acks,phase", [
    (LogAckMode.ACKS_0, AckPhase.ENQUEUED),
    (LogAckMode.ACKS_1, AckPhase.LEADER),
    (LogAckMode.ACKS_QUORUM, AckPhase.QUORUM),
])
@pytest.mark.parametrize("rf", [1, 3])
def test_append_names_the_phase_of_each_ack_mode(acks, phase, rf):
    assert _ACK_PHASE[acks] is phase
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=rf))
    eng.append_batch("t", 0, msgs("f", 0, 2), acks)
    assert eng.append_batch("t", 0, msgs("f", 2, 3), acks) == AppendReceipt(2, 3, phase)


def test_append_with_a_value_that_is_no_ack_mode_raises_as_before():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    with pytest.raises(KeyError):
        eng.append_batch("t", 0, msgs("f", 0, 1), "quorum")


def test_append_with_a_value_that_is_no_ack_mode_moves_no_replica():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=3))
    replicas = eng._topic("t").partitions[0].replicas
    with pytest.raises(KeyError):
        eng.append_batch("t", 0, msgs("f", 0, 2), "quorum")
    assert [rep.next_offset for rep in replicas] == [0, 0, 0]
    # so a retry with an ack mode stores the batch once
    eng.append_batch("t", 0, msgs("f", 0, 2), LogAckMode.ACKS_QUORUM)
    assert [rep.next_offset for rep in replicas] == [2, 2, 2]


FLUSH_POLICIES = [
    FlushPolicy(flush_interval_messages=3, flush_interval_ms=None),
    FlushPolicy(flush_interval_messages=None, flush_interval_ms=5),
    FlushPolicy(flush_interval_messages=4, flush_interval_ms=7),
    FlushPolicy(flush_interval_messages=1, flush_interval_ms=0),
]


@pytest.mark.parametrize("policy", FLUSH_POLICIES)
def test_each_replica_flushes_exactly_when_its_flush_policy_is_due(policy):
    """The append's inline flush check against `FlushPolicy.due`, replica by
    replica, over batches of 1-3 messages at clock steps of 0-3 ms."""
    now = [0]
    eng = LogEngine(3, clock=lambda: now[0])
    eng.create_topic(TopicConfig("t", replication_factor=3, flush=policy))
    replicas = eng._topic("t").partitions[0].replicas
    rng = random.Random(7)
    flushes = 0
    for i in range(200):
        now[0] += rng.randrange(4) * 1_000_000
        n = rng.randrange(1, 4)
        due = [policy.due(rep.next_offset + n - rep.flushed_up_to, now[0] - rep.last_flush_ns)
               for rep in replicas]
        before = [(rep.flushed_up_to, rep.last_flush_ns) for rep in replicas]
        eng.append_batch("t", 0, msgs("f", 3 * i, n), LogAckMode.ACKS_QUORUM)
        for rep, d, b in zip(replicas, due, before):
            assert (rep.flushed_up_to, rep.last_flush_ns) == ((rep.next_offset, now[0]) if d else b)
        flushes += sum(due)
    assert 0 < flushes < 600 or policy.flush_interval_messages == 1


def test_a_replica_flushes_at_the_message_bound_and_at_the_age_bound_exactly():
    now = [0]
    eng = LogEngine(3, clock=lambda: now[0])
    eng.create_topic(TopicConfig("t", replication_factor=3, flush=FlushPolicy(
        flush_interval_messages=3, flush_interval_ms=5)))
    replicas = eng._topic("t").partitions[0].replicas

    def flushed():
        return [rep.flushed_up_to for rep in replicas]

    for i, expected in enumerate([0, 0, 3, 3, 3, 6]):  # the third message of each three
        eng.append_batch("t", 0, msgs("f", i, 1), LogAckMode.ACKS_QUORUM)
        assert flushed() == [expected] * 3, i
    now[0] = 5_000_000 - 1  # one nanosecond short of the age bound
    eng.append_batch("t", 0, msgs("f", 6, 1), LogAckMode.ACKS_QUORUM)
    assert flushed() == [6, 6, 6]
    now[0] = 5_000_000  # the age bound, reached exactly
    eng.append_batch("t", 0, msgs("f", 7, 1), LogAckMode.ACKS_QUORUM)
    assert flushed() == [8, 8, 8]
    assert [rep.last_flush_ns for rep in replicas] == [5_000_000] * 3


@pytest.mark.parametrize("rf", [1, 2, 3, 4, 5])
def test_the_quorum_offset_is_the_sorted_pick_over_every_ordering(rf):
    replicas = [Replica(f"n{i}", "t", 0) for i in range(rf)]
    for offsets in itertools.product((0, 1, 2), repeat=rf):
        for rep, off in zip(replicas, offsets):
            rep.next_offset = off
        assert _quorum_offset(replicas, rf) == sorted(offsets)[-quorum_size(rf)], offsets


def reference_high_watermark(eng, floor):
    """The watermark by the sorted pick, with `floor` the reference's own
    record of the quorum offsets that crashes have since hidden; None when
    every replica is down."""
    part = eng._topic("t").partitions[0]
    rf = len(part.replicas)
    leader_end = max((r.next_offset for r in part.replicas if eng.nodes[r.node_id].alive),
                     default=None)
    if leader_end is None or rf == 1:
        return leader_end
    hw = sorted(r.next_offset for r in part.replicas)[-quorum_size(rf)]
    return hw if floor <= hw else min(floor, leader_end)


@pytest.mark.parametrize("rf", [2, 3])
@pytest.mark.parametrize("flush", [NO_TIME_FLUSH, FlushPolicy(4, None)])
def test_the_high_watermark_follows_the_sorted_pick_through_crash_and_catch_up(rf, flush):
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=rf, flush=flush))
    part = eng._topic("t").partitions[0]
    floor = seq = below_floor = 0
    # under `FlushPolicy(4, None)` the first append is flushed and the second not
    script = [("append", LogAckMode.ACKS_QUORUM, 5), ("append", LogAckMode.ACKS_QUORUM, 3),
              ("crash", "n1"),
              ("append", LogAckMode.ACKS_1, 3), ("crash", "n0"),
              ("append", LogAckMode.ACKS_1, 2), ("restart", "n0"),
              ("restart", "n1"), ("append", LogAckMode.ACKS_QUORUM, 2)]
    if rf == 3:
        script[4:4] = [("crash", "n2"), ("append", LogAckMode.ACKS_1, 1), ("restart", "n2")]
    for step in script:
        if step[0] == "crash":
            floor = max(floor, sorted(r.next_offset for r in part.replicas)[-quorum_size(rf)])
            eng.crash_node(step[1])
        elif step[0] == "restart":
            eng.restart_node(step[1])
        else:
            try:
                eng.append_batch("t", 0, msgs("f", seq, step[2]), step[1])
                seq += step[2]
            except BrokerDown:
                pass  # all replicas down, or no quorum: nothing to compare yet
        assert part.hw_floor == floor, step
        below_floor += floor > sorted(r.next_offset for r in part.replicas)[-quorum_size(rf)]
        expected = reference_high_watermark(eng, floor)
        if expected is None:
            with pytest.raises(BrokerDown):
                eng.high_watermark("t", 0)
        else:
            assert eng.high_watermark("t", 0) == expected, step
        if not any(eng.nodes[r.node_id].alive for r in part.replicas):
            with pytest.raises(BrokerDown):
                eng.fetch("t", 0, 0)
        else:
            assert eng.fetch("t", 0, 0)[1] == expected, step
    assert below_floor  # the script reached the `hw_floor` path


def test_quorum_needs_majority():
    assert quorum_size(1) == 1
    assert quorum_size(2) == 2
    assert quorum_size(3) == 2
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=3))
    eng.crash_node("n0")
    eng.crash_node("n1")
    with pytest.raises(BrokerDown):
        eng.append_batch("t", 0, msgs("f", 0, 1), LogAckMode.ACKS_QUORUM)


def test_crash_mid_batch_leaves_no_partial_batch():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch("t", 0, msgs("f", 0, 3))

    def boom(phase, topic, partition):
        if phase == "pre_commit":
            raise BrokerDown("injected")

    eng.fault_hook = boom
    with pytest.raises(BrokerDown):
        eng.append_batch("t", 0, msgs("f", 3, 5))
    eng.fault_hook = None
    assert eng.next_offset("t", 0) == 3
    out, _ = eng.fetch("t", 0, 0)
    assert [m.seq_no for m in out] == [0, 1, 2]


def test_fetch_basics():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch("t", 0, msgs("f", 0, 3))
    out, hw = eng.fetch("t", 0, 0, 1 << 20)
    assert [m.seq_no for m in out] == [0, 1, 2]
    assert hw == 3
    out, _ = eng.fetch("t", 0, 3)
    assert out == []
    with pytest.raises(OffsetOutOfRange):
        eng.fetch("t", 0, 4)


def test_fetch_respects_max_bytes_but_returns_progress():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch("t", 0, msgs("f", 0, 10, payload=b"p" * 100))
    out, _ = eng.fetch("t", 0, 0, max_bytes=1)
    assert len(out) == 1  # always at least one record
    out, _ = eng.fetch("t", 0, 0, max_bytes=400)
    assert 1 <= len(out) < 10


def test_fetch_gated_on_quorum_watermark():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=2, flush=NO_TIME_FLUSH))
    eng.crash_node("n1")  # follower down: appends cannot reach quorum
    eng.append_batch("t", 0, msgs("f", 0, 3), LogAckMode.ACKS_1)
    out, hw = eng.fetch("t", 0, 0)
    assert out == [] and hw == 0  # nothing quorum-held yet
    eng.restart_node("n1")
    eng.append_batch("t", 0, msgs("f", 3, 1), LogAckMode.ACKS_QUORUM)
    out, hw = eng.fetch("t", 0, 0)
    assert [m.seq_no for m in out] == [0, 1, 2, 3]
    assert hw == 4


def oracle_fetch(eng, topic, partition, offset, max_bytes):
    """`fetch` as a plain walk: every record from `records_from`, decoded
    one at a time, up to the high watermark and the byte budget."""
    leader = eng._leader(eng._topic(topic).partitions[partition])
    hw = eng.high_watermark(topic, partition)
    out, used = [], 0
    for off, rec in leader.records_from(offset):
        if off >= hw or (out and used + len(rec) > max_bytes):
            break
        out.append(decode_record(rec)[1])
        used += len(rec)
    return out, hw


FETCH_BUDGETS = (1, 40, 150, 600, 5000, 1 << 20)


def assert_fetch_matches_oracle(eng, topic="t", partition=0):
    """Every offset the leader accepts, under every budget and budgets that
    end exactly on a record; returns how many of those fetches the budget
    cut short of the watermark."""
    leader = eng._leader(eng._topic(topic).partitions[partition])
    cut = 0
    for offset in range(leader.start_offset, leader.next_offset + 1):
        whole = oracle_fetch(eng, topic, partition, offset, 1 << 30)[0]
        sizes = [len(rec) for _, rec in itertools.islice(leader.records_from(offset), 3)]
        for budget in (*FETCH_BUDGETS, *itertools.accumulate(sizes)):
            want = oracle_fetch(eng, topic, partition, offset, budget)
            assert eng.fetch(topic, partition, offset, max_bytes=budget) == want, (offset, budget)
            cut += len(want[0]) < len(whole)
    return cut


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fetch_equals_the_record_walk_over_sparse_multi_segment_logs(seed):
    rng = random.Random(seed)
    eng = make_engine()
    eng.create_topic(TopicConfig(
        "t", replication_factor=3, segment_bytes=400, flush=NO_TIME_FLUSH,
        retention=RetentionPolicy(max_age_ms=None, max_messages=35),
    ))
    seq = 0
    for _ in range(12):
        batch = []
        for _ in range(rng.randrange(1, 12)):
            key = f"k{rng.randrange(25)}".encode()
            batch.append(Message("f", seq, payload=bytes(rng.randrange(0, 160)), key=key,
                                 headers={"i": seq} if seq % 3 else {}, produced_at=seq))
            seq += 1
        eng.append_batch("t", 0, batch, LogAckMode.ACKS_QUORUM)
    eng.compact("t", 0)  # the surviving offsets are sparse
    eng.append_batch("t", 0, msgs("f", seq, 20, payload=b"p" * 30, key=b"tail"),
                     LogAckMode.ACKS_QUORUM)
    eng.flush_all("t")
    assert sum(eng.purge("t").removed_per_partition.values()) > 0
    leader = eng._leader(eng._topic("t").partitions[0])
    assert leader.start_offset > 0 and len(leader.segments) > 3
    assert leader.total_messages() < leader.next_offset - leader.start_offset
    assert assert_fetch_matches_oracle(eng) > 0
    end = leader.next_offset  # every offset is quorum-held: the watermark
    assert eng.fetch("t", 0, end) == ([], end) == oracle_fetch(eng, "t", 0, end, 1)
    eng.crash_node("n0")  # a follower leads, over its own copy of the segments
    assert_fetch_matches_oracle(eng)


def test_fetch_equals_the_record_walk_below_the_leaders_end():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=3, segment_bytes=200,
                                 flush=NO_TIME_FLUSH))
    eng.append_batch("t", 0, msgs("f", 0, 12, payload=b"q" * 50), LogAckMode.ACKS_QUORUM)
    eng.crash_node("n1")
    eng.crash_node("n2")  # both followers down: the leader runs ahead of the quorum
    eng.append_batch("t", 0, msgs("f", 12, 9, payload=b"r" * 50), LogAckMode.ACKS_1)
    hw = eng.high_watermark("t", 0)
    assert hw == 12 and eng.next_offset("t", 0) == 21
    for offset in (hw, 15, 21):
        assert eng.fetch("t", 0, offset) == ([], hw)
    assert_fetch_matches_oracle(eng)
    # a first record larger than the budget is still returned
    out, _ = eng.fetch("t", 0, 0, max_bytes=1)
    assert [m.seq_no for m in out] == [0]


def fetch_cpu_ns(segments, fetches=200, runs=5):
    """Least thread CPU over `runs` runs of `fetches` one-record fetches at
    the oldest offset of a log of `segments` one-record segments."""
    eng = make_engine()
    eng.create_topic(TopicConfig("t", segment_bytes=1, flush=NO_TIME_FLUSH))
    eng.append_batch("t", 0, msgs("f", 0, segments))
    assert len(eng._topic("t").partitions[0].replicas[0].segments) == segments
    best = None
    for _ in range(runs):
        start = time.thread_time_ns()
        for _ in range(fetches):
            eng.fetch("t", 0, 0, max_bytes=1)
        spent = time.thread_time_ns() - start
        best = spent if best is None else min(best, spent)
    assert [m.seq_no for m in eng.fetch("t", 0, 0, max_bytes=1)[0]] == [0]
    return best


def test_fetch_cost_is_flat_in_segment_count():
    few, many = fetch_cpu_ns(10), fetch_cpu_ns(10_000)
    assert many < 3 * few, (few, many)


def test_replay_returns_identical_bytes():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch("t", 0, msgs("f", 0, 20, payload=b"data"))
    first = [(m.flow_id, m.seq_no, m.payload) for m in eng.fetch("t", 0, 0)[0]]
    again = [(m.flow_id, m.seq_no, m.payload) for m in eng.fetch("t", 0, 0)[0]]
    assert first == again == [("f", i, b"data") for i in range(20)]


# --------------------------------------------------------------------------
# crash / durability
# --------------------------------------------------------------------------

def test_crash_discards_volatile_above_flush_watermark():
    clock = [0]
    eng = LogEngine(1, clock=lambda: clock[0])
    eng.create_topic(TopicConfig("t", flush=FlushPolicy(flush_interval_messages=4, flush_interval_ms=None)))
    eng.append_batch("t", 0, msgs("f", 0, 4), LogAckMode.ACKS_0)  # flushes at 4
    eng.append_batch("t", 0, msgs("f", 4, 3), LogAckMode.ACKS_0)  # 3 unflushed
    eng.crash_node("n0")
    eng.restart_node("n0")
    assert eng.next_offset("t", 0) == 4
    out, _ = eng.fetch("t", 0, 0)
    assert [m.seq_no for m in out] == [0, 1, 2, 3]  # losses confined to unflushed window


def test_quorum_survives_minority_crash():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=3, flush=NO_TIME_FLUSH))
    eng.append_batch("t", 0, msgs("f", 0, 5), LogAckMode.ACKS_QUORUM)
    eng.crash_node("n0")  # leader of partition 0
    out, _ = eng.fetch("t", 0, 0)
    assert [m.seq_no for m in out] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("rf", [2, 3])
def test_high_watermark_raises_broker_down_when_every_replica_is_down(rf):
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=rf, flush=FlushPolicy(1, None)))
    eng.append_batch("t", 0, msgs("f", 0, 4), LogAckMode.ACKS_QUORUM)
    nodes = [rep.node_id for rep in eng._topic("t").partitions[0].replicas]
    for node in nodes:
        assert eng.high_watermark("t", 0) == 4
        eng.crash_node(node)
    # the flushed records survive, but no replica is up to serve them
    with pytest.raises(BrokerDown):
        eng.fetch("t", 0, 0)
    with pytest.raises(BrokerDown):
        eng.high_watermark("t", 0)
    eng.restart_node(nodes[0])
    assert eng.high_watermark("t", 0) == eng.fetch("t", 0, 0)[1] == 4


def test_high_watermark_survives_replica_crash():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=2, flush=NO_TIME_FLUSH))
    eng.append_batch("t", 0, msgs("f", 0, 10), LogAckMode.ACKS_QUORUM)
    eng.crash_node("n1")  # the follower's unflushed copy is truncated away
    assert eng.high_watermark("t", 0) == 10
    out, hw = eng.fetch("t", 0, 0)
    assert [m.seq_no for m in out] == list(range(10)) and hw == 10


# --------------------------------------------------------------------------
# consumer groups
# --------------------------------------------------------------------------

def test_assignment_round_robin():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", partitions=2))
    assert eng.assign_partitions("g", "t", ["c1", "c2"]) == {0: "c1", 1: "c2"}

    eng2 = make_engine()
    eng2.create_topic(TopicConfig("t", partitions=3))
    assert eng2.assign_partitions("g", "t", ["c1", "c2"]) == {0: "c1", 1: "c2", 2: "c1"}

    eng3 = make_engine()
    eng3.create_topic(TopicConfig("t", partitions=1))
    assert eng3.assign_partitions("g", "t", ["c1", "c2"]) == {0: "c1"}


def test_commit_and_resume():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch("t", 0, msgs("f", 0, 20))
    eng.assign_partitions("g", "t", ["c1"])
    eng.commit_offset("g", "c1", "t", 0, 10)
    # consumer restarts, resumes at the committed offset: the gap redelivers
    resume = eng.committed("g", "t", 0)
    assert resume == 10
    out, _ = eng.fetch("t", 0, resume)
    assert [m.seq_no for m in out] == list(range(10, 20))


def test_commit_fresh_group_resumes_at_zero():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.assign_partitions("g", "t", ["c1"])
    eng.commit_offset("g", "c1", "t", 0, 0)
    assert eng.committed("g", "t", 0) == 0


def test_commit_by_non_owner():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.assign_partitions("g", "t", ["c1"])
    with pytest.raises(NotAssigned):
        eng.commit_offset("g", "intruder", "t", 0, 0)


# --------------------------------------------------------------------------
# retention
# --------------------------------------------------------------------------

def one_message_segments(retention, n=25):
    clock = [0]
    eng = LogEngine(1, clock=lambda: clock[0])
    eng.create_topic(
        TopicConfig("t", retention=retention, segment_bytes=1, flush=NO_TIME_FLUSH)
    )
    for i in range(n):
        eng.append_batch("t", 0, [Message("f", i, payload=b"x", produced_at=i)])
    eng.flush_all("t")
    return eng, clock


def test_purge_count_bound_keeps_newest():
    eng, clock = one_message_segments(RetentionPolicy(max_age_ms=None, max_messages=10))
    clock[0] = 100
    report = eng.purge("t")
    assert report.removed_per_partition == {0: 15}
    out, _ = eng.fetch("t", 0, 15)
    assert [m.seq_no for m in out] == list(range(15, 25))
    with pytest.raises(OffsetOutOfRange):
        eng.fetch("t", 0, 0)  # purged range is gone


def test_purge_noop_when_bounds_hold():
    eng, clock = one_message_segments(RetentionPolicy(max_age_ms=None, max_messages=100))
    clock[0] = 100
    assert eng.purge("t").removed_per_partition == {0: 0}


def test_purge_age_zero_drops_everything_flushed():
    eng, clock = one_message_segments(RetentionPolicy(max_age_ms=0))
    clock[0] = 10_000_000
    report = eng.purge("t")
    assert report.removed_per_partition == {0: 25}
    assert eng.next_offset("t", 0) == 25
    out, _ = eng.fetch("t", 0, 25)
    assert out == []


def test_purge_never_touches_unflushed_tail():
    clock = [0]
    eng = LogEngine(1, clock=lambda: clock[0])
    eng.create_topic(
        TopicConfig(
            "t",
            retention=RetentionPolicy(max_age_ms=0),
            segment_bytes=1,
            flush=FlushPolicy(flush_interval_messages=1000, flush_interval_ms=None),
        )
    )
    for i in range(5):
        eng.append_batch("t", 0, [Message("f", i, payload=b"x", produced_at=i)])
    # nothing flushed: even max_age=0 must not drop the unflushed tail
    clock[0] = 10_000_000
    assert eng.purge("t").removed_per_partition == {0: 0}
    out, _ = eng.fetch("t", 0, 0)
    assert len(out) == 5


def test_purge_byte_bound():
    eng, clock = one_message_segments(RetentionPolicy(max_age_ms=None, max_bytes=1))
    clock[0] = 100
    report = eng.purge("t")
    assert report.removed_per_partition[0] >= 24


def purge_cpu_ns(segments, runs=3):
    """Least thread CPU over `runs` purges of a fresh rf=3 log of
    `segments` one-record segments down to its newest record."""
    best = None
    for _ in range(runs):
        eng = make_engine()
        eng.create_topic(TopicConfig(
            "t", replication_factor=3, segment_bytes=1, flush=NO_TIME_FLUSH,
            retention=RetentionPolicy(max_age_ms=None, max_messages=1),
        ))
        eng.append_batch("t", 0, msgs("f", 0, segments), LogAckMode.ACKS_QUORUM)
        eng.flush_all("t")
        start = time.thread_time_ns()
        report = eng.purge("t")
        spent = time.thread_time_ns() - start
        assert report.removed_per_partition == {0: segments - 1}
        for rep in eng._topic("t").partitions[0].replicas:
            assert rep.start_offset == segments - 1 and len(rep.segments) == 1
        best = spent if best is None else min(best, spent)
    return best


def test_purge_cost_is_linear_in_segment_count():
    small, large = purge_cpu_ns(1_000), purge_cpu_ns(4_000)
    assert large < 8 * small, (small, large)


# --------------------------------------------------------------------------
# compaction
# --------------------------------------------------------------------------

def test_compact_keeps_latest_per_key():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch(
        "t", 0,
        [
            Message("f", 0, payload=b"a1", key=b"a"),
            Message("f", 1, payload=b"b1", key=b"b"),
            Message("f", 2, payload=b"a2", key=b"a"),
        ],
    )
    rep = eng.compact("t", 0)
    assert rep.removed == 1 and rep.retained == 2
    out, _ = eng.fetch("t", 0, 0)
    assert [(m.key, m.payload, m.seq_no) for m in out] == [(b"b", b"b1", 1), (b"a", b"a2", 2)]


def test_compact_empty_partition():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    rep = eng.compact("t", 0)
    assert rep.removed == 0 and rep.retained == 0


def test_compact_keyless_rejected():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch("t", 0, [Message("f", 0, payload=b"x")])
    with pytest.raises(KeylessMessage):
        eng.compact("t", 0)


def test_compact_random_log_matches_last_write_wins_oracle():
    rng = random.Random(7)
    eng = make_engine()
    eng.create_topic(TopicConfig("t", segment_bytes=256))
    expected = {}
    batch = []
    for i in range(1000):
        key = f"k{rng.randrange(50)}".encode()
        payload = f"v{i}".encode()
        batch.append(Message("f", i, payload=payload, key=key))
        expected[key] = (i, payload)
    eng.append_batch("t", 0, batch)
    eng.compact("t", 0)
    out, _ = eng.fetch("t", 0, 0, max_bytes=1 << 30)
    got = {m.key: (m.seq_no, m.payload) for m in out}
    assert got == expected
    offsets = [m.seq_no for m in out]
    assert offsets == sorted(offsets)  # survivor order preserved


def test_offsets_survive_compaction_then_fetch_skips_gaps():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch(
        "t", 0,
        [Message("f", i, payload=str(i).encode(), key=b"same" if i < 4 else b"other")
         for i in range(5)],
    )
    eng.compact("t", 0)
    out, _ = eng.fetch("t", 0, 1)  # offset 1 was compacted away
    assert [m.seq_no for m in out] == [3, 4]


# --------------------------------------------------------------------------
# moving partitions
# --------------------------------------------------------------------------

def test_move_partition_online():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    for i in range(10):
        eng.append_batch("t", 0, msgs("f", i * 100, 100))
    eng.move_partition("t", 0, "n0", "n2")
    eng.append_batch("t", 0, msgs("f", 1000, 10))
    out, _ = eng.fetch("t", 0, 0, max_bytes=1 << 30)
    assert len(out) == 1010


def test_move_to_node_with_replica():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=2))  # replicas on n0, n1
    with pytest.raises(ReplicaExists):
        eng.move_partition("t", 0, "n0", "n1")


def test_move_rf1_succeeds():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch("t", 0, msgs("f", 0, 3))
    eng.move_partition("t", 0, "n0", "n1")
    out, _ = eng.fetch("t", 0, 0)
    assert len(out) == 3


# --------------------------------------------------------------------------
# records shared by replicas
# --------------------------------------------------------------------------

def replica_records(eng, topic, partition):
    return [list(rep.records_from(0)) for rep in eng._topic(topic).partitions[partition].replicas]


def shares_records(a, b):
    return len(a) == len(b) and all(
        oa == ob and ra is rb for (oa, ra), (ob, rb) in zip(a, b)
    )


def fetch_from_each_replica(eng, topic, partition):
    """Fetch everything once per replica, with that replica the only one up."""
    eng.flush_all(topic)
    nodes = [rep.node_id for rep in eng._topic(topic).partitions[partition].replicas]
    out = []
    for node in nodes:
        others = [n for n in nodes if n != node]
        for n in others:
            eng.crash_node(n)
        out.append(eng.fetch(topic, partition, 0, max_bytes=1 << 30))
        for n in others:
            eng.restart_node(n)
    return out


def test_replicas_share_each_encoded_record():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=3, segment_bytes=300,
                                 flush=NO_TIME_FLUSH))
    for i in range(5):  # batches that roll segments
        eng.append_batch("t", 0, msgs("f", 4 * i, 4, payload=b"q" * 30), LogAckMode.ACKS_QUORUM)
    assert len(eng._topic("t").partitions[0].replicas[0].segments) > 1
    leader, *followers = replica_records(eng, "t", 0)
    assert [off for off, _ in leader] == list(range(20))
    for records in followers:
        assert shares_records(leader, records)
    # shared objects, but each replica's logical bytes still count
    one_copy = sum(len(rec) for _, rec in leader)
    part = eng._topic("t").partitions[0]
    assert sum(r.total_bytes() for r in part.replicas) == 3 * one_copy


def test_follower_crash_and_restart_leave_leader_records_intact():
    eng = make_engine()
    eng.create_topic(TopicConfig("t", replication_factor=3, flush=NO_TIME_FLUSH))
    eng.append_batch("t", 0, msgs("f", 0, 10, payload=b"a" * 20), LogAckMode.ACKS_QUORUM)
    eng.flush_all("t")
    eng.append_batch("t", 0, msgs("f", 10, 10, payload=b"b" * 20), LogAckMode.ACKS_QUORUM)
    leader_before = replica_records(eng, "t", 0)[0]
    fetched_before, _ = eng.fetch("t", 0, 0, max_bytes=1 << 30)
    eng.crash_node("n1")  # a follower: drops its ten unflushed records
    leader, follower, _ = replica_records(eng, "t", 0)
    assert len(follower) == 10
    assert leader == leader_before
    assert eng.fetch("t", 0, 0, max_bytes=1 << 30)[0] == fetched_before
    eng.restart_node("n1")  # catches up from the leader's records
    leader, follower, _ = replica_records(eng, "t", 0)
    assert leader == leader_before
    assert shares_records(leader, follower)
    assert eng.fetch("t", 0, 0, max_bytes=1 << 30)[0] == fetched_before
    assert [m.seq_no for m in fetched_before] == list(range(20))


def test_replicas_fetch_alike_after_compact_and_move():
    eng = LogEngine(4, clock=lambda: 0)
    eng.create_topic(
        TopicConfig("t", replication_factor=3, segment_bytes=300, flush=NO_TIME_FLUSH)
    )
    rng = random.Random(7)
    for i in range(60):
        key = b"k%d" % rng.randrange(6)
        eng.append_batch("t", 0, [Message("f", i, payload=b"%d" % i, key=key)],
                         LogAckMode.ACKS_QUORUM)
    eng.compact("t", 0)
    eng.move_partition("t", 0, "n2", "n3")
    eng.append_batch("t", 0, msgs("f", 60, 3, key=b"k0"), LogAckMode.ACKS_QUORUM)
    fetches = fetch_from_each_replica(eng, "t", 0)
    assert [rep.node_id for rep in eng._topic("t").partitions[0].replicas] == ["n0", "n1", "n3"]
    assert fetches[0] == fetches[1] == fetches[2]
    got, hw = fetches[0]
    assert hw == 63
    assert [m.seq_no for m in got[-3:]] == [60, 61, 62]
    assert len({m.key for m in got[:-3]}) == len(got) - 3  # one survivor per key


# --------------------------------------------------------------------------
# multicast statelessness
# --------------------------------------------------------------------------

def test_storage_independent_of_group_count():
    eng = make_engine()
    eng.create_topic(TopicConfig("t"))
    eng.append_batch("t", 0, msgs("f", 0, 50, payload=b"z" * 64))
    part = eng._topic("t").partitions[0]
    before = sum(r.total_bytes() for r in part.replicas)
    for g in range(5):
        eng.assign_partitions(f"g{g}", "t", [f"c{g}"])
        got, _ = eng.fetch("t", 0, 0, max_bytes=1 << 30)
        assert len(got) == 50
        eng.commit_offset(f"g{g}", f"c{g}", "t", 0, 50)
    assert sum(r.total_bytes() for r in part.replicas) == before


# --------------------------------------------------------------------------
# persistence files
# --------------------------------------------------------------------------

def test_segment_files_read_back_equal_fetch(tmp_path):
    eng = LogEngine(3, clock=lambda: 0, data_dir=tmp_path)
    eng.create_topic(
        TopicConfig("t", replication_factor=3, segment_bytes=400, flush=NO_TIME_FLUSH)
    )
    for i in range(6):
        eng.append_batch(
            "t", 0, [Message("f", 5 * i + j, payload=b"v" * (10 * j), key=b"k%d" % j,
                             headers={"i": i} if j % 2 else {}) for j in range(5)],
            LogAckMode.ACKS_QUORUM,
        )
    eng.flush_all("t")
    for node in ("n0", "n1", "n2"):
        files = eng.segment_paths("t", 0, node)
        assert len(files) > 1
        for f in files:
            records = list(iter_records(f.read_bytes()))
            first = records[0][0]
            assert f.name == f"{first:020d}.seg"
            got, _ = eng.fetch("t", 0, first, max_bytes=1 << 30)
            assert [m for _, m in records] == got[:len(records)]


def test_segment_files_use_documented_layout(tmp_path):
    eng = LogEngine(1, clock=lambda: 0, data_dir=tmp_path)
    eng.create_topic(TopicConfig("t", segment_bytes=1 << 20, flush=NO_TIME_FLUSH))
    batch = msgs("f", 0, 5, payload=b"payload")
    eng.append_batch("t", 0, batch)
    eng.flush_all("t")
    files = eng.segment_paths("t", 0, "n0")
    assert [f.name for f in files] == ["00000000000000000000.seg"]
    records = list(iter_records(files[0].read_bytes()))
    assert [(off, m.seq_no) for off, m in records] == [(i, i) for i in range(5)]
