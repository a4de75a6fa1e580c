"""`log-quorum`: keyed flows through a replicated, retained, persisted log.

One topic, 4 partitions, rf=3, quorum acks, 1 MiB segments, byte retention
purged every 300 ms, and the stock 1000-message / 100 ms flush policy
writing segment files under `data_dir`.  Nearly all the work is record
encode/decode, quorum replication with the high watermark, and the segment
rewrite on each flush; exchange routing and queues are never touched.
"""

from __future__ import annotations

from common import perf_ns
from drive import EngineWorkload, PAYLOAD_SIZES

from duolog.core import BrokerDown, FlushPolicy, Message, Ordering, QoSConfig
from duolog.logbroker import (
    LogAckMode,
    LogEngine,
    LogError,
    RetentionPolicy,
    TopicConfig,
)

TOPIC = "events"
GROUP = "g"
MEMBER = "m0"
PARTITIONS = 4
RETENTION_BYTES = 4 << 20
SEGMENT_BYTES = 1 << 20
PURGE_EVERY_NS = 300_000_000
# the modeled device costs `duolog.bench` gives a quorum log
MODELED = {"fsync_latency_ns": 30_000, "replica_ack_rtt_ns": 100_000}
UNMODELED = {"fsync_latency_ns": 0, "replica_ack_rtt_ns": 0}


class LogQuorum(EngineWorkload):
    name = "log-quorum"
    flows = tuple(f"f{i:02d}" for i in range(16))
    # about half the seed commit's closed-loop saturation rate at the
    # reference host speed (about 23 000 msg/s)
    open_rate = 11000.0
    per_turn = 32
    qos = QoSConfig(ordering=Ordering.PER_PARTITION)

    def __init__(self, seed: int, modeled: bool, data_dir) -> None:
        super().__init__(seed)
        self.modeled = modeled
        self.data_dir = data_dir
        self.keys = [flow.encode() for flow in self.flows]
        self.engine = None
        self.positions = [0] * PARTITIONS
        self.last_purge = 0
        self.lag_max = 0
        self.prefill_msgs = 0
        self.prefill_bytes = 0

    def setup(self) -> None:
        """Engine, topic, group and a log prefilled to its retention size,
        so persistence runs at steady state from the first timed message."""
        eng = LogEngine(
            3, clock=perf_ns, data_dir=self.data_dir,
            **(MODELED if self.modeled else UNMODELED),
        )
        eng.create_topic(
            TopicConfig(
                TOPIC,
                partitions=PARTITIONS,
                replication_factor=3,
                retention=RetentionPolicy(max_age_ms=None, max_bytes=RETENTION_BYTES),
                segment_bytes=SEGMENT_BYTES,
                flush=FlushPolicy(flush_interval_messages=1000, flush_interval_ms=100),
            )
        )
        eng.assign_partitions(GROUP, TOPIC, [MEMBER])
        filled = [0] * PARTITIONS
        rng = self.rng
        seq = 0
        while min(filled) < RETENTION_BYTES:
            batches: dict[int, list] = {}
            for _ in range(256):
                flow = rng.randrange(len(self.flows))
                size = rng.choice(PAYLOAD_SIZES)
                msg = Message(
                    f"pre{flow:02d}", seq, payload=self.payloads[size],
                    key=self.keys[flow], produced_at=perf_ns(),
                )
                seq += 1
                p = eng.partition_for(TOPIC, msg.key)
                batches.setdefault(p, []).append(msg)
                filled[p] += size
                self.prefill_bytes += size
            for p in sorted(batches):
                eng.append_batch(TOPIC, p, batches[p], LogAckMode.ACKS_QUORUM)
        self.prefill_msgs = seq
        eng.purge(TOPIC)
        for p in range(PARTITIONS):
            self.positions[p] = eng.next_offset(TOPIC, p)
            eng.commit_offset(GROUP, MEMBER, TOPIC, p, self.positions[p])
        self.engine = eng
        self.last_purge = perf_ns()

    def new_messages(self, dues: list) -> list:
        rng = self.rng
        out = []
        for due in dues:
            flow = rng.randrange(len(self.flows))
            out.append(
                Message(
                    self.flows[flow], self.take_seq(flow),
                    payload=self.payloads[rng.choice(PAYLOAD_SIZES)],
                    key=self.keys[flow], produced_at=due,
                )
            )
        return out

    def send(self, msgs: list) -> None:
        eng, meter = self.engine, self.meter
        batches: dict[int, list] = {}
        for msg in msgs:
            p = meter.call("logbroker.partition_for", eng.partition_for, TOPIC, msg.key)
            batches.setdefault(p, []).append(msg)
        meter.count("logbroker.partition_for", len(msgs))
        for p in sorted(batches):
            batch = batches[p]
            try:
                meter.call(
                    "logbroker.append_batch", eng.append_batch,
                    TOPIC, p, batch, LogAckMode.ACKS_QUORUM,
                )
            except (BrokerDown, LogError):
                self.failed += 1
                continue
            meter.count("logbroker.append_batch", len(batch))
            for msg in batch:
                self.produced.append(self.code(msg))
                self.payload_sent += len(msg.payload)
            self.outstanding += len(batch)

    def poll(self, lat) -> None:
        eng, meter = self.engine, self.meter
        for p in range(PARTITIONS):
            try:
                msgs, _ = meter.call(
                    "logbroker.fetch", eng.fetch, TOPIC, p, self.positions[p]
                )
            except (BrokerDown, LogError):
                self.failed += 1
                self.broken = True
                return
            if not msgs:
                continue
            returned = meter.last_end
            meter.count("logbroker.fetch", len(msgs))
            self.positions[p] += len(msgs)
            meter.call(
                "logbroker.commit_offset", eng.commit_offset,
                GROUP, MEMBER, TOPIC, p, self.positions[p],
            )
            self.outstanding -= len(msgs)
            for msg in msgs:
                self.consumed.append(self.code(msg))
            if lat is not None:
                lat.record(returned, (msg.produced_at for msg in msgs))

    def tick(self, now: int) -> None:
        if now - self.last_purge < PURGE_EVERY_NS:
            return
        self.last_purge = now
        eng, meter = self.engine, self.meter
        report = meter.call("logbroker.purge", eng.purge, TOPIC)
        meter.count("logbroker.purge", sum(report.removed_per_partition.values()))
        for p in range(PARTITIONS):
            hw = meter.call("logbroker.high_watermark", eng.high_watermark, TOPIC, p)
            self.lag_max = max(self.lag_max, hw - self.positions[p])

    def properties(self) -> dict:
        return {
            "payload_sizes": list(PAYLOAD_SIZES),
            "prefill_msgs": self.prefill_msgs,
            "prefill_payload_bytes": self.prefill_bytes,
            "flows": len(self.flows),
            "partitions": PARTITIONS,
        }
