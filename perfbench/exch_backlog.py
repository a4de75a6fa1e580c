"""`exch-topic-backlog`: persistent topic publishes beside a full audit queue.

One topic exchange with 48 bindings: 8 `region.kind.*` patterns, one per
durable work queue, a `#` audit binding, and 39 `*`/`#`/literal patterns
that never match a generated key.  Every key `region.kind.symbol` matches
exactly one work queue plus the audit queue, so each publish must route to
2 queues and per-flow order and no-duplication can be graded.  The audit
queue (max_length 2000, drop-oldest, a one-hour TTL, a memory cap with
spill) has no consumer, is filled during set-up and stays full.  Per-publish
cost splits between evaluating every binding and the depth-linear queue
work on the audit queue; the log codec is never touched.
"""

from __future__ import annotations

import math

from common import perf_ns
from drive import EngineWorkload, PAYLOAD_SIZES

from duolog.core import BrokerDown, Message, Ordering, QoSConfig
from duolog.exchbroker import (
    BindingSpec,
    ConsumeMode,
    ExchEngine,
    ExchError,
    ExchangeKind,
    ExchangeSpec,
    OverflowPolicy,
    QueueSpec,
)

EXCHANGE = "market"
AUDIT = "audit"
AUDIT_DEPTH = 2000
REGIONS = ("us", "eu", "ap", "sa")
KINDS = ("trade", "quote")
SYMBOLS = 100_000
PULL_BATCH = 32


def _dead_patterns() -> list[str]:
    """39 patterns no generated key matches: too many segments, a literal
    or last segment that is never a symbol, or a first segment that is
    never a region."""
    out = []
    for r in REGIONS:
        for k in KINDS:
            out.append(f"{r}.{k}.*.*")
            out.append(f"{r}.{k}.#.halted")
            out.append(f"{r}.{k}.closed")
        out.append(f"{r}.*.delisted")
        out.append(f"#.{r}")
    for i in range(7):
        out.append(f"otc{i}.#" if i % 2 else f"dark{i}.*.*")
    return out


class ExchTopicBacklog(EngineWorkload):
    name = "exch-topic-backlog"
    lanes = [(r, k) for r in REGIONS for k in KINDS]
    flows = tuple(f"{r}-{k}" for r, k in lanes)
    # about half the seed commit's closed-loop saturation rate at the
    # reference host speed (about 1 080 msg/s)
    open_rate = 500.0
    per_turn = 8
    qos = QoSConfig(ordering=Ordering.PER_CHANNEL)

    def __init__(self, seed: int, modeled: bool) -> None:
        super().__init__(seed)
        self.modeled = modeled
        self.engine = None
        self.channel = None
        self.keys_seen: set[str] = set()
        self.repeat_keys = 0
        self.publishes = 0
        self.routed = 0
        self.pulls = 0
        self.empty_pulls = 0

    def setup(self) -> None:
        """Engine, topology and an audit queue filled to its length bound."""
        eng = ExchEngine(3, clock=perf_ns, latency_mode="real" if self.modeled else "none")
        eng.declare_exchange(ExchangeSpec(EXCHANGE, ExchangeKind.TOPIC))
        for i, (r, k) in enumerate(self.lanes):
            eng.declare_queue(QueueSpec(f"w{i}", durable=True))
            eng.bind(BindingSpec(EXCHANGE, f"w{i}", pattern=f"{r}.{k}.*"))
        eng.declare_queue(
            QueueSpec(
                AUDIT,
                max_length=AUDIT_DEPTH,
                overflow=OverflowPolicy.DROP_OLDEST,
                default_ttl=3_600_000,
                memory_cap_bytes=512 << 10,
                spill_to_disk=True,
            )
        )
        eng.bind(BindingSpec(EXCHANGE, AUDIT, pattern="#"))
        for i, pattern in enumerate(_dead_patterns()):
            eng.bind(BindingSpec(EXCHANGE, f"w{i % len(self.lanes)}", pattern=pattern))
        for i in range(len(self.lanes)):
            eng.consume(f"w{i}", f"c{i}", ConsumeMode.PULL, prefetch=PULL_BATCH)
        channel = eng.channel()
        rng = self.rng
        for seq in range(AUDIT_DEPTH):
            msg = Message(
                "backfill", seq, payload=self.payloads[rng.choice(PAYLOAD_SIZES)],
                routing_key="backfill.audit.all", produced_at=perf_ns(),
            )
            confirm = eng.publish(channel, EXCHANGE, msg, persistent=True)
            if not confirm.ack or confirm.routed_count != 1:
                raise RuntimeError(f"audit backfill routed to {confirm.routed_count} queues")
        self.engine = eng
        self.channel = eng.channel()

    def new_messages(self, dues: list) -> list:
        rng = self.rng
        out = []
        for due in dues:
            lane = rng.randrange(len(self.lanes))
            r, k = self.lanes[lane]
            # log-uniform over the symbol space: a few hot symbols, a long tail
            symbol = int(math.exp(rng.random() * math.log(SYMBOLS)))
            out.append(
                Message(
                    self.flows[lane], self.take_seq(lane),
                    payload=self.payloads[rng.choice(PAYLOAD_SIZES)],
                    routing_key=f"{r}.{k}.s{symbol}", produced_at=due,
                )
            )
        return out

    def send(self, msgs: list) -> None:
        eng, meter = self.engine, self.meter
        for msg in msgs:
            self.publishes += 1
            if msg.routing_key in self.keys_seen:
                self.repeat_keys += 1
            else:
                self.keys_seen.add(msg.routing_key)
            try:
                confirm = meter.call(
                    "exchbroker.publish", eng.publish, self.channel, EXCHANGE, msg, True
                )
            except (BrokerDown, ExchError):
                self.failed += 1
                continue
            meter.count("exchbroker.publish", 1)
            if not confirm.ack:
                self.failed += 1
                continue
            self.routed += confirm.routed_count
            if confirm.routed_count != 2:
                self.failed += 1
            self.produced.append(self.code(msg))
            self.payload_sent += len(msg.payload)
            self.outstanding += 1

    def poll(self, lat) -> None:
        eng, meter = self.engine, self.meter
        for i in range(len(self.lanes)):
            queue = f"w{i}"
            try:
                got = meter.call("exchbroker.pull", eng.pull, queue, f"c{i}", PULL_BATCH)
            except (BrokerDown, ExchError):
                self.failed += 1
                self.broken = True
                return
            self.pulls += 1
            if not got:
                self.empty_pulls += 1
                continue
            returned = meter.last_end
            meter.count("exchbroker.pull", len(got))
            for d in got:
                meter.call("exchbroker.ack", eng.ack, queue, d.tag)
                self.consumed.append(self.code(d.message))
            self.outstanding -= len(got)
            if lat is not None:
                lat.record(returned, (d.message.produced_at for d in got))

    def tick(self, now: int) -> None:
        pass

    def properties(self) -> dict:
        return {
            "payload_sizes": list(PAYLOAD_SIZES),
            "bindings": len(self.lanes) + 1 + len(_dead_patterns()),
            "prefill_msgs": AUDIT_DEPTH,
            "route_key_repeat_share": self.repeat_share(),
        }

    def repeat_share(self) -> float:
        return self.repeat_keys / self.publishes if self.publishes else 0.0
