#!/usr/bin/env python3
"""Tour of the exchange engine: routing across exchange types, publisher
confirms, acknowledgments with requeue ordering, TTL, queue limits, spill
and transactions."""

from duolog.core import Message
from duolog.exchbroker import (
    BindingSpec,
    ConsumeMode,
    ExchEngine,
    ExchangeKind,
    ExchangeSpec,
    OverflowPolicy,
    QueueSpec,
    Unroutable,
    match_topic,
)


def section(title):
    print(f"\n=== {title} ===")


clock = [0]
engine = ExchEngine(3, clock=lambda: clock[0], latency_mode="none")

section("declare a small topology")
engine.declare_exchange(ExchangeSpec("events", ExchangeKind.TOPIC, alternate="lost"))
engine.declare_exchange(ExchangeSpec("lost", ExchangeKind.FANOUT))
engine.declare_exchange(ExchangeSpec("sharded", ExchangeKind.CONSISTENT_HASH))
for q in ("metrics", "errors", "catchall"):
    engine.declare_queue(QueueSpec(q))
engine.bind(BindingSpec("events", "metrics", pattern="metrics.#"))
engine.bind(BindingSpec("events", "errors", pattern="*.error"))
engine.bind(BindingSpec("lost", "catchall"))
print("topic patterns: metrics.# and *.error; unroutable goes to the alternate")

section("wildcard matching")
for pattern, key in [("metrics.#", "metrics.cpu.load"), ("*.error", "disk.error"),
                     ("a.#", "a"), ("*", "a.b")]:
    print(f"  {pattern!r} vs {key!r} -> {match_topic(pattern, key)}")

section("routing: matched, multi-matched, and alternate-exchange fallback")
chan = engine.channel()
print("metrics.cpu.load ->", sorted(engine.route("events", Message("f", 0, routing_key="metrics.cpu.load"))))
print("metrics.error    ->", sorted(engine.route("events", Message("f", 0, routing_key="metrics.error"))))
print("totally.unknown  ->", sorted(engine.route("events", Message("f", 0, routing_key="totally.unknown"))))

section("consistent-hash exchange picks exactly one queue, stably")
for i, q in enumerate(("shard0", "shard1")):
    engine.declare_queue(QueueSpec(q))
    engine.bind(BindingSpec("sharded", q, weight=1 + i))
for key in ("user42", "user43", "user42"):
    (only,) = engine.route("sharded", Message("f", 0, routing_key=key))
    print(f"  {key} -> {only}")

section("publisher confirms: unroutable still confirms (with zero routes)")
engine2 = ExchEngine(1, clock=lambda: 0, latency_mode="none")
engine2.declare_exchange(ExchangeSpec("nowhere", ExchangeKind.DIRECT))
c2 = engine2.channel()
confirm = engine2.publish(c2, "nowhere", Message("f", 0, routing_key="void"))
print("ack:", confirm.ack, "routed:", confirm.routed_count)

section("consume / ack; a nack with requeue restores per-flow order")
for i in range(5):
    engine.publish(chan, "events", Message("flow", i, payload=str(i).encode(),
                                           routing_key="metrics.mem"))
consumer = engine.consume("metrics", "c1", ConsumeMode.PULL, prefetch=10)
got = consumer.pull(3)
print("pulled:", [d.message.seq_no for d in got])
consumer.nack(got[1].tag, requeue=True)  # push seq 1 back
rest = consumer.pull(10)
print("after requeue the tail reads in order:", [d.message.seq_no for d in rest])
for d in got[:1] + got[2:] + rest:
    consumer.ack(d.tag)

section("per-message TTL overrides the queue default")
engine.declare_queue(QueueSpec("ephemeral", default_ttl=100))
engine.bind(BindingSpec("events", "ephemeral", pattern="ttl.#"))
engine.publish(chan, "events", Message("t", 0, routing_key="ttl.a", ttl_ms=10, produced_at=0))
engine.publish(chan, "events", Message("t", 1, routing_key="ttl.b", produced_at=0))
clock[0] = 50 * 1_000_000
print("expired at 50 ms:", engine.expire_ttl("ephemeral"), "(the 10 ms message)")

section("bounded queue: drop-oldest vs reject-publish")
engine.declare_queue(QueueSpec("ring", max_length=2))
engine.declare_queue(QueueSpec("strict", max_length=2, overflow=OverflowPolicy.REJECT_PUBLISH))
for q in ("ring", "strict"):
    engine.bind(BindingSpec("events", q, pattern=f"{q}.#"))
for i in range(3):
    engine.publish(chan, "events", Message("r", i, routing_key="ring.x"))
    last = engine.publish(chan, "events", Message("s", i, routing_key="strict.x"))
print("ring keeps newest 2 (depth", engine.queue_depth("ring"), "); "
      "strict nacked the third publish:", not last.ack)

section("memory cap with spill keeps order, at a read penalty")
engine.declare_queue(QueueSpec("big", memory_cap_bytes=512, spill_to_disk=True))
engine.bind(BindingSpec("events", "big", pattern="big.#"))
for i in range(8):
    engine.publish(chan, "events", Message("b", i, payload=b"z" * 128, routing_key="big.x"))
print("spilled entries:", engine.spilled_entry_count("big"))
big = engine.consume("big", "cb", ConsumeMode.PULL, prefetch=100, auto_ack=True)
order = [d.message.seq_no for d in big.pull(100)]
print("drained in order:", order)

section("transactions buffer publishes; commit applies them in order")
tx = engine.channel()
tx.tx_select()
for i in range(3):
    engine.publish(tx, "events", Message("txf", i, routing_key="metrics.tx"))
result = engine.tx_commit(tx)
print(f"applied {result.applied}/{result.total}, complete={result.complete} "
      "(a crash mid-commit would leave a strict prefix)")
