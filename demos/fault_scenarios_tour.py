#!/usr/bin/env python3
"""Tour of the deterministic fault harness: the ownership-transfer timeline,
what each delivery mode promises under faults, and byte-identical replay."""

from duolog.core import Delivery, Ordering, QoSConfig
from duolog.harness import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    Scenario,
    Workload,
    random_scenario,
    replay,
    run_scenario,
    verdict,
)


def section(title):
    print(f"\n=== {title} ===")


def show(result, qos):
    v = verdict(result.report, qos)
    r = result.report
    print(f"  no_loss={r.no_loss} no_duplication={r.no_duplication} "
          f"no_disorder={r.no_disorder} -> {'PASS' if v.passed else 'FAIL:' + v.reason}")
    if r.violations:
        print(f"  first violations: {[f'{v.flow}/{v.seq}:{v.kind.value}' for v in r.violations[:4]]}")


workload = Workload(producers=2, consumers=2, record_size_bytes=32,
                    messages_per_producer=10)

section("at-least-once + dropped ack: the retransmit may duplicate, never lose")
s = Scenario(
    engine="log",
    workload=workload,
    qos=QoSConfig(delivery=Delivery.AT_LEAST_ONCE),
    topology={"partitions": 2, "ack_mode": "1", "flush_messages": 1},
    faults=FaultPlan(events=(FaultEvent(FaultKind.DROP_ACK, on="produce", index=3),)),
    seed=11,
)
show(run_scenario(s), s.qos)

section("at-most-once + node crash: loss is allowed, duplication is not")
s = Scenario(
    engine="log",
    workload=workload,
    qos=QoSConfig(delivery=Delivery.AT_MOST_ONCE),
    topology={"partitions": 1, "ack_mode": "0", "flush_messages": 1000},
    faults=FaultPlan(events=(FaultEvent(FaultKind.CRASH_NODE, on="produce", index=6,
                                        down_ms=15),)),
    seed=11,
)
show(run_scenario(s), s.qos)

section("consumer crash under at-least-once: redelivery, insertion-sorted order")
s = Scenario(
    engine="exch",
    workload=workload,
    qos=QoSConfig(delivery=Delivery.AT_LEAST_ONCE, ordering=Ordering.PER_CHANNEL),
    topology={"durable": True},
    faults=FaultPlan(events=(FaultEvent(FaultKind.CRASH_CONSUMER, on="deliver",
                                        index=5, target="c0", down_ms=10),)),
    seed=11,
)
result = run_scenario(s)
show(result, s.qos)

section("the ownership-transfer timeline of one message")
first = sorted({(p.flow, p.seq) for p in result.phases})[0]
for ev in result.phases:
    if (ev.flow, ev.seq) == first:
        print(f"  {ev.phase.name:<22} at {ev.at_ns / 1e6:9.3f} ms")

section("replay determinism: same scenario + seed, byte-identical journals")
again = replay(s)
print("  journals identical:", again.journals_blob() == result.journals_blob())

section("a seeded random scenario (what the acceptance sweep runs 1000x)")
s = random_scenario("exch", seed=123)
print(f"  delivery={s.qos.delivery.value} ordering={s.qos.ordering.value} "
      f"faults={[e.kind.value for e in s.faults.events]}")
show(run_scenario(s), s.qos)
