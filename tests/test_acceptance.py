"""Acceptance gate.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to watch them).  Absolute throughput
and latency numbers are hardware-bound, so the performance criteria check
directions and shapes with majority voting over repeated runs; the analytic
artifacts (model constants, determination table, matchers, oracles) are
checked exactly at their stated tolerances.
"""

import itertools
import random
import time
from dataclasses import replace

from duolog import model
from duolog.advisor import (
    DETERMINATION_TABLE,
    all_vectors,
    expand_wildcards,
    recommend,
)
from duolog.bench import WorkloadSpec, run_spill_comparison, run_throughput, topology
from duolog.core import BrokerDown, Delivery, FlushPolicy, Message, Ordering
from duolog.exchbroker import (
    BindingSpec,
    ConsumeMode,
    ExchEngine,
    ExchangeKind,
    ExchangeSpec,
    QueueSpec,
    match_topic,
)
from duolog.harness import ScenarioInvalid, random_scenario, run_scenario, verdict
from duolog.logbroker import (
    LogAckMode,
    LogEngine,
    RetentionPolicy,
    TopicConfig,
    encode_record,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ===========================================================================
# correctness suite: >= 1000 seeded random fault scenarios per engine
# ===========================================================================

def test_correctness_suite():
    t0 = time.time()
    failures = []
    disorder_violations = 0
    counted = {"log": 0, "exch": 0}
    ordered_runs = 0
    for engine in ("log", "exch"):
        for seed in range(1000):
            s = random_scenario(engine, seed)
            res = run_scenario(s)
            v = verdict(res.report, s.qos)
            if not v.passed:
                failures.append((engine, seed, v.reason))
            if s.qos.ordering is not Ordering.NONE:
                ordered_runs += 1
                disorder_violations += sum(
                    1 for viol in res.report.violations if viol.kind.value == "disorder"
                )
            by_msg = {}
            for ev in res.phases:
                by_msg.setdefault((ev.flow, ev.seq), []).append(ev)
            for events in by_msg.values():
                events.sort(key=lambda e: e.phase.value)
                times = [e.at_ns for e in events]
                if times != sorted(times):
                    failures.append((engine, seed, "phase-monotonicity"))
                    break
            counted[engine] += 1
    elapsed = time.time() - t0
    report(
        "correctness: 1000 random fault scenarios per engine all keep their QoS promise",
        not failures and counted == {"log": 1000, "exch": 1000},
        f"failures={failures[:3]}, elapsed={elapsed:.1f}s",
    )
    report(
        "correctness: per-partition / per-channel ordering violations are zero",
        disorder_violations == 0 and ordered_runs > 200,
        f"{disorder_violations} violations over {ordered_runs} ordered runs",
    )
    report("correctness: runtime under 60 s", elapsed < 60, f"{elapsed:.1f}s")


# ===========================================================================
# batch atomicity: 200 crash-injected appends, zero partial batches
# ===========================================================================

def test_batch_atomicity():
    rng = random.Random(42)
    clock = [0]
    eng = LogEngine(
        1, clock=lambda: clock[0]
    )
    eng.create_topic(
        TopicConfig(
            "t",
            segment_bytes=257,
            flush=FlushPolicy(flush_interval_messages=25, flush_interval_ms=None),
        )
    )
    injected = 0
    batch_sizes = {}
    for i in range(200):
        clock[0] += 1000
        size = rng.randint(3, 12)
        batch = [
            Message("f", i * 1000 + j, payload=b"p" * rng.randint(4, 40), produced_at=clock[0])
            for j in range(size)
        ]
        batch_sizes[i] = size
        fault = rng.choice(["none", "pre_commit", "post_leader", "crash_after", "crash_before"])
        if fault != "none":
            injected += 1
        try:
            if fault == "pre_commit":
                eng.fault_hook = lambda phase, t, p: (_ for _ in ()).throw(BrokerDown("x")) \
                    if phase == "pre_commit" else None
            elif fault == "post_leader":
                eng.fault_hook = lambda phase, t, p: (_ for _ in ()).throw(BrokerDown("x")) \
                    if phase == "post_leader" else None
            elif fault == "crash_before":
                eng.crash_node("n0")
            eng.append_batch("t", 0, batch, LogAckMode.ACKS_1)
        except BrokerDown:
            pass
        finally:
            eng.fault_hook = None
            if fault == "crash_before":
                eng.restart_node("n0")
        if fault == "crash_after":
            eng.crash_node("n0")
            eng.restart_node("n0")
    eng.flush_all("t")
    msgs, _ = eng.fetch("t", 0, 0, max_bytes=1 << 30)
    per_batch = {}
    for m in msgs:
        per_batch.setdefault(m.seq_no // 1000, set()).add(m.seq_no % 1000)
    partial = [
        b for b, seqs in per_batch.items()
        if len(seqs) != batch_sizes[b] or seqs != set(range(batch_sizes[b]))
    ]
    report(
        "batch atomicity: 200 crash-injected appends left zero partial batches",
        injected >= 120 and not partial,
        f"{injected} faults injected, partial batches: {partial[:5]}",
    )


# ===========================================================================
# routing oracle equivalence: full enumeration over {a, b, *, #}
# ===========================================================================

def oracle_match(p, k):
    if not p:
        return not k
    if p[0] == "#":
        return oracle_match(p[1:], k) or (bool(k) and oracle_match(p, k[1:]))
    if not k:
        return False
    if p[0] == "*" or p[0] == k[0]:
        return oracle_match(p[1:], k[1:])
    return False


def test_routing_oracle_equivalence():
    alphabet = ("a", "b", "*", "#")
    disagreements = []
    pairs = 0
    for np in range(0, 4):
        for p in itertools.product(alphabet, repeat=np):
            for nk in range(0, 4):
                for k in itertools.product(alphabet, repeat=nk):
                    pairs += 1
                    got = match_topic(".".join(p), ".".join(k))
                    want = oracle_match(list(p), list(k))
                    if got != want:
                        disagreements.append((p, k, got, want))
    report(
        "routing: wildcard matcher agrees with the recursive oracle on the full enumeration",
        not disagreements and pairs == 85 * 85,
        f"{pairs} pairs, disagreements: {disagreements[:3]}",
    )


# ===========================================================================
# compaction and retention oracles: 100 random logs each
# ===========================================================================

def test_compaction_oracle():
    rng = random.Random(7)
    bad = []
    for case in range(100):
        n = rng.randint(1, 1000)
        keys = rng.randint(1, max(1, n // 2))
        eng = LogEngine(1, clock=lambda: 0)
        eng.create_topic(TopicConfig("t", segment_bytes=rng.choice([64, 512, 1 << 20])))
        expected = {}
        batch = []
        for i in range(n):
            key = f"k{rng.randrange(keys)}".encode()
            payload = f"v{case}:{i}".encode()
            batch.append(Message("f", i, payload=payload, key=key, produced_at=i))
            expected[key] = (i, payload)
        eng.append_batch("t", 0, batch)
        eng.compact("t", 0)
        got = {
            m.key: (m.seq_no, m.payload)
            for m in eng.fetch("t", 0, 0, max_bytes=1 << 30)[0]
        }
        if got != expected:
            bad.append(case)
    report(
        "compaction: 100 random keyed logs equal the last-write-wins map oracle",
        not bad, f"bad cases: {bad[:5]}",
    )


def test_retention_oracle():
    rng = random.Random(13)
    bad = []
    for case in range(100):
        n = rng.randint(1, 300)
        bound_type = case % 3
        clock = [0]
        eng = LogEngine(1, clock=lambda: clock[0])
        sizes = [rng.randint(1, 30) for _ in range(n)]
        if bound_type == 0:
            retention = RetentionPolicy(max_age_ms=None, max_messages=rng.randint(1, n))
        elif bound_type == 1:
            budget = rng.randint(60, 60 * n)
            retention = RetentionPolicy(max_age_ms=None, max_bytes=budget)
        else:
            retention = RetentionPolicy(max_age_ms=rng.randint(0, n))
        eng.create_topic(
            TopicConfig(
                "t", retention=retention, segment_bytes=1,
                flush=FlushPolicy(flush_interval_messages=1, flush_interval_ms=None),
            )
        )
        encoded_sizes = []
        for i in range(n):
            msg = Message("f", i, payload=b"x" * sizes[i], produced_at=i * 1_000_000)
            encoded_sizes.append(len(encode_record(i, msg)))
            eng.append_batch("t", 0, [msg])
        now = n * 1_000_000
        clock[0] = now
        eng.purge("t")
        got = [m.seq_no for m in eng.fetch("t", 0, eng._topic("t").partitions[0].replicas[0].start_offset, max_bytes=1 << 30)[0]]
        # oracle: drop oldest while the active bound is violated
        keep = list(range(n))
        if bound_type == 0:
            while len(keep) > retention.max_messages:
                keep.pop(0)
        elif bound_type == 1:
            while keep and sum(encoded_sizes[i] for i in keep) > retention.max_bytes:
                keep.pop(0)
        else:
            while keep and keep[0] * 1_000_000 + retention.max_age_ms * 1_000_000 < now:
                keep.pop(0)
        if got != keep:
            bad.append((case, bound_type))
    report(
        "retention: purge retains exactly the newest messages under each bound type",
        not bad, f"bad cases: {bad[:5]}",
    )


# ===========================================================================
# model formulas at the pinned reference points (+-0.1%)
# ===========================================================================

def test_model_reference_points():
    rabbit = model.predict_rabbit(1, 100, model.RABBIT_NO_REPLICATION)
    kafka = model.predict_kafka(5, 10, 5, 4000, model.KAFKA_ACKS0)
    ok_r = abs(rabbit - 30_153) / 30_153 <= 0.001
    ok_k = abs(kafka - 72_364) / 72_364 <= 0.001
    report(
        "model: exchange-form prediction at (1 producer, 100 B) is 30,153 pps +-0.1%",
        ok_r, f"got {rabbit:.1f}",
    )
    report(
        "model: log-form prediction at (5, 10, 5, 4000) is 72,364 pps +-0.1%",
        ok_k, f"got {kafka:.1f} (the quoted ~85 Kpps figure is documented, not asserted)",
    )


# ===========================================================================
# fit round-trip: noise-free recovery within 1%, under 5 s
# ===========================================================================

def test_fit_round_trip():
    t0 = time.time()
    truth_r = model.RabbitThroughputModel(u_routing=4.1e-5, u_byte=8.8e-9)
    samples_r = [
        ((p, s), model.predict_rabbit(p, s, truth_r))
        for p in (1, 2, 4) for s in (60, 250, 1000, 4000, 16000, 64000, 250_000)
    ]
    fit_r = model.fit(samples_r, "rabbit")
    truth_k = model.KafkaThroughputModel(u_routing=3.6e-4, u_topics=2.5e-7, u_byte=4.4e-6)
    samples_k = [
        ((p, pt, t, es), model.predict_kafka(p, pt, t, es, truth_k))
        for (p, pt) in ((1, 1), (2, 4), (5, 10))
        for t in (1, 4, 16)
        for es in (100, 2500, 40_000, 640_000)
    ]
    fit_k = model.fit(samples_k, "kafka")
    elapsed = time.time() - t0
    errs = [
        abs(fit_r.constants.u_routing - truth_r.u_routing) / truth_r.u_routing,
        abs(fit_r.constants.u_byte - truth_r.u_byte) / truth_r.u_byte,
        abs(fit_k.constants.u_routing - truth_k.u_routing) / truth_k.u_routing,
        abs(fit_k.constants.u_topics - truth_k.u_topics) / truth_k.u_topics,
        abs(fit_k.constants.u_byte - truth_k.u_byte) / truth_k.u_byte,
    ]
    report(
        "fit: noise-free synthetic data recovers both forms' constants within 1%",
        max(errs) < 0.01 and elapsed < 5,
        f"max err {max(errs):.2e}, elapsed {elapsed:.2f}s "
        f"(residual mre {fit_r.mean_relative_error:.1e}/{fit_k.mean_relative_error:.1e})",
    )


# ===========================================================================
# advisor golden table
# ===========================================================================

def test_advisor_golden():
    expected = [
        (("N", "N", "*", "*", "N", "N", "XL", "N", "N"), "Kafka with multiple partitions"),
        (("N", "N", "*", "*", "N", "N", "XL", "Y", "Y"),
         "Kafka with replication and multiple partitions"),
        (("N", "N", "*", "*", "Y", "N", "L", "N", "N"), "single partition Kafka"),
        (("N", "N", "*", "*", "Y", "N", "L", "Y", "Y"),
         "single partition Kafka with replication"),
        (("*", "*", "N", "N", "*", "*", "L", "*", "N"), "RabbitMQ"),
        (("*", "*", "N", "N", "*", "*", "L", "*", "Y"), "RabbitMQ with queue replication"),
        (("*", "*", "Y", "N", "*", "*", "L", "*", "*"),
         "RabbitMQ with Kafka long term storage"),
        (("N", "Y", "*", "*", "N", "N", "XL", "N", "*"),
         "Kafka with selected RabbitMQ routing"),
    ]
    rows_ok = [(r.cells, r.recommendation) for r in DETERMINATION_TABLE] == expected
    report("advisor: the eight determination rows are reproduced exactly", rows_ok)
    expanded = expand_wildcards()
    mismatch = [
        v for v in all_vectors() if recommend(v) != recommend(v, expanded)
    ]
    report(
        "advisor: wildcard expansion is equivalent over all 512 concrete vectors",
        not mismatch, f"mismatches: {len(mismatch)}",
    )


# ===========================================================================
# bench shape checks: desk profile directions, 5 runs, majority >= 4/5
# ===========================================================================

BENCH_RUNS = 5
BENCH_NEED = 4
TOL = 0.05  # direction tolerance for non-increasing checks


def sweep_pps(engine, spec, sweep):
    return [s.pps for s in run_throughput(engine, spec, sweep)]


def vote(check_fn):
    outcomes = []
    observations = []
    for run in range(BENCH_RUNS):
        ok, obs = check_fn(run)
        outcomes.append(ok)
        observations.append(obs)
    return sum(outcomes), observations


def non_increasing(pps, tol=TOL):
    return all(b <= a * (1 + tol) for a, b in zip(pps, pps[1:]))


def rise_then_plateau(pps, tol=0.12):
    peak = max(range(len(pps)), key=lambda i: pps[i])
    rising = all(pps[i + 1] >= pps[i] * (1 - tol) for i in range(peak))
    plateau = all(p >= max(pps) * (1 - 2 * tol) for p in pps[peak:])
    return rising and plateau


def bench_spec(**kw):
    kw.setdefault("producers", 2)
    kw.setdefault("consumers", 2)
    kw.setdefault("duration_s", 0.8)
    kw.setdefault("warmup_s", 0.2)
    kw.setdefault("seed", 20)
    return WorkloadSpec(**kw)


def test_bench_shape_record_size():
    def check_exch(run):
        pps = sweep_pps("exch", bench_spec(seed=20 + run), ("record_size", [100, 32768, 262144]))
        return non_increasing(pps), [round(p) for p in pps]

    def check_log(run):
        pps = sweep_pps("log", bench_spec(seed=40 + run), ("record_size", [100, 8192, 65536]))
        return non_increasing(pps), [round(p) for p in pps]

    got, obs = vote(check_exch)
    report(
        f"bench shape: exchange pps non-increasing in record size ({got}/{BENCH_RUNS} runs)",
        got >= BENCH_NEED, f"{obs}",
    )
    got, obs = vote(check_log)
    report(
        f"bench shape: log pps non-increasing in record size ({got}/{BENCH_RUNS} runs)",
        got >= BENCH_NEED, f"{obs}",
    )


def test_bench_shape_partitions():
    def check(run):
        pps = sweep_pps("log", bench_spec(seed=60 + run), ("partitions", [1, 2, 4, 8]))
        return rise_then_plateau(pps), [round(p) for p in pps]

    got, obs = vote(check)
    report(
        f"bench shape: log pps non-decreasing then plateauing in partitions ({got}/{BENCH_RUNS} runs)",
        got >= BENCH_NEED, f"{obs}",
    )


def test_bench_shape_replication():
    def check_log(run):
        pps = sweep_pps(
            "log", bench_spec(seed=80 + run, record_size_bytes=512), ("replication", [1, 2])
        )
        return pps[1] <= pps[0] * (1 + TOL), [round(p) for p in pps]

    def check_exch(run):
        pps = sweep_pps("exch", bench_spec(seed=100 + run), ("replication", [1, 2]))
        return pps[1] <= pps[0] * (1 + TOL), [round(p) for p in pps]

    got, obs = vote(check_log)
    report(
        f"bench shape: log pps with replication 2 <= replication 1 ({got}/{BENCH_RUNS} runs)",
        got >= BENCH_NEED, f"{obs}",
    )
    got, obs = vote(check_exch)
    report(
        f"bench shape: exchange pps with replication 2 <= replication 1 ({got}/{BENCH_RUNS} runs)",
        got >= BENCH_NEED, f"{obs}",
    )


def test_bench_shape_delivery_modes():
    def check(run):
        pps = sweep_pps(
            "exch", bench_spec(seed=120 + run),
            ("ack_mode", ["at_most_once", "at_least_once"]),
        )
        return pps[1] <= pps[0] * (1 + TOL), [round(p) for p in pps]

    got, obs = vote(check)
    report(
        f"bench shape: exchange at-least-once pps <= at-most-once pps ({got}/{BENCH_RUNS} runs)",
        got >= BENCH_NEED, f"{obs}",
    )


# ===========================================================================
# the gate grades what the bench measures: every point of the bench-shape
# sweeps above, in both delivery modes, under the random fault scenarios
# ===========================================================================

BENCH_POINTS = {
    "log": [
        *(bench_spec(record_size_bytes=size) for size in (100, 8192, 65536)),
        *(bench_spec(partitions=n) for n in (1, 2, 4, 8)),
        *(bench_spec(record_size_bytes=512, replication_factor=rf) for rf in (1, 2)),
    ],
    "exch": [
        *(bench_spec(record_size_bytes=size) for size in (100, 32768, 262144)),
        *(bench_spec(replication_factor=rf) for rf in (1, 2)),
    ],
}


def test_gate_grades_every_bench_point():
    graded, failures = 0, []
    for engine, points in BENCH_POINTS.items():
        for point, delivery in itertools.product(points, Delivery):
            point = replace(point, delivery=delivery)
            for seed in range(40):
                s = random_scenario(engine, seed)
                s = replace(
                    s, topology=topology(point), qos=point.qos(),
                    workload=replace(s.workload, record_size_bytes=point.record_size_bytes),
                )
                try:
                    s.validate()
                except ScenarioInvalid:
                    continue
                graded += 1
                v = verdict(run_scenario(s).report, s.qos)
                if not v.passed:
                    failures.append((engine, point.config_snapshot(), seed, v.reason))
    report(
        f"bench points: every graded fault scenario keeps its promise ({graded} scenarios)",
        not failures, f"failures: {failures[:3]}",
    )


# ===========================================================================
# spill degradation: >= 30% spill reads at 10x penalty -> p50 >= 5x
# ===========================================================================

def test_spill_degradation():
    sc = run_spill_comparison()
    report(
        "spill: a cap forcing spill reads at 10x penalty raises p50 latency >= 5x",
        sc.spill_read_fraction >= 0.30 and sc.slowdown() >= 5.0,
        f"spill fraction {sc.spill_read_fraction:.2f}, "
        f"p50 {sc.uncapped_p50_ms:.1f} ms -> {sc.capped_p50_ms:.1f} ms "
        f"({sc.slowdown():.1f}x, penalty {sc.spill_read_ns // 1000} us)",
    )


# ===========================================================================
# multicast storage: payload accounting constant in consumer count
# ===========================================================================

def test_multicast_storage():
    messages = 40
    payload = b"m" * 128
    stored = {}
    delivery_ok = True
    for n in (1, 4, 16):
        eng = ExchEngine(3, clock=lambda: 0, latency_mode="none")
        eng.declare_exchange(ExchangeSpec("fan", ExchangeKind.FANOUT))
        handles = []
        for i in range(n):
            eng.declare_queue(QueueSpec(f"q{i}"))
            eng.bind(BindingSpec("fan", f"q{i}"))
            handles.append(eng.consume(f"q{i}", f"c{i}", ConsumeMode.PULL, prefetch=1000))
        chan = eng.channel()
        for i in range(messages):
            confirm = eng.publish(chan, "fan", Message("f", i, payload=payload))
            assert confirm.ack and confirm.routed_count == n
        stored[n] = eng.payload_bytes()
        for h in handles:
            got = h.pull(messages * 2)
            seqs = [d.message.seq_no for d in got]
            if seqs != list(range(messages)):
                delivery_ok = False
            for d in got:
                h.ack(d.tag)
    base = stored[1]
    within = all(abs(stored[n] - base) / base <= 0.01 for n in stored)
    report(
        "multicast: payload-byte accounting constant in consumer count within 1%",
        within, f"{stored}",
    )
    report(
        "multicast: every consumer received every message exactly once",
        delivery_ok,
    )
