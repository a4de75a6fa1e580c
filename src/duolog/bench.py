"""Concurrent load generation and measurement.

Workloads run real producer and consumer threads against an engine's public
thread-safe surface; per-worker counters and latency samples are merged only
after the workers join.  Latency is measured per message from production to
delivery; only samples landing after the warmup window count.  Percentiles
use the nearest-rank method.

The measurement defaults come from the DUOLOG_PROFILE environment variable:
the `desk` profile (default) runs 10 s with a 5 s warmup per point, `full`
runs 60 s with a 30 s warmup.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Optional

from .core import Delivery, Message, QoSConfig
from .exchbroker import (
    BindingSpec,
    ConsumeMode,
    ExchEngine,
    ExchangeKind,
    ExchangeSpec,
    QueueSpec,
)
from .harness import build_exch_engine, build_log_engine
from .logbroker import ACK_MODES


class BenchError(Exception):
    pass


class NoSamples(BenchError):
    pass


class EngineStartFailure(BenchError):
    pass


# each sweep parameter and the WorkloadSpec field that it sets
_SWEEP_FIELDS = {
    "record_size": "record_size_bytes",
    "topics": "topics",
    "partitions": "partitions",
    "replication": "replication_factor",
    "ack_mode": "ack_mode",
}
SWEEP_PARAMS = tuple(_SWEEP_FIELDS)

# messages per producer batch, for both engines
PRODUCER_BATCH_MESSAGES = 10

EXPORT_COLUMNS = (
    "engine", "sweep_param", "sweep_value", "pps", "bps",
    "mean_ms", "p50_ms", "p999_ms", "max_ms", "seed",
)


def profile_defaults() -> tuple[float, float]:
    """(duration_s, warmup_s) for the selected DUOLOG_PROFILE."""
    profile = os.environ.get("DUOLOG_PROFILE", "desk").lower()
    if profile == "full":
        return 60.0, 30.0
    return 10.0, 5.0


@dataclass(frozen=True)
class WorkloadSpec:
    """What to run: worker counts, record size, topology scale, delivery
    knobs and the measurement window."""

    producers: int = 2
    consumers: int = 2
    record_size_bytes: int = 100
    topics: int = 1
    partitions: int = 1
    replication_factor: int = 1
    delivery: Delivery = Delivery.AT_MOST_ONCE
    ack_mode: str = "1"           # log engine: "0" | "1" | "quorum"
    duration_s: Optional[float] = None
    warmup_s: Optional[float] = None
    messages_per_producer: Optional[int] = None  # used by deterministic mode
    seed: int = 1

    def resolved(self) -> "WorkloadSpec":
        duration, warmup = self.duration_s, self.warmup_s
        d_default, w_default = profile_defaults()
        if duration is None:
            duration = d_default
        if warmup is None:
            warmup = w_default
        spec = replace(self, duration_s=duration, warmup_s=warmup)
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.record_size_bytes < 1:
            raise ValueError("record_size_bytes must be >= 1")
        if self.producers < 1 or self.consumers < 1:
            raise ValueError("need at least one producer and one consumer")
        if self.ack_mode not in ACK_MODES:
            raise ValueError(f"ack_mode must be one of {sorted(ACK_MODES)}, got {self.ack_mode!r}")
        if self.duration_s is not None and self.warmup_s is not None:
            if self.duration_s <= self.warmup_s:
                raise ValueError("duration must exceed warmup")

    def qos(self) -> QoSConfig:
        return QoSConfig(delivery=self.delivery, replication_factor=self.replication_factor)

    def config_snapshot(self) -> dict:
        """Every field but the deterministic-mode cap, in field order."""
        snap = asdict(self)
        del snap["messages_per_producer"]
        snap["delivery"] = self.delivery.value
        return snap


@dataclass(frozen=True)
class LatencySummary:
    mean_ms: float
    max_ms: float
    p50_ms: float
    p999_ms: float
    sample_count: int


def nearest_rank(sorted_samples: list, q: float):
    """Nearest-rank percentile: the ceil(q*N)-th smallest sample."""
    n = len(sorted_samples)
    if n == 0:
        raise NoSamples("no samples to rank")
    rank = -(-int(q * n * 1_000_000) // 1_000_000)  # ceil without float drift
    rank = max(1, min(n, rank))
    return sorted_samples[rank - 1]


def summarize_latencies(samples_ns: Iterable[int]) -> LatencySummary:
    samples = sorted(samples_ns)
    if not samples:
        raise NoSamples("no post-warmup latency samples")
    to_ms = 1 / 1e6
    return LatencySummary(
        mean_ms=sum(samples) / len(samples) * to_ms,
        max_ms=samples[-1] * to_ms,
        p50_ms=nearest_rank(samples, 0.50) * to_ms,
        p999_ms=nearest_rank(samples, 0.999) * to_ms,
        sample_count=len(samples),
    )


@dataclass(frozen=True)
class ThroughputSample:
    engine: str
    sweep_param: str
    sweep_value: object
    pps: float
    bps: float
    latency: LatencySummary
    config: dict
    seed: int

    def row(self) -> dict:
        lat = self.latency
        values = (
            self.engine, self.sweep_param, self.sweep_value,
            round(self.pps, 3), round(self.bps, 3),
            round(lat.mean_ms, 6), round(lat.p50_ms, 6),
            round(lat.p999_ms, 6), round(lat.max_ms, 6),
            self.seed,
        )
        return dict(zip(EXPORT_COLUMNS, values, strict=True))


def topology(spec: WorkloadSpec) -> dict:
    """A bench point's engine settings as a scenario file's `topology`: the one
    place a `WorkloadSpec` becomes them.  The log reads `partitions`, `ack_mode`,
    the flush bounds and `producer_batch`; the exchange, `durable` and `mirrors`."""
    at_least_once = spec.delivery is Delivery.AT_LEAST_ONCE
    return {
        "partitions": spec.partitions,
        # replication is only meaningful when acks wait on the replicas
        "ack_mode": "quorum" if spec.replication_factor >= 2 else spec.ack_mode,
        # at-least-once flushes every message: a confirm implies durability
        "flush_messages": 1 if at_least_once else 10_000,
        "flush_ms": None if at_least_once else 1000,
        "producer_batch": PRODUCER_BATCH_MESSAGES,
        "durable": at_least_once,
        "mirrors": [f"n{i}" for i in range(1, spec.replication_factor)],
    }


# --------------------------------------------------------------------------
# engine contexts
#
# A context builds its engine from a resolved spec through `topology` and a
# harness builder, with modeled device costs on.  Each producer batch goes to
# `next_lane(worker)`, which returns the lane and the routing key that the
# batch's messages carry, and then to `publish_batch(worker, lane, batch)`;
# `poll(worker)` returns (produced_at, payload length) per delivery.
# --------------------------------------------------------------------------

class _LogCtx:
    """Runs workloads against the partitioned log engine."""

    def __init__(self, spec: WorkloadSpec) -> None:
        topics = [f"bench-{t}" for t in range(spec.topics)]
        self.engine, self.acks = build_log_engine(
            topology(spec), spec.qos(), time.monotonic_ns, True, topics
        )
        self.lanes = [(t, p) for t in topics for p in range(spec.partitions)]
        # producer w starts at lane w
        self._producer_rotor = list(range(spec.producers))
        # partitions dealt round-robin over consumer workers
        self._consumer_lanes = [[] for _ in range(spec.consumers)]
        for i, (t, p) in enumerate(self.lanes):
            self._consumer_lanes[i % spec.consumers].append((t, p, [0]))

    def next_lane(self, worker: int) -> tuple[tuple[str, int], None]:
        rotor = self._producer_rotor[worker]
        self._producer_rotor[worker] += 1
        return self.lanes[rotor % len(self.lanes)], None

    def publish_batch(self, worker: int, lane: tuple[str, int], batch: list[Message]) -> None:
        topic, partition = lane
        self.engine.append_batch(topic, partition, batch, self.acks)

    def poll(self, worker: int) -> list[tuple[int, int]]:
        out = []
        for topic, partition, pos in self._consumer_lanes[worker]:
            msgs, _ = self.engine.fetch(topic, partition, pos[0])
            pos[0] += len(msgs)
            out.extend((m.produced_at, len(m.payload)) for m in msgs)
        return out


class _ExchCtx:
    """Runs workloads against the exchange engine."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.at_least_once = spec.delivery is Delivery.AT_LEAST_ONCE
        # (exchange, routing key, queue): a queue per partition of each topic
        self.queues = [(f"bench-x{x}", f"k{q}", f"bench-x{x}-q{q}")
                       for x in range(spec.topics) for q in range(spec.partitions)]
        self.engine = build_exch_engine(
            topology(spec), spec.qos(), time.monotonic_ns, True, self.queues
        )
        self.channels = [self.engine.channel() for _ in range(spec.producers)]
        self._rotor = [0] * spec.producers
        # queues dealt round-robin over consumer workers
        self.consumers = [[] for _ in range(spec.consumers)]
        for i, (_, _, qname) in enumerate(self.queues):
            w = i % spec.consumers
            self.consumers[w].append(self.engine.consume(
                qname, f"c{w}", ConsumeMode.PULL, prefetch=1000, auto_ack=not self.at_least_once
            ))

    def next_lane(self, worker: int) -> tuple[str, str]:
        rotor = self._rotor[worker]
        self._rotor[worker] += 1
        ex, key, _ = self.queues[rotor % len(self.queues)]
        return ex, key

    def publish_batch(self, worker: int, lane: str, batch: list[Message]) -> None:
        chan = self.channels[worker]
        for msg in batch:
            self.engine.publish(chan, lane, msg, persistent=self.at_least_once)

    def poll(self, worker: int) -> list[tuple[int, int]]:
        out = []
        for handle in self.consumers[worker]:
            for d in handle.pull(200):
                if self.at_least_once:
                    handle.ack(d.tag)
                out.append((d.message.produced_at, len(d.message.payload)))
        return out


# what `run_throughput` and `run_latency` accept by name; they also take any
# callable from a resolved spec to a context
ENGINES = {"log": _LogCtx, "exch": _ExchCtx}


# --------------------------------------------------------------------------
# the measurement loop
# --------------------------------------------------------------------------

@dataclass
class RunStats:
    samples_ns: list
    delivered: int
    delivered_bytes: int
    produced: int
    window_s: float

    def pps(self) -> float:
        return self.delivered / self.window_s

    def bps(self) -> float:
        return self.delivered_bytes / self.window_s


def _run_once(engine, spec: WorkloadSpec) -> RunStats:
    spec = spec.resolved()
    if isinstance(engine, str):
        if engine not in ENGINES:
            raise EngineStartFailure(f"unknown engine {engine!r}")
        engine = ENGINES[engine]
    try:
        ctx = engine(spec)
    except Exception as e:  # engine-level setup problems surface uniformly
        raise EngineStartFailure(str(e)) from e

    t0 = time.monotonic_ns()
    warmup_end = t0 + int(spec.warmup_s * 1e9)
    end = t0 + int(spec.duration_s * 1e9)
    payload = b"\x00" * spec.record_size_bytes
    batch_size = PRODUCER_BATCH_MESSAGES
    produced_counts = [0] * spec.producers
    worker_samples: list[list[int]] = [[] for _ in range(spec.consumers)]
    worker_delivered = [0] * spec.consumers
    worker_bytes = [0] * spec.consumers
    start_gate = threading.Barrier(spec.producers + spec.consumers)

    def producer(w: int) -> None:
        start_gate.wait()
        seq = 0
        flow = f"p{w}"
        cap = spec.messages_per_producer
        while time.monotonic_ns() < end and (cap is None or seq < cap):
            n = batch_size if cap is None else min(batch_size, cap - seq)
            lane, key = ctx.next_lane(w)
            now = time.monotonic_ns()
            batch = [
                Message(flow, seq + i, payload=payload, routing_key=key, produced_at=now)
                for i in range(n)
            ]
            seq += n
            ctx.publish_batch(w, lane, batch)
            produced_counts[w] = seq

    def consumer(w: int) -> None:
        start_gate.wait()
        samples = worker_samples[w]
        while True:
            now = time.monotonic_ns()
            if now >= end:
                break
            got = ctx.poll(w)
            if not got:
                time.sleep(0.0002)
                continue
            t_deliver = time.monotonic_ns()
            if t_deliver >= warmup_end:
                for produced_at, nbytes in got:
                    samples.append(t_deliver - produced_at)
                    worker_delivered[w] += 1
                    worker_bytes[w] += nbytes

    threads = [
        threading.Thread(target=producer, args=(w,), daemon=True)
        for w in range(spec.producers)
    ] + [
        threading.Thread(target=consumer, args=(w,), daemon=True)
        for w in range(spec.consumers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    window_s = (end - warmup_end) / 1e9
    merged: list[int] = []
    for s in worker_samples:
        merged.extend(s)
    return RunStats(
        samples_ns=merged,
        delivered=sum(worker_delivered),
        delivered_bytes=sum(worker_bytes),
        produced=sum(produced_counts),
        window_s=window_s,
    )


def run_latency(engine, spec: WorkloadSpec) -> LatencySummary:
    """Per-message latency (production to delivery) over the post-warmup
    window; raises NoSamples when nothing was delivered in it."""
    stats = _run_once(engine, spec)
    return summarize_latencies(stats.samples_ns)


def apply_sweep(spec: WorkloadSpec, param: str, value) -> WorkloadSpec:
    field = _SWEEP_FIELDS.get(param)
    if field is None:
        raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {param!r}")
    if field == "ack_mode":
        value = str(value)
        if value in ("at_most_once", "at_least_once"):
            field, value = "delivery", Delivery(value)
    else:
        value = int(value)
    return replace(spec, **{field: value})


def run_throughput(engine, spec: WorkloadSpec, sweep: tuple[str, list]) -> list[ThroughputSample]:
    """One sample per sweep point, each from an independent run with a fresh
    engine; producers run saturating loops."""
    param, values = sweep
    # every point is validated before any is measured
    points = [apply_sweep(spec, param, value).resolved() for value in values]
    out = []
    for value, point in zip(values, points):
        stats = _run_once(engine, point)
        try:
            latency = summarize_latencies(stats.samples_ns)
        except NoSamples:
            latency = LatencySummary(0.0, 0.0, 0.0, 0.0, 0)
        reported_pps = min(stats.pps(), stats.produced / stats.window_s)
        out.append(
            ThroughputSample(
                engine=str(getattr(engine, "name", engine)),
                sweep_param=param,
                sweep_value=value,
                pps=reported_pps,
                bps=stats.bps(),
                latency=latency,
                config=point.config_snapshot(),
                seed=spec.seed,
            )
        )
    return out


# --------------------------------------------------------------------------
# spill degradation comparison
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpillComparison:
    uncapped_p50_ms: float
    capped_p50_ms: float
    spill_read_fraction: float
    spill_read_ns: int

    def slowdown(self) -> float:
        return self.capped_p50_ms / self.uncapped_p50_ms


# the spill comparison's payload size, and what a spill read costs there
# as a multiple of the measured in-memory delivery
SPILL_PAYLOAD_BYTES = 256
SPILL_PENALTY = 10.0


def run_spill_comparison(n_messages: int = 600, backlog: int = 150) -> SpillComparison:
    """Steady-state latency with a standing backlog, without and with a
    memory cap that keeps the backlog's head in the spill tier.

    The uncapped run measures the engine's actual in-memory per-delivery
    cost; the capped run then pays `SPILL_PENALTY` times that cost on every
    spill read, which inflates each delivery's queue wait by the penalty.
    """

    def one(spill_read_ns: Optional[int]) -> tuple[float, float, int]:
        capped = spill_read_ns is not None
        engine = ExchEngine(
            1, latency_mode="real", spill_read_ns=spill_read_ns or 0
        )
        engine.declare_exchange(ExchangeSpec("x", ExchangeKind.DIRECT))
        engine.declare_queue(
            QueueSpec(
                "q",
                memory_cap_bytes=(backlog * SPILL_PAYLOAD_BYTES) // 8 if capped else None,
                spill_to_disk=capped,
            )
        )
        engine.bind(BindingSpec("x", "q", key="k"))
        chan = engine.channel()
        payload = b"\x00" * SPILL_PAYLOAD_BYTES

        def publish(i: int) -> None:
            msg = Message(
                "steady", i, payload=payload,
                routing_key="k", produced_at=time.monotonic_ns(),
            )
            engine.publish(chan, "x", msg)

        for i in range(backlog):
            publish(i)
        cons = engine.consume("q", "c", ConsumeMode.PULL, prefetch=10, auto_ack=True)
        latencies = []
        from_spill = 0
        t0 = time.monotonic_ns()
        for i in range(backlog, backlog + n_messages):
            publish(i)
            for d in cons.pull(1):
                latencies.append(time.monotonic_ns() - d.message.produced_at)
                from_spill += d.from_spill
        per_op = (time.monotonic_ns() - t0) // max(1, len(latencies))
        return summarize_latencies(latencies).p50_ms, from_spill / n_messages, per_op

    uncapped_p50, _, per_op = one(None)
    penalty_ns = int(SPILL_PENALTY * per_op)
    capped_p50, fraction, _ = one(penalty_ns)
    return SpillComparison(uncapped_p50, capped_p50, fraction, penalty_ns)


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------

def atomic_write(path, text: str) -> None:
    """Write `text` to `path` through a temp file and a rename, so a reader
    never sees a partial file; the temp file is removed if either step
    fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def export(results: list[ThroughputSample], path, format: str) -> None:
    """Write results with the stable column order; refuses empty inputs and
    never leaves a partial file behind (`atomic_write`)."""
    if not results:
        raise ValueError("refusing to export empty results")
    fmt = format.upper()
    if fmt not in ("CSV", "JSONL"):
        raise ValueError(f"format must be CSV or JSONL, got {format!r}")
    buf = io.StringIO()
    if fmt == "CSV":
        writer = csv.DictWriter(buf, fieldnames=EXPORT_COLUMNS)
        writer.writeheader()
        for sample in results:
            writer.writerow(sample.row())
    else:
        for sample in results:
            buf.write(json.dumps(sample.row()) + "\n")
    atomic_write(path, buf.getvalue())
