"""Measurement machinery: percentile summaries, warmup exclusion, honesty
clamps, CSV export, and a smoke run against both engines.  The full
direction sweeps (5 runs, majority vote) live in the acceptance suite."""

import csv
import random
import time

import pytest

from duolog.bench import (
    EXPORT_COLUMNS,
    LatencySummary,
    NoSamples,
    WorkloadSpec,
    export,
    nearest_rank,
    run_throughput,
    summarize_latencies,
)

# --------------------------------------------------------------------------
# summaries
# --------------------------------------------------------------------------

def test_fixed_pipeline_collapses_all_stats():
    s = summarize_latencies([5_000_000] * 100)  # constant 5 ms
    assert s.mean_ms == s.max_ms == s.p50_ms == s.p999_ms == 5.0
    assert s.sample_count == 100


def test_nearest_rank_oracle():
    samples = [i * 1_000_000 for i in range(1, 1001)]  # 1..1000 ms
    s = summarize_latencies(samples)
    assert s.p999_ms == 999.0  # ceil(0.999 * 1000) = 999th
    assert s.p50_ms == 500.0
    assert s.max_ms == 1000.0


def test_nearest_rank_small_samples():
    assert nearest_rank([10, 20, 30], 0.5) == 20
    assert nearest_rank([10, 20, 30], 0.999) == 30
    assert nearest_rank([10], 0.001) == 10


def test_no_samples_error():
    with pytest.raises(NoSamples):
        summarize_latencies([])


def test_summary_invariants_on_random_data():
    rng = random.Random(5)
    for _ in range(50):
        data = [rng.randrange(1, 10_000_000) for _ in range(rng.randrange(1, 300))]
        s = summarize_latencies(data)
        assert s.p50_ms <= s.p999_ms <= s.max_ms
        assert s.mean_ms <= s.max_ms


def test_adding_high_sample_never_lowers_percentiles():
    rng = random.Random(6)
    for _ in range(30):
        data = [rng.randrange(1, 1_000_000) for _ in range(rng.randrange(2, 100))]
        before = summarize_latencies(data)
        after = summarize_latencies(data + [max(data)])
        assert after.p50_ms >= before.p50_ms
        assert after.p999_ms >= before.p999_ms
        assert after.max_ms >= before.max_ms


# --------------------------------------------------------------------------
# synthetic engines
# --------------------------------------------------------------------------

class SyntheticDriver:
    """A context factory whose contexts fabricate deliveries with a
    controlled latency; optionally slow only during the warmup window (with
    a safety margin so boundary drift cannot leak slow samples into the
    measured window)."""

    name = "synthetic"

    def __init__(self, latency_ns=5_000_000, warmup_latency_ns=None, fabricate=1):
        self.latency_ns = latency_ns
        self.warmup_latency_ns = warmup_latency_ns
        self.fabricate = fabricate

    def __call__(self, spec):
        outer = self

        class Ctx:
            def __init__(self):
                t0 = time.monotonic_ns()
                self.slow_until = t0 + int(spec.warmup_s * 1e9) - 50_000_000
                self.produced = 0

            def next_lane(self, worker):
                return None, None

            def publish_batch(self, worker, lane, batch):
                self.produced += len(batch)
                time.sleep(0.001)

            def poll(self, worker):
                time.sleep(0.001)
                now = time.monotonic_ns()  # just before return: the caller
                lat = outer.latency_ns     # timestamps deliveries immediately
                if outer.warmup_latency_ns is not None and now < self.slow_until:
                    lat = outer.warmup_latency_ns
                return [(now - lat, spec.record_size_bytes)] * outer.fabricate

        return Ctx()


FAST_SPEC = WorkloadSpec(
    producers=1, consumers=1, record_size_bytes=100, duration_s=0.8, warmup_s=0.3
)


def latency(driver, spec=FAST_SPEC):
    """The latency summary of one sweep point."""
    (sample,) = run_throughput(driver, spec, ("record_size", [spec.record_size_bytes]))
    return sample.latency


def test_latency_of_a_fixed_synthetic_pipeline():
    # the driver fabricates a constant 5 ms pipeline; only the caller's
    # timestamping overhead (microseconds) separates the stats
    s = latency(SyntheticDriver())
    assert 4.99 <= s.p50_ms <= 5.5
    assert 4.99 <= s.mean_ms <= 6.0
    assert s.p999_ms <= 60.0  # no pollution anywhere near the slow band


def test_warmup_exclusion():
    clean = latency(SyntheticDriver())
    polluted = latency(SyntheticDriver(warmup_latency_ns=500_000_000))
    # artificially slow (500 ms) deliveries during warmup leave the measured
    # summary unchanged: nothing within an order of magnitude of them remains
    assert abs(polluted.p50_ms - clean.p50_ms) < 1.0
    assert polluted.max_ms < 100.0


def test_zero_post_warmup_samples():
    class DeadDriver(SyntheticDriver):
        def __call__(self, spec):
            ctx = super().__call__(spec)
            ctx.poll = lambda worker: []
            return ctx

    # a point that delivers nothing reports an empty summary, not an error
    (sample,) = run_throughput(DeadDriver(), FAST_SPEC, ("record_size", [100]))
    assert sample.latency == LatencySummary(0.0, 0.0, 0.0, 0.0, 0)
    assert sample.pps == 0.0


def test_reported_pps_clamped_to_produced_rate():
    # a driver that "delivers" far more than was produced must not report
    # more than produced/window
    driver = SyntheticDriver(fabricate=50)
    samples = run_throughput(driver, FAST_SPEC, ("record_size", [100]))
    (sample,) = samples
    window = FAST_SPEC.duration_s - FAST_SPEC.warmup_s
    max_honest = 1 / 0.001 * (FAST_SPEC.duration_s / window) * 11  # loose bound
    assert sample.pps <= max_honest


def test_sweep_param_validated():
    with pytest.raises(ValueError):
        run_throughput(SyntheticDriver(), FAST_SPEC, ("bogus", [1]))


def test_unknown_engine_name():
    from duolog.bench import EngineStartFailure

    with pytest.raises(EngineStartFailure):
        run_throughput("bogus", FAST_SPEC, ("record_size", [100]))


def test_workload_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(duration_s=5, warmup_s=10).resolved()
    with pytest.raises(ValueError):
        WorkloadSpec(record_size_bytes=0).resolved()


def test_profile_selects_duration_defaults():
    from duolog.bench import DEFAULT_DURATION_S, DEFAULT_WARMUP_S

    assert (DEFAULT_DURATION_S, DEFAULT_WARMUP_S) == (10.0, 5.0)
    spec = WorkloadSpec().resolved()
    assert (spec.duration_s, spec.warmup_s) == (10.0, 5.0)
    spec = WorkloadSpec(duration_s=3, warmup_s=1).resolved()
    assert (spec.duration_s, spec.warmup_s) == (3, 1)


# --------------------------------------------------------------------------
# real engines, tiny windows
# --------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["log", "exch"])
def test_engines_move_messages_under_load(engine):
    spec = WorkloadSpec(
        producers=2, consumers=2, record_size_bytes=64,
        duration_s=0.8, warmup_s=0.2, partitions=2,
    )
    samples = run_throughput(engine, spec, ("record_size", [64]))
    (sample,) = samples
    assert sample.engine == engine
    assert sample.pps > 100, sample
    assert sample.latency.sample_count > 50
    # fixed-size workload: bytes track packets
    assert abs(sample.bps - sample.pps * 64) / (sample.pps * 64) < 0.01


@pytest.mark.parametrize("engine, key", [("log", None), ("exch", "k0")])
def test_messages_carry_their_lanes_routing_key_as_built(engine, key):
    from duolog.bench import ENGINES
    from duolog.core import Message

    ctx = ENGINES[engine](WorkloadSpec(duration_s=1.0, warmup_s=0.2).resolved())
    lane, got = ctx.next_lane(0)
    assert got == key
    ctx.publish_batch(0, lane, [Message("p0", 0, payload=b"ab", routing_key=key, produced_at=5)])
    assert ctx.poll(0) + ctx.poll(1) == [(5, 2)]


def test_config_snapshot_keys():
    snap = WorkloadSpec(messages_per_producer=3).config_snapshot()
    assert list(snap) == [
        "producers", "consumers", "record_size_bytes", "topics", "partitions",
        "replication_factor", "delivery", "ack_mode", "duration_s", "warmup_s", "seed",
    ]
    assert snap["delivery"] == "at_most_once"


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------

def sample_results():
    spec = WorkloadSpec(duration_s=1.0, warmup_s=0.2)
    lat = LatencySummary(1.0, 2.0, 1.0, 2.0, 10)
    from duolog.bench import ThroughputSample

    return [
        ThroughputSample("log", "record_size", v, 1000.0 * v, 100.0, lat,
                         spec.config_snapshot(), 7)
        for v in (1, 2, 3)
    ]


def test_export_csv(tmp_path):
    path = tmp_path / "results.csv"
    export(sample_results(), path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == list(EXPORT_COLUMNS)
    assert len(rows) == 4  # header + 3 data rows


def test_export_empty_refuses_and_creates_nothing(tmp_path):
    path = tmp_path / "results.csv"
    with pytest.raises(ValueError):
        export([], path)
    assert not path.exists()
