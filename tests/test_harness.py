"""Scenario runner: determinism, fault semantics, verdicts and phase
timelines.  The full 1000-scenario sweeps live in the acceptance suite;
these are targeted probes."""

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from duolog import harness
from duolog.core import CorrectnessReport, Delivery, Message, Ordering, QoSConfig
from duolog.harness import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    NondeterminismDetected,
    Phase,
    Scenario,
    ScenarioInvalid,
    Verdict,
    Workload,
    random_scenario,
    replay,
    run_scenario,
    verdict,
)


def scenario(engine, delivery, faults=(), ordering=Ordering.NONE, seed=7, **topo):
    if engine == "log":
        topology = {"partitions": 2, "ack_mode": "1", "flush_messages": 1}
        qos = QoSConfig(delivery=delivery, ordering=ordering, replication_factor=1)
    else:
        topology = {"durable": delivery is Delivery.AT_LEAST_ONCE}
        qos = QoSConfig(delivery=delivery, ordering=ordering)
    topology.update(topo)
    return Scenario(
        engine=engine,
        workload=Workload(producers=2, consumers=2, record_size_bytes=16,
                          messages_per_producer=8),
        qos=qos,
        topology=topology,
        faults=FaultPlan(events=tuple(faults)),
        seed=seed,
    )


# --------------------------------------------------------------------------
# verdicts
# --------------------------------------------------------------------------

def report(no_loss=True, no_dup=True, no_dis=True):
    return CorrectnessReport(no_loss, no_dup, no_dis, ())


def test_verdict_at_least_once_requires_no_loss():
    qos = QoSConfig(delivery=Delivery.AT_LEAST_ONCE)
    assert verdict(report(no_loss=False), qos) == Verdict(False, "loss")
    assert verdict(report(no_dup=False), qos).passed  # duplicates tolerated


def test_verdict_at_most_once_tolerates_loss():
    qos = QoSConfig(delivery=Delivery.AT_MOST_ONCE)
    assert verdict(report(no_loss=False), qos).passed
    assert verdict(report(no_dup=False), qos) == Verdict(False, "duplication")


def test_verdict_ordering_checked_iff_requested():
    ordered = QoSConfig(delivery=Delivery.AT_LEAST_ONCE, ordering=Ordering.PER_PARTITION)
    unordered = QoSConfig(delivery=Delivery.AT_LEAST_ONCE, ordering=Ordering.NONE)
    assert verdict(report(no_dis=False), ordered) == Verdict(False, "disorder")
    assert verdict(report(no_dis=False), unordered).passed


# --------------------------------------------------------------------------
# fault-free runs
# --------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["log", "exch"])
@pytest.mark.parametrize("delivery", [Delivery.AT_MOST_ONCE, Delivery.AT_LEAST_ONCE])
def test_fault_free_runs_satisfy_all_primitives(engine, delivery):
    res = run_scenario(scenario(engine, delivery))
    assert res.report.no_loss and res.report.no_duplication and res.report.no_disorder
    # everything produced was confirmed and delivered exactly once
    assert len([e for e in res.produced if e.event.value == "Produced"]) == 16
    assert len([e for e in res.consumed if e.event.value == "Delivered"]) == 16


# --------------------------------------------------------------------------
# fault semantics
# --------------------------------------------------------------------------

def test_at_most_once_crash_may_lose_never_duplicates():
    faults = [FaultEvent(FaultKind.CRASH_NODE, on="produce", index=5, down_ms=10)]
    s = scenario("log", Delivery.AT_MOST_ONCE, faults, flush_messages=1000, ack_mode="0")
    res = run_scenario(s)
    assert res.report.no_duplication
    assert verdict(res.report, s.qos).passed


def test_at_least_once_drop_ack_duplicates_but_never_loses():
    faults = [FaultEvent(FaultKind.DROP_ACK, on="produce", index=3)]
    s = scenario("log", Delivery.AT_LEAST_ONCE, faults)
    res = run_scenario(s)
    assert res.report.no_loss
    assert not res.report.no_duplication  # the retransmit landed twice
    assert verdict(res.report, s.qos).passed


def test_exch_drop_ack_retransmit_is_absorbed_in_queue():
    # with the entry still queued, the keyed insert absorbs the retransmit:
    # no duplicate delivery, no loss
    faults = [FaultEvent(FaultKind.DROP_ACK, on="produce", index=3)]
    s = scenario("exch", Delivery.AT_LEAST_ONCE, faults, seed=11)
    res = run_scenario(s)
    assert res.report.no_loss
    assert verdict(res.report, s.qos).passed


def test_exch_duplicate_deliver_fault():
    faults = [FaultEvent(FaultKind.DUPLICATE_DELIVER, on="deliver", index=4)]
    s = scenario("exch", Delivery.AT_LEAST_ONCE, faults)
    res = run_scenario(s)
    assert not res.report.no_duplication
    assert res.report.no_loss
    assert verdict(res.report, s.qos).passed


def test_consumer_crash_at_least_once_redelivers():
    faults = [FaultEvent(FaultKind.CRASH_CONSUMER, on="deliver", index=5, target="c0", down_ms=8)]
    s = scenario("exch", Delivery.AT_LEAST_ONCE, faults)
    res = run_scenario(s)
    assert res.report.no_loss
    assert verdict(res.report, s.qos).passed


def test_node_crash_at_least_once_with_quorum_survives():
    faults = [FaultEvent(FaultKind.CRASH_NODE, on="produce", index=6, down_ms=15)]
    s = Scenario(
        engine="log",
        workload=Workload(producers=2, consumers=1, record_size_bytes=16,
                          messages_per_producer=10),
        qos=QoSConfig(delivery=Delivery.AT_LEAST_ONCE, replication_factor=3),
        topology={"partitions": 1, "ack_mode": "quorum", "flush_messages": 1000},
        faults=FaultPlan(events=tuple(faults)),
        seed=3,
    )
    res = run_scenario(s)
    assert res.report.no_loss
    assert verdict(res.report, s.qos).passed


@pytest.mark.parametrize("engine, producers, messages", [("log", 1, 6), ("exch", 2, 12)])
def test_node_crash_on_a_delivery_keeps_the_run_going(engine, producers, messages):
    # the log's only replica goes down before the member commits; the
    # exchange's home node goes down and voids the tags in hand
    s = Scenario.from_dict({
        "engine": engine, "seed": 0,
        "workload": {"producers": producers, "messages_per_producer": messages},
        "faults": [{"kind": "crash_node", "on": "deliver", "index": 1}],
    })
    res = run_scenario(s)
    assert res.report.no_loss
    assert verdict(res.report, s.qos).passed


def test_per_partition_ordering_with_faults_stays_ordered():
    faults = [
        FaultEvent(FaultKind.DROP_ACK, on="produce", index=4),
        FaultEvent(FaultKind.CRASH_CONSUMER, on="deliver", index=6, down_ms=6),
    ]
    s = scenario("log", Delivery.AT_LEAST_ONCE, faults, ordering=Ordering.PER_PARTITION)
    res = run_scenario(s)
    assert res.report.no_disorder
    assert res.report.no_loss


def test_per_channel_ordering_exchange():
    faults = [FaultEvent(FaultKind.DROP_ACK, on="produce", index=5)]
    s = scenario("exch", Delivery.AT_LEAST_ONCE, faults, ordering=Ordering.PER_CHANNEL)
    res = run_scenario(s)
    assert res.report.no_disorder and res.report.no_loss


# --------------------------------------------------------------------------
# phases
# --------------------------------------------------------------------------

def phase_times(res):
    out = {}
    for ev in res.phases:
        out.setdefault((ev.flow, ev.seq), {})[ev.phase] = ev.at_ns
    return out


@pytest.mark.parametrize("engine", ["log", "exch"])
def test_phase_monotonicity(engine):
    res = run_scenario(scenario(engine, Delivery.AT_LEAST_ONCE))
    for phases in phase_times(res).values():
        ordered = sorted(phases.items(), key=lambda kv: kv[0].value)
        times = [t for _, t in ordered]
        assert times == sorted(times)


def test_log_t5_never_appears_from_consumer_acks():
    res = run_scenario(scenario("log", Delivery.AT_LEAST_ONCE))
    assert not any(p.phase is Phase.T5_ACKED_OR_RETAINED for p in res.phases)
    assert not any(e.event.value == "Acked" for e in res.consumed)


def test_exch_t5_and_empty_broker_after_drain():
    s = scenario("exch", Delivery.AT_LEAST_ONCE)
    run = __import__("duolog.harness", fromlist=["_Run"])
    res = run_scenario(s)
    delivered = {(e.flow, e.seq) for e in res.consumed if e.event.value == "Delivered"}
    acked = {(e.flow, e.seq) for e in res.consumed if e.event.value == "Acked"}
    assert delivered == acked  # every delivery was settled


# --------------------------------------------------------------------------
# determinism / replay
# --------------------------------------------------------------------------

def test_replay_is_byte_identical():
    s = scenario("log", Delivery.AT_LEAST_ONCE,
                 [FaultEvent(FaultKind.DROP_ACK, on="produce", index=2)])
    res = replay(s)
    assert res.report.no_loss


def test_different_seed_may_differ():
    a = run_scenario(scenario("exch", Delivery.AT_LEAST_ONCE, seed=1))
    b = run_scenario(scenario("exch", Delivery.AT_LEAST_ONCE, seed=2))
    assert a.journals_blob() != b.journals_blob()


def test_wall_clock_dependence_detected(monkeypatch):
    at = harness._Run.at

    def skewed_at(self, delay_ns, fn, *args):
        at(self, delay_ns + time.perf_counter_ns() % 1000, fn, *args)

    monkeypatch.setattr(harness._Run, "at", skewed_at)
    s = scenario("exch", Delivery.AT_LEAST_ONCE)
    with pytest.raises(NondeterminismDetected):
        replay(s)


# sha256 over the concatenated journals of random_scenario(engine, 0..999);
# a refactor of the harness or the engines must leave these untouched
REPLAY_DIGESTS = {
    "log": "3708ea64a07bdc06ff06827b1bf68400280a43cd194ea158b3e97015d59405b2",
    "exch": "3cd0fb2ca9a4e0ed8d13cdeb2771c79a058d947de24338b6499a5c726c50583e",
}


@pytest.mark.parametrize("engine", ["log", "exch"])
def test_replay_digest_over_seeds_0_to_999_is_pinned(engine):
    h = hashlib.sha256()
    for seed in range(1000):
        h.update(run_scenario(random_scenario(engine, seed)).journals_blob().encode())
    assert h.hexdigest() == REPLAY_DIGESTS[engine]


# sha256 over every phase record of random_scenario(engine, 0..999); the
# journal digest above does not cover the phase timeline, so a change to
# the phase dedup or its timestamps would otherwise go unnoticed
PHASE_DIGESTS = {
    "log": "b2f885c27c523501ee89e96eb7712de2b2ca7b963a5b955f274308660be64935",
    "exch": "a44716e13d51b83dd0010831aaba08a61b15bf91118443195d16d0afa1d8a09e",
}


@pytest.mark.parametrize("engine", ["log", "exch"])
def test_phase_timeline_digest_over_seeds_0_to_999_is_pinned(engine):
    h = hashlib.sha256()
    for seed in range(1000):
        for p in run_scenario(random_scenario(engine, seed)).phases:
            h.update(f"{p.phase.value},{p.flow},{p.seq},{p.at_ns}\n".encode())
    assert h.hexdigest() == PHASE_DIGESTS[engine]


# --------------------------------------------------------------------------
# a finished scenario is freed by reference counting
# --------------------------------------------------------------------------

@contextlib.contextmanager
def no_cyclic_garbage():
    """Run the body with the cyclic collector off, then demand that it
    finds nothing: everything the body dropped was freed by reference
    counting."""
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ["log", "exch"])
def test_finished_scenarios_leave_no_cyclic_garbage(engine):
    with no_cyclic_garbage():
        for seed in range(100):
            s = random_scenario(engine, seed)
            result = run_scenario(s)
            verdict(result.report, s.qos)
            result.journals_blob()
        del result


@pytest.mark.parametrize("engine", ["log", "exch"])
def test_a_run_that_raises_leaves_no_cyclic_garbage(engine, monkeypatch):
    adapter = harness._LogScenario if engine == "log" else harness._ExchScenario
    send, calls = adapter.send, []

    def failing_send(self, batch):
        calls.append(batch)
        if len(calls) == 3:  # mid-run, with producer and consumer events queued
            raise RuntimeError("engine fault")
        return send(self, batch)

    monkeypatch.setattr(adapter, "send", failing_send)
    s = random_scenario(engine, 1)
    with no_cyclic_garbage(), pytest.raises(RuntimeError, match="engine fault"):
        run_scenario(s)


@pytest.mark.parametrize("engine, topology", [
    ("log", {"partitons": 3}),
    ("exch", {"mirrors": ["n9"]}),  # a mirror that is no node of the engine
])
def test_a_refused_topology_leaves_no_cyclic_garbage(engine, topology):
    s = Scenario.from_dict({"engine": engine, "topology": topology})
    with no_cyclic_garbage(), pytest.raises(ScenarioInvalid):
        run_scenario(s)


# --------------------------------------------------------------------------
# the run's bookkeeping against the code it replaced
# --------------------------------------------------------------------------

def reference_due(events, fired, on, counter, kind=None):
    """The plan-order scan that `_Run.due` replaced: every event on
    trigger `on` not in `fired`, of kind `kind` if given, whose index the
    counter has reached, marked fired."""
    out = []
    for i, ev in enumerate(events):
        if i in fired or ev.on != on:
            continue
        if kind is not None and ev.kind is not kind:
            continue
        if counter >= ev.index:
            fired.add(i)
            out.append(ev)
    return out


def random_plan(rng):
    events = []
    for _ in range(rng.randint(0, 7)):
        on = rng.choice(["produce", "deliver", "time"])
        kind = rng.choice(sorted(harness._TRIGGERED_KINDS[on], key=lambda k: k.value))
        events.append(FaultEvent(kind, on=on, index=rng.randint(0, 9),
                                 at_ms=rng.randint(0, 9) if on == "time" else None))
    return tuple(events)


@pytest.mark.parametrize("seed", range(8))
def test_due_equals_the_plan_order_scan_over_random_fault_plans(seed):
    rng = random.Random(seed)
    kinds = [None, *FaultKind]
    for _ in range(60):
        events = random_plan(rng)
        run = harness._Run(Scenario(
            engine="log", workload=Workload(), qos=QoSConfig(delivery=Delivery.AT_LEAST_ONCE),
            faults=FaultPlan(events),
        ))
        run.schedule_time_faults(lambda ev: None)
        fired = set(run._fired)
        counters = {"produce": 0, "deliver": 0, "time": 0}
        for _ in range(40):
            on = rng.choice(list(counters))
            # a counter repeats, steps, skips ahead or is drawn anew
            counters[on] = rng.choice([counters[on], counters[on] + 1, counters[on] + 3,
                                       rng.randint(0, 10)])
            kind = rng.choice(kinds)
            got = run.due(on, counters[on], kind)
            assert list(got) == reference_due(events, fired, on, counters[on], kind), events
            assert run._fired == fired


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_the_inline_jitter_draw_equals_randbelow(seed):
    run = harness._Run(Scenario(engine="exch", workload=Workload(), qos=QoSConfig(), seed=seed))
    for _ in range(10_000):
        run.at(0, None)
    jitters = [t - run.clock.t for t, _, _, _ in sorted(run.heap, key=lambda entry: entry[1])]
    reference = random.Random(seed)
    assert jitters == [reference._randbelow(harness.JITTER_NS) for _ in range(10_000)]


class FiveSetPhases:
    """The phase dedup that the per-message mask replaced: one set of
    (flow, seq) pairs per phase."""

    def __init__(self):
        self.seen = {p: set() for p in Phase}
        self.phases = []

    def phase(self, phase, flow, seq, at_ns):
        if (flow, seq) not in self.seen[phase]:
            self.seen[phase].add((flow, seq))
            self.phases.append((phase, flow, seq, at_ns))


def test_phase_dedupe_equals_one_set_per_phase():
    run = harness._Run(Scenario(engine="log", workload=Workload(), qos=QoSConfig()))
    ref, confirmed = FiveSetPhases(), set()
    rng = random.Random(5)
    for _ in range(600):
        run.clock.t += rng.choice([0, 0, 1, 50])
        flow, seq, t = rng.choice(["f0", "f1"]), rng.randrange(4), run.clock.t
        step = rng.choice(["produced", "handled", "handled and confirmed", "confirmed",
                           "delivered", "acked"])
        if step == "produced":
            run.record_produced(Message(flow, seq))
            ref.phase(Phase.T1_PRODUCED, flow, seq, t)
        elif step.startswith("handled"):
            confirms = step.endswith("confirmed")
            # what `_Producer.attempt` records for each message of a batch
            run.record_phases(flow, seq, harness._T2 | harness._T3 if confirms else harness._T2)
            ref.phase(Phase.T2_HANDLED, flow, seq, t)
            if confirms:
                ref.phase(Phase.T3_CONFIRMED, flow, seq, t)
        elif step == "confirmed":
            run.record_confirmed(Message(flow, seq))
            if (flow, seq) not in confirmed:
                confirmed.add((flow, seq))
                ref.phase(Phase.T3_CONFIRMED, flow, seq, t)
        elif step == "delivered":
            run.record_delivered(flow, seq)
            for phase in (Phase.T2_HANDLED, Phase.T3_CONFIRMED, Phase.T4_DELIVERED):
                ref.phase(phase, flow, seq, t)
        else:
            run.record_acked(flow, seq)
            ref.phase(Phase.T5_ACKED_OR_RETAINED, flow, seq, t)
    assert run.phases == ref.phases
    assert {p.phase for p in run.phases} == set(Phase)
    assert all(type(p) is harness.PhaseEvent for p in run.phases)


def test_scenario_serialization_round_trip():
    s = scenario("log", Delivery.AT_LEAST_ONCE,
                 [FaultEvent(FaultKind.DELAY_ACK, on="produce", index=2, delay_ms=6)])
    again = Scenario.from_dict(s.to_dict())
    assert run_scenario(again).journals_blob() == run_scenario(s).journals_blob()


@pytest.mark.parametrize("engine", ["log", "exch"])
def test_scenario_file_round_trip_is_exact(engine):
    for seed in range(200):
        s = random_scenario(engine, seed)
        assert Scenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s, seed


def test_scenario_file_defaults_are_the_dataclasses():
    s = Scenario.from_dict({"engine": "exch"})
    assert s == Scenario(engine="exch", workload=Workload(), qos=QoSConfig())
    # the log's ack_mode is a topology key, and one under qos is unknown
    s = Scenario.from_dict({"engine": "log", "topology": {"ack_mode": "quorum"}})
    assert s.topology == {"ack_mode": "quorum"} and s.qos == QoSConfig()
    with pytest.raises(ScenarioInvalid, match="qos: unknown key 'ack_mode'"):
        Scenario.from_dict({"engine": "log", "qos": {"ack_mode": "quorum"}})


@pytest.mark.parametrize("bad", [
    {"drain_deadline": 10},
    {"workload": {"producer": 3}},
    {"qos": {"ordring": "per_channel"}},
    {"faults": [{"kind": "drop_ack", "indx": 2}]},
], ids=["top", "workload", "qos", "fault"])
def test_scenario_file_rejects_unknown_keys(bad):
    with pytest.raises(ScenarioInvalid):
        Scenario.from_dict({"engine": "exch", **bad})


@pytest.mark.parametrize("value", ["2", 2.0, True, None, [2]])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Workload)])
def test_scenario_file_rejects_a_workload_value_of_the_wrong_type(name, value):
    with pytest.raises(ScenarioInvalid, match=f"workload: {name} must be an integer"):
        Scenario.from_dict({"engine": "exch", "workload": {name: value}})
    assert getattr(Scenario.from_dict({"engine": "exch", "workload": {name: 2}}).workload,
                   name) == 2


@pytest.mark.parametrize("bad, named", [
    ({"seed": "1"}, "scenario: seed"),
    ({"drain_deadline_ms": 9.5}, "scenario: drain_deadline_ms"),
    ({"qos": {"replication_factor": "2"}}, "qos: replication_factor"),
    ({"faults": [{"kind": "drop_ack", "index": "2"}]}, "fault: index"),
    ({"faults": [{"kind": "drop_ack", "on": "time", "at_ms": "5"}]}, "fault: at_ms"),
])
def test_scenario_file_rejects_other_integers_of_the_wrong_type(bad, named):
    with pytest.raises(ScenarioInvalid, match=f"{named} must be an integer"):
        Scenario.from_dict({"engine": "log", **bad})
    # an optional integer may be null
    fault = {"kind": "drop_ack", "on": "time", "at_ms": None}
    assert Scenario.from_dict({"engine": "log", "faults": [fault]}).faults.events[0].at_ms is None


def test_unknown_log_ack_mode_is_invalid():
    s = Scenario.from_dict({"engine": "log", "topology": {"ack_mode": "all"}})
    with pytest.raises(ScenarioInvalid, match="quorum"):
        run_scenario(s)


def test_harness_does_not_import_bench():
    code = "import sys, duolog.harness; print('duolog.bench' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_scenario_validation():
    s = Scenario(engine="bogus", workload=Workload(messages_per_producer=3),
                 qos=QoSConfig())
    with pytest.raises(ScenarioInvalid):
        run_scenario(s)


AT_MOST_ONCE = {"delivery": "at_most_once"}


@pytest.mark.parametrize("engine, fault, qos", [
    ("log", {"kind": "drop_ack", "on": "deliver"}, {}),
    ("exch", {"kind": "delay_ack", "on": "deliver"}, {}),
    ("log", {"kind": "drop_ack", "on": "time", "at_ms": 1}, {}),
    ("exch", {"kind": "delay_ack", "on": "time", "at_ms": 1}, {}),
    ("log", {"kind": "duplicate_deliver", "on": "produce"}, {}),
    ("exch", {"kind": "crash_consumer", "on": "produce"}, {}),
    ("exch", {"kind": "duplicate_deliver", "on": "time", "at_ms": 1}, {}),
    ("log", {"kind": "crash_node", "on": "time"}, {}),
    # at most once, neither engine makes a second copy of a delivery
    ("log", {"kind": "duplicate_deliver", "on": "deliver", "index": 2}, AT_MOST_ONCE),
    ("exch", {"kind": "duplicate_deliver", "on": "deliver", "index": 2}, AT_MOST_ONCE),
    ("log", {"kind": "duplicate_deliver", "on": "time", "at_ms": 1}, AT_MOST_ONCE),
])
def test_faults_that_never_fire_are_invalid(engine, fault, qos):
    s = Scenario.from_dict({"engine": engine, "faults": [fault], "qos": qos})
    with pytest.raises(ScenarioInvalid):
        run_scenario(s)


def test_every_fault_that_fires_is_valid():
    pairs = [("produce", k) for k in ("crash_node", "drop_ack", "delay_ack")]
    pairs += [(on, k) for on in ("deliver", "time")
              for k in ("crash_node", "crash_consumer", "duplicate_deliver")]
    for engine in ("log", "exch"):
        for on, kind in pairs:
            if (engine, on, kind) == ("exch", "time", "duplicate_deliver"):
                continue
            fault = {"kind": kind, "on": on, "index": 2, "at_ms": 1 if on == "time" else None}
            Scenario.from_dict({"engine": engine, "faults": [fault]}).validate()


def test_global_single_lane_validation():
    s = Scenario(
        engine="log",
        workload=Workload(messages_per_producer=3),
        qos=QoSConfig(ordering=Ordering.GLOBAL_SINGLE_LANE),
        topology={"partitions": 2},
    )
    with pytest.raises(ScenarioInvalid):
        run_scenario(s)


# --------------------------------------------------------------------------
# randomized sweep (small here; the acceptance suite runs >= 1000 per engine)
# --------------------------------------------------------------------------

# log seeds whose rf=2 replica crash once hid quorum-confirmed offsets
# behind a high watermark that went backwards
HW_REGRESSION_SEEDS = (2994, 5301, 9152, 9643, 12521, 14754, 1001635)


@pytest.mark.parametrize("engine", ["log", "exch"])
def test_randomized_scenarios_keep_their_promises(engine):
    for seed in [*range(60), *HW_REGRESSION_SEEDS]:
        s = random_scenario(engine, seed)
        res = run_scenario(s)
        v = verdict(res.report, s.qos)
        assert v.passed, (seed, s.qos.delivery, v.reason, res.report.violations[:3])


def test_fault_free_at_least_once_never_loses_over_1000_workloads():
    import dataclasses

    from duolog.harness import FaultPlan

    count = 0
    for engine in ("log", "exch"):
        for seed in range(1000, 1500):
            s = random_scenario(engine, seed)
            s = dataclasses.replace(
                s,
                faults=FaultPlan(),
                qos=dataclasses.replace(s.qos, delivery=Delivery.AT_LEAST_ONCE),
            )
            # flipping the delivery mode must also flip the topology to an
            # at-least-once deployment: no lossy bounds, confirms imply
            # durability (the generator pairs these itself)
            if s.engine == "log" and s.topology.get("ack_mode") == "0":
                s = dataclasses.replace(
                    s, topology=dict(s.topology, ack_mode="1", flush_messages=1)
                )
            if s.engine == "exch":
                topo = dict(s.topology, durable=True)
                topo.pop("max_length", None)
                s = dataclasses.replace(s, topology=topo)
            res = run_scenario(s)
            assert res.report.no_loss, (engine, seed, res.report.violations[:2])
            count += 1
    assert count == 1000
