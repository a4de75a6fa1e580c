"""Core types and the correctness checker, including the exhaustive
brute-force equivalence check for small journals."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import pickle
import re
from typing import Optional

import pytest

from duolog.core import (
    CorrectnessReport,
    Delivery,
    EmptyRoutingSegment,
    FlushPolicy,
    Journal,
    JournalEntry,
    JournalEvent,
    Message,
    MismatchedFlows,
    NegativeTtl,
    Ordering,
    QoSConfig,
    ScenarioInvalid,
    Violation,
    ViolationKind,
    check_correctness,
    check_keys,
    from_keys,
    validate_message,
)
from duolog.harness import Phase, PhaseEvent, random_scenario, run_scenario

P, C, D = JournalEvent.PRODUCED, JournalEvent.CONFIRMED, JournalEvent.DELIVERED

QOS_ORDERED = QoSConfig(ordering=Ordering.PER_PARTITION)
QOS_UNORDERED = QoSConfig(ordering=Ordering.NONE)


def jr(events):
    """Build a journal from (flow, seq, event) triples with increasing time."""
    j = Journal()
    for t, (flow, seq, ev) in enumerate(events):
        j.append(flow, seq, ev, t)
    return j


def pair(produced_events, delivered_seqs, flow="f"):
    produced = jr([(flow, s, ev) for s, ev in produced_events])
    consumed = jr([(flow, s, D) for s in delivered_seqs])
    return produced, consumed


# --------------------------------------------------------------------------
# message validation
# --------------------------------------------------------------------------

def test_validate_wellformed_routing_key():
    validate_message(Message("f", 0, routing_key="a.b.c"))


def test_validate_empty_routing_segment():
    for key in ("a..c", "", ".a", "a.", "."):
        with pytest.raises(EmptyRoutingSegment):
            validate_message(Message("f", 0, routing_key=key))


def test_validate_negative_ttl():
    with pytest.raises(NegativeTtl):
        validate_message(Message("f", 0, ttl_ms=-5))


def test_validate_errors_name_their_field():
    try:
        validate_message(Message("f", 0, routing_key="a..c"))
    except EmptyRoutingSegment as e:
        assert e.field_name == "routing_key"


def test_message_defaults_and_field_order():
    m = Message("f", 3)
    assert [f.name for f in dataclasses.fields(Message)] == [
        "flow_id", "seq_no", "payload", "key", "routing_key", "headers", "produced_at", "ttl_ms",
    ]
    assert (m.payload, m.key, m.routing_key, m.headers, m.produced_at, m.ttl_ms) == (
        b"", None, None, {}, 0, None,
    )
    positional = Message("f", 3, b"p", b"k", "a.b", {"h": 1}, 9, 100)
    keywords = Message(
        flow_id="f", seq_no=3, payload=b"p", key=b"k", routing_key="a.b",
        headers={"h": 1}, produced_at=9, ttl_ms=100,
    )
    assert positional == keywords
    assert positional != dataclasses.replace(keywords, ttl_ms=101)


def test_message_omitted_headers_are_a_fresh_dict_and_explicit_none_stays():
    a, b = Message("f", 0), Message("f", 1)
    assert a.headers == {} and a.headers is not b.headers
    a.headers["x"] = 1
    assert b.headers == {} and Message("f", 2).headers == {}
    assert Message("f", 0, headers=None).headers is None
    shared = {"h": "v"}
    assert Message("f", 0, headers=shared).headers is shared


def test_message_repr_replace_and_frozen():
    m = Message("f", 1, payload=b"x", routing_key="k", produced_at=5)
    assert repr(m) == (
        "Message(flow_id='f', seq_no=1, payload=b'x', key=None, routing_key='k', "
        "headers={}, produced_at=5, ttl_ms=None)"
    )
    r = dataclasses.replace(m, seq_no=2, key=b"k")
    assert (r.flow_id, r.seq_no, r.payload, r.key, r.routing_key, r.produced_at) == (
        "f", 2, b"x", b"k", "k", 5,
    )
    assert r.headers == m.headers
    assert dataclasses.replace(m) == m
    for name in ("seq_no", "headers", "ttl_ms"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(m, name)
    # a name that is not a field has no slot, and is frozen all the same
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.unknown = 9
    with pytest.raises(dataclasses.FrozenInstanceError):
        del m.unknown
    assert m == Message("f", 1, payload=b"x", routing_key="k", produced_at=5)
    with pytest.raises(TypeError, match="seq_no"):
        Message("f")
    with pytest.raises(TypeError, match="bogus"):
        Message("f", 1, bogus=2)
    with pytest.raises(TypeError):
        Message("f", 1, b"", None, None, {}, 0, None, "extra")
    with pytest.raises(TypeError, match="flow_id"):
        Message("f", 1, flow_id="g")


def test_message_is_slotted_and_copies_like_the_generated_dataclass():
    m = Message("f", 1, b"x", b"k", "a.b", {"h": [1, 2]}, 5, 100)
    assert not hasattr(m, "__dict__")
    assert Message.__slots__ == tuple(f.name for f in dataclasses.fields(Message))
    for clone in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert clone == m and type(clone) is Message
    assert copy.deepcopy(m).headers is not m.headers
    assert copy.copy(m).headers is m.headers
    r = dataclasses.replace(m, headers=None, ttl_ms=None)
    assert (r.headers, r.ttl_ms, r.payload) == (None, None, b"x")
    assert hash(r) == hash(dataclasses.replace(r))
    with pytest.raises(TypeError):
        hash(m)  # a dict of headers is unhashable, as with the generated __hash__


def test_flush_policy_needs_one_bound():
    with pytest.raises(ValueError):
        FlushPolicy(flush_interval_messages=None, flush_interval_ms=None)


# --------------------------------------------------------------------------
# journal mechanics
# --------------------------------------------------------------------------

def test_journal_jsonl_round_trip():
    j = jr([("f", 0, P), ("f", 0, C), ("f", 0, D)])
    text = j.to_jsonl()
    assert text.splitlines()[0] == '{"flow":"f","seq":0,"event":"Produced","at_ns":0}'
    assert Journal.from_jsonl(text) == j


def test_journal_rejects_time_regression_per_flow():
    j = Journal()
    j.append("f", 0, P, 10)
    with pytest.raises(ValueError):
        j.append("f", 1, P, 5)
    j.append("g", 0, P, 0)  # other flows are independent



def reference_jsonl(journal):
    """The one-`json.dumps`-per-line serialization `to_jsonl` must match."""
    lines = [
        json.dumps(
            {"flow": e.flow, "seq": e.seq, "event": e.event.value, "at_ns": e.at_ns},
            separators=(",", ":"),
        )
        for e in journal.entries
    ]
    return "\n".join(lines) + ("\n" if lines else "")


AWKWARD_FLOWS = ["f", 'q"uote', "back\\slash", "new\nline", "ctl\x01\x1f", "caf\u00e9-\u6d41-\U0001f600", "\u2028"]


def test_to_jsonl_equals_the_json_dumps_reference():
    assert Journal().to_jsonl() == "" == reference_jsonl(Journal())
    j = Journal()
    for i, (flow, event) in enumerate(itertools.product(AWKWARD_FLOWS, JournalEvent)):
        j.append(flow, i, event, 0 if i < len(JournalEvent) else i * 10**15)
    j.append("big", 2**63 - 1, JournalEvent.ACKED, 2**64 + 7)
    text = j.to_jsonl()
    assert text == reference_jsonl(j)
    assert Journal.from_jsonl(text) == j
    assert [json.loads(line)["flow"] for line in text.splitlines()[:4]] == ["f"] * 4


def test_journal_entries_are_named_tuples_and_a_snapshot():
    j = Journal()
    j.append("f", 0, P, 10)
    snap = j.entries
    e = snap[0]
    assert isinstance(snap, tuple)
    assert (e.flow, e.seq, e.event, e.at_ns) == ("f", 0, P, 10)
    assert e == JournalEntry(flow="f", seq=0, event=P, at_ns=10)
    assert JournalEntry._fields == ("flow", "seq", "event", "at_ns")
    j.append("f", 1, P, 11)
    assert len(snap) == 1 and len(j.entries) == 2
    with pytest.raises(ValueError):
        j.append("f", 2, P, 9)
    assert len(j) == 2  # a rejected append leaves no entry behind
    assert Journal.from_jsonl(j.to_jsonl()) == j


def test_phase_event_fields_by_name():
    p = PhaseEvent(Phase.T4_DELIVERED, "f", 3, 1234)
    assert (p.phase, p.flow, p.seq, p.at_ns) == (Phase.T4_DELIVERED, "f", 3, 1234)
    assert PhaseEvent._fields == ("phase", "flow", "seq", "at_ns")
    assert p == PhaseEvent(phase=Phase.T4_DELIVERED, flow="f", seq=3, at_ns=1234)


# --------------------------------------------------------------------------
# checker: spec examples
# --------------------------------------------------------------------------

def full_production(seqs, flow="f"):
    return [(s, P) for s in seqs] + [(s, C) for s in seqs]


def test_clean_run_all_true():
    produced, consumed = pair(full_production([0, 1, 2]), [0, 1, 2])
    rep = check_correctness(produced, consumed, QOS_ORDERED)
    assert (rep.no_loss, rep.no_duplication, rep.no_disorder) == (True, True, True)
    assert rep.violations == ()


def test_missing_delivery_is_loss_only():
    produced, consumed = pair(full_production([0, 1, 2]), [0, 2])
    rep = check_correctness(produced, consumed, QOS_ORDERED)
    assert not rep.no_loss
    assert rep.no_duplication and rep.no_disorder
    kinds = {v.kind for v in rep.violations}
    assert kinds == {ViolationKind.LOSS}


def test_duplicate_of_same_seq_is_not_disorder():
    produced, consumed = pair(full_production([0, 1, 2]), [0, 1, 1, 2])
    rep = check_correctness(produced, consumed, QOS_ORDERED)
    assert not rep.no_duplication
    assert rep.no_loss and rep.no_disorder


def test_disorder_on_first_delivery():
    produced, consumed = pair(full_production([0, 1, 2]), [0, 2, 1])
    rep = check_correctness(produced, consumed, QOS_ORDERED)
    assert not rep.no_disorder
    assert rep.no_loss and rep.no_duplication


def test_ordering_none_means_no_lanes():
    produced, consumed = pair(full_production([0, 1, 2]), [2, 1, 0])
    rep = check_correctness(produced, consumed, QOS_UNORDERED)
    assert rep.no_disorder


def test_unconfirmed_messages_carry_no_delivery_obligation():
    produced = jr([("f", 0, P), ("f", 1, P), ("f", 0, C)])
    consumed = jr([("f", 0, D)])
    rep = check_correctness(produced, consumed, QOS_ORDERED)
    assert rep.no_loss  # seq 1 was never confirmed


def test_mismatched_flows():
    produced, _ = pair(full_production([0]), [])
    consumed = jr([("ghost", 0, D)])
    with pytest.raises(MismatchedFlows):
        check_correctness(produced, consumed, QOS_ORDERED)


def test_total_loss_of_a_flow_is_loss_not_error():
    produced = jr([("f", 0, P), ("f", 0, C), ("g", 0, P), ("g", 0, C)])
    consumed = jr([("f", 0, D)])
    rep = check_correctness(produced, consumed, QOS_ORDERED)
    assert not rep.no_loss


def test_checker_is_pure():
    produced, consumed = pair(full_production([0, 1]), [1, 0, 0])
    r1 = check_correctness(produced, consumed, QOS_ORDERED)
    r2 = check_correctness(produced, consumed, QOS_ORDERED)
    assert r1 == r2


def test_report_flags_match_violation_kinds():
    produced, consumed = pair(full_production([0, 1]), [1, 1])
    rep = check_correctness(produced, consumed, QOS_ORDERED)
    kinds = {v.kind for v in rep.violations}
    assert rep.no_loss == (ViolationKind.LOSS not in kinds)
    assert rep.no_duplication == (ViolationKind.DUPLICATION not in kinds)
    assert rep.no_disorder == (ViolationKind.DISORDER not in kinds)


# --------------------------------------------------------------------------
# brute-force equivalence on all small journals
# --------------------------------------------------------------------------

def oracle(produced: Journal, consumed: Journal, qos: QoSConfig) -> tuple:
    """Exhaustive-definition checker, written independently of the
    implementation: set comprehensions straight from the definitions."""
    prod = [(e.flow, e.seq) for e in produced if e.event is P]
    conf = {(e.flow, e.seq) for e in produced if e.event is C}
    deliv = [(e.flow, e.seq) for e in consumed if e.event is D]

    obligations = set(prod) & conf
    no_loss = all(any(d == ob for d in deliv) for ob in obligations)
    no_dup = all(deliv.count(d) == 1 for d in set(deliv))

    no_disorder = True
    if qos.ordering is not Ordering.NONE:
        for flow in {f for f, _ in deliv}:
            firsts = []
            for f, s in deliv:
                if f == flow and s not in firsts:
                    firsts.append(s)
            if firsts != sorted(firsts):
                no_disorder = False
    return no_loss, no_dup, no_disorder


@pytest.mark.parametrize("qos", [QOS_ORDERED, QOS_UNORDERED])
def test_brute_force_equivalence_small_journals(qos):
    """Every journal of <= 6 events over one flow, seqs {0, 1} and the
    Produced/Confirmed/Delivered alphabet agrees with the oracle."""
    symbols = [(s, ev) for s in (0, 1) for ev in (P, C, D)]
    checked = 0
    for n in range(0, 7):
        for combo in itertools.product(symbols, repeat=n):
            produced = Journal()
            consumed = Journal()
            dup_production = False
            seen_p = set()
            for t, (seq, ev) in enumerate(combo):
                if ev is D:
                    consumed.append("f", seq, ev, t)
                else:
                    if ev is P:
                        if seq in seen_p:
                            dup_production = True
                            break
                        seen_p.add(seq)
                    produced.append("f", seq, ev, t)
            if dup_production:
                continue
            if not len(produced) and len(consumed):
                continue  # flows would mismatch by construction
            rep = check_correctness(produced, consumed, qos)
            assert (rep.no_loss, rep.no_duplication, rep.no_disorder) == oracle(
                produced, consumed, qos
            ), combo
            checked += 1
    assert checked > 10_000


# --------------------------------------------------------------------------
# the checker against the named-tuple checker it replaced
# --------------------------------------------------------------------------

def reference_check_correctness(produced: Journal, consumed: Journal, qos: QoSConfig):
    """The checker as it was before it read exact tuples: `JournalEntry`
    fields by name, a delivery count per key, and a seen set per flow."""
    produced_entries = produced.entries
    consumed_entries = consumed.entries

    produced_flows = {e.flow for e in produced_entries}
    stray = {e.flow for e in consumed_entries} - produced_flows
    if stray:
        raise MismatchedFlows(f"consumed journal has unknown flows: {sorted(stray)}")

    produced_set = set()
    confirmed = set()
    for e in produced_entries:
        if e.event is JournalEvent.PRODUCED:
            if (e.flow, e.seq) in produced_set:
                raise ValueError(
                    f"production journal must be duplicate-free, saw {(e.flow, e.seq)} twice"
                )
            produced_set.add((e.flow, e.seq))
        elif e.event is JournalEvent.CONFIRMED:
            confirmed.add((e.flow, e.seq))

    delivered_count = {}
    for e in consumed_entries:
        if e.event is JournalEvent.DELIVERED:
            delivered_count[(e.flow, e.seq)] = delivered_count.get((e.flow, e.seq), 0) + 1

    violations = []
    for flow, seq in sorted(produced_set & confirmed):
        if delivered_count.get((flow, seq), 0) == 0:
            violations.append(
                Violation(flow, seq, ViolationKind.LOSS, "confirmed but never delivered")
            )
    for (flow, seq), n in sorted(delivered_count.items()):
        if n > 1:
            violations.append(
                Violation(flow, seq, ViolationKind.DUPLICATION, f"delivered {n} times")
            )
    if qos.ordering is not Ordering.NONE:
        seen = {}
        max_first = {}
        for e in consumed_entries:
            if e.event is not JournalEvent.DELIVERED:
                continue
            flow_seen = seen.setdefault(e.flow, set())
            if e.seq in flow_seen:
                continue
            flow_seen.add(e.seq)
            prev = max_first.get(e.flow)
            if prev is not None and e.seq < prev:
                violations.append(
                    Violation(e.flow, e.seq, ViolationKind.DISORDER,
                              f"first delivery after seq {prev} was already seen")
                )
            else:
                max_first[e.flow] = e.seq
    return CorrectnessReport.from_violations(violations)


def outcome(checker, produced, consumed, qos):
    """A checker's report, or the type and text of what it raised."""
    try:
        return checker(produced, consumed, qos)
    except ValueError as e:  # MismatchedFlows is one
        return type(e), str(e)


@pytest.mark.parametrize("engine", ["log", "exch"])
def test_checker_reports_equal_the_reference_on_random_scenarios(engine):
    violated = 0
    for seed in range(200):
        s = random_scenario(engine, seed)
        res = run_scenario(s)
        for qos in (s.qos, QOS_UNORDERED):
            got = check_correctness(res.produced, res.consumed, qos)
            assert got == reference_check_correctness(res.produced, res.consumed, qos), seed
            violated += bool(got.violations)
    assert violated  # the seeds reach reports with violations, not only clean ones


HAND_BUILT = {
    # every kind at once over two flows, deliveries of each flow interleaved
    "every kind": (
        [("a", s, ev) for s in range(4) for ev in (P, C)] + [("b", s, ev) for s in range(3) for ev in (P, C)],
        [("a", 0, D), ("b", 1, D), ("a", 2, D), ("b", 0, D), ("a", 1, D), ("a", 2, D),
         ("b", 1, D), ("a", 0, D), ("b", 1, D)],
    ),
    "loss only": ([("f", s, ev) for s in range(5) for ev in (P, C)], [("f", s, D) for s in (0, 2, 4)]),
    "duplication only": ([("f", s, ev) for s in range(2) for ev in (P, C)],
                         [("f", 0, D), ("f", 0, D), ("f", 1, D), ("f", 1, D), ("f", 1, D)]),
    "disorder only": ([("f", s, ev) for s in range(3) for ev in (P, C)],
                      [("f", 2, D), ("f", 0, D), ("f", 1, D)]),
    "acks and unconfirmed": ([("f", 0, P), ("f", 1, P), ("f", 1, C), ("g", 0, P)],
                             [("f", 1, D), ("f", 1, JournalEvent.ACKED), ("g", 0, D)]),
    "mismatched flows": ([("f", 0, P), ("f", 0, C)], [("f", 0, D), ("z", 0, D), ("y", 3, D)]),
    "duplicate production": ([("f", 0, P), ("f", 1, P), ("f", 0, P)], [("f", 0, D)]),
    "empty": ([], []),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_checker_equals_the_reference_on_hand_built_journals(case):
    produced_events, consumed_events = HAND_BUILT[case]
    produced, consumed = jr(produced_events), jr(consumed_events)
    for qos in (QOS_ORDERED, QOS_UNORDERED):
        got = outcome(check_correctness, produced, consumed, qos)
        assert got == outcome(reference_check_correctness, produced, consumed, qos)
    if case == "every kind":
        assert {v.kind for v in got.violations} == set(ViolationKind) - {ViolationKind.DISORDER}
        ordered = check_correctness(produced, consumed, QOS_ORDERED)
        assert {v.kind for v in ordered.violations} == set(ViolationKind)
    elif case == "mismatched flows":
        assert got[0] is MismatchedFlows
    elif case == "duplicate production":
        assert got == (ValueError, "production journal must be duplicate-free, saw ('f', 0) twice")


# --------------------------------------------------------------------------
# the file reader
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FileItem:
    name: str
    count: int = 1
    limit: Optional[int] = None
    on: bool = False
    names: tuple = ()
    mode: Ordering = Ordering.NONE


def test_from_keys_passes_only_the_keys_present():
    assert from_keys(FileItem, {"name": "a"}, "item") == FileItem("a")
    item = from_keys(FileItem, {"name": "a", "limit": None, "names": ["x"], "mode": "per_channel"},
                     "item", names=tuple, mode=Ordering)
    assert item == FileItem("a", limit=None, names=("x",), mode=Ordering.PER_CHANNEL)


@pytest.mark.parametrize("d, refusal", [
    ({"name": "a", "cuont": 2}, "item: unknown key 'cuont'"),
    ({"name": "a", "count": True}, "item: count must be an integer, got True"),
    ({"name": "a", "count": "2"}, "item: count must be an integer, got '2'"),
    ({"name": "a", "count": 2.0}, "item: count must be an integer, got 2.0"),
    ({"name": "a", "count": None}, "item: count must be an integer, got None"),
    ({"name": "a", "limit": "5"}, "item: limit must be an integer or null, got '5'"),
    ({"name": "a", "on": 1}, "item: on must be true or false, got 1"),
    ({"name": "a", "on": "no"}, "item: on must be true or false, got 'no'"),
    ({"name": 5}, "item: name must be a string, got 5"),
    ({"name": "a", "names": "xy"}, "item: names must be a list, got 'xy'"),
    ({"count": 2}, "missing 1 required positional argument: 'name'"),
    (["name"], "item must be a JSON object, got ['name']"),
])
def test_from_keys_refuses_an_unknown_key_and_a_value_of_the_wrong_type(d, refusal):
    with pytest.raises(ScenarioInvalid, match=re.escape(refusal)):
        from_keys(FileItem, d, "item")


def test_from_keys_names_the_key_whose_value_its_reader_refuses():
    with pytest.raises(ScenarioInvalid, match=re.escape(
            "item: mode must be one of ['none', 'per_partition', 'per_channel', "
            "'global_single_lane'], got 'sideways'")):
        from_keys(FileItem, {"name": "a", "mode": "sideways"}, "item", mode=Ordering)

    def positive(v):
        if v < 1:
            raise ValueError(f"{v} is below 1")
        return v

    with pytest.raises(ScenarioInvalid, match=re.escape("item: count: 0 is below 1")):
        from_keys(FileItem, {"name": "a", "count": 0}, "item", count=positive)
    # a reader's own refusal already names what it read, and passes through
    refusal = ScenarioInvalid("inner: unknown key 'x'")

    def nested(v):
        raise refusal

    with pytest.raises(ScenarioInvalid) as caught:
        from_keys(FileItem, {"name": "a", "names": []}, "item", names=nested)
    assert caught.value is refusal


def test_check_keys_reads_a_key_table():
    keys = {"count": "int", "label": "str", "extra": "list"}
    d = {"count": 3, "extra": 7}  # a type the reader has no rule for is taken as it is
    assert check_keys(keys, d, "file") is d
    with pytest.raises(ScenarioInvalid, match="file: unknown key 'cnt'"):
        check_keys(keys, {"count": 3, "cnt": 3}, "file")
    with pytest.raises(ScenarioInvalid, match="file: label must be a string"):
        check_keys(keys, {"label": None}, "file")
