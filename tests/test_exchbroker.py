"""Exchange engine: declarations, routing, wildcard matching, confirms,
consumption, acks, TTL, limits, spill, transactions and vhost isolation."""

import dataclasses
import itertools
import random
import re
import sys
import threading
import time

import pytest

from duolog.core import (
    BrokerDown,
    Journal,
    JournalEvent,
    Message,
    Ordering,
    QoSConfig,
    ScenarioInvalid,
    check_correctness,
)
from duolog.exchbroker import (
    BindingSpec,
    Confirm,
    ConsumeMode,
    Delivery,
    ExchEngine,
    ExchError,
    ExchangeKind,
    ExchangeSpec,
    MatchMode,
    NotInTx,
    OverflowPolicy,
    QueueSpec,
    SpecConflict,
    UnknownEntity,
    UnknownTag,
    Unroutable,
    match_topic,
    validate_topology,
)
from duolog.exchbroker import _STATES_PER_NODE, _TopicTrie


def make_engine(**kw):
    kw.setdefault("clock", lambda: 10_000)
    kw.setdefault("latency_mode", "none")
    return ExchEngine(3, **kw)


def msg(seq=0, flow="f", rk=None, payload=b"x", headers=None, ttl=None, produced_at=0):
    return Message(
        flow, seq, payload=payload, routing_key=rk,
        headers=headers or {}, ttl_ms=ttl, produced_at=produced_at,
    )


def held_entries(engine, *queues):
    """Entries the queues still hold, queued or delivered and unacked."""
    return sum(engine.queue_depth(q) + engine.unacked_count(q) for q in queues)


def direct_setup(engine, queues=("q0",), key="k"):
    engine.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    for q in queues:
        engine.declare_queue(QueueSpec(q))
        engine.bind(BindingSpec("ex", q, key=key))
    return engine.channel()


# --------------------------------------------------------------------------
# declarations
# --------------------------------------------------------------------------

def test_declare_idempotent():
    eng = make_engine()
    spec = ExchangeSpec("ex", ExchangeKind.FANOUT)
    assert eng.declare_exchange(spec) == eng.declare_exchange(spec)
    qspec = QueueSpec("q")
    assert eng.declare_queue(qspec) == eng.declare_queue(qspec)


def test_redeclare_conflict():
    eng = make_engine()
    eng.declare_queue(QueueSpec("q", max_length=5))
    with pytest.raises(SpecConflict):
        eng.declare_queue(QueueSpec("q", max_length=9))


def test_bind_missing_queue():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    with pytest.raises(UnknownEntity):
        eng.bind(BindingSpec("ex", "nope", key="k"))


def test_vhost_isolation():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.FANOUT, vhost="A"))
    eng.declare_queue(QueueSpec("q", vhost="A"))
    eng.bind(BindingSpec("ex", "q", vhost="A"))
    chan_b = eng.channel(vhost="B")
    from duolog.exchbroker import UnknownExchange

    with pytest.raises(UnknownExchange):
        eng.publish(chan_b, "ex", msg(rk="k"))


# --------------------------------------------------------------------------
# topic wildcard matching
# --------------------------------------------------------------------------

def test_match_examples():
    assert match_topic("a.*.c", "a.b.c")
    assert match_topic("a.#", "a")  # '#' matches zero segments
    assert not match_topic("*", "a.b")
    assert match_topic("#", "")
    assert match_topic("#.b", "a.a.b")
    assert not match_topic("a.*", "a")


def oracle_match(p, k):
    """Independent recursive definition of the wildcard semantics."""
    if not p:
        return not k
    head, rest = p[0], p[1:]
    if head == "#":
        return oracle_match(rest, k) or (bool(k) and oracle_match(p, k[1:]))
    if not k:
        return False
    if head == "*" or head == k[0]:
        return oracle_match(rest, k[1:])
    return False


def all_patterns(max_len=3, alphabet=("a", "b", "*", "#")):
    for n in range(0, max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield combo


def all_keys(max_len=3, alphabet=("a", "b")):
    for n in range(0, max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield combo


def test_matcher_equals_brute_force_oracle():
    disagreements = []
    for p in all_patterns():
        for k in all_keys():
            got = match_topic(".".join(p), ".".join(k))
            want = oracle_match(list(p), list(k))
            if got != want:
                disagreements.append((p, k, got, want))
    assert disagreements == []


# --------------------------------------------------------------------------
# routing
# --------------------------------------------------------------------------

def test_fanout_routes_to_all():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.FANOUT))
    for q in ("a", "b", "c"):
        eng.declare_queue(QueueSpec(q))
        eng.bind(BindingSpec("ex", q))
    assert eng.route("ex", msg()) == frozenset({"a", "b", "c"})


def test_direct_routes_by_key():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q1"))
    eng.declare_queue(QueueSpec("q2"))
    eng.bind(BindingSpec("ex", "q1", key="red"))
    eng.bind(BindingSpec("ex", "q2", key="blue"))
    assert eng.route("ex", msg(rk="red")) == frozenset({"q1"})


def test_topic_exchange_wildcards():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.TOPIC))
    eng.declare_queue(QueueSpec("q"))
    eng.bind(BindingSpec("ex", "q", pattern="metrics.#"))
    assert eng.route("ex", msg(rk="metrics.cpu.load")) == frozenset({"q"})
    with pytest.raises(Unroutable):
        eng.route("ex", msg(rk="logs.cpu"))


def test_headers_all_vs_any():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("all", ExchangeKind.HEADERS))
    eng.declare_exchange(ExchangeSpec("any", ExchangeKind.HEADERS))
    eng.declare_queue(QueueSpec("q"))
    eng.bind(BindingSpec("all", "q", header_match={"x": "1", "y": "2"}, match_mode=MatchMode.ALL))
    eng.bind(BindingSpec("any", "q", header_match={"x": "1", "y": "2"}, match_mode=MatchMode.ANY))
    partial = msg(headers={"x": "1"})
    with pytest.raises(Unroutable):
        eng.route("all", partial)
    assert eng.route("any", partial) == frozenset({"q"})


def test_consistent_hash_deterministic_and_balanced():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.CONSISTENT_HASH))
    weights = {"q0": 1, "q1": 1, "q2": 2}
    for q, w in weights.items():
        eng.declare_queue(QueueSpec(q))
        eng.bind(BindingSpec("ex", q, weight=w))
    counts = {"q0": 0, "q1": 0, "q2": 0}
    for i in range(10_000):
        m = msg(rk=f"key-{i}")
        (only,) = eng.route("ex", m)
        again = eng.route("ex", m)
        assert again == frozenset({only})
        counts[only] += 1
    # chi-squared sanity against the 1:1:2 weighting
    expected = {"q0": 2500, "q1": 2500, "q2": 5000}
    chi2 = sum((counts[q] - expected[q]) ** 2 / expected[q] for q in counts)
    assert chi2 < 30, counts


def test_alternate_exchange_used_once():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("main", ExchangeKind.DIRECT, alternate="alt"))
    eng.declare_exchange(ExchangeSpec("alt", ExchangeKind.FANOUT, alternate="main"))
    eng.declare_queue(QueueSpec("fallback"))
    eng.bind(BindingSpec("alt", "fallback"))
    assert eng.route("main", msg(rk="nobody")) == frozenset({"fallback"})

    eng2 = make_engine()
    eng2.declare_exchange(ExchangeSpec("main", ExchangeKind.DIRECT, alternate="alt"))
    eng2.declare_exchange(ExchangeSpec("alt", ExchangeKind.DIRECT, alternate="main"))
    with pytest.raises(Unroutable):  # alternate tried once, no infinite loop
        eng2.route("main", msg(rk="nobody"))


def routed(eng, exchange, rk):
    try:
        return eng.route(exchange, msg(rk=rk))
    except Unroutable:
        return frozenset()


def test_topic_route_equals_match_topic_for_every_binding():
    # as patterns: literals, wildcards and empty segments; as keys: every
    # key of `all_keys`, the empty key, empty segments and a literal `*`
    # or `#`
    patterns = sorted({".".join(p) for p in all_patterns(alphabet=("a", "b", "*", "#", ""))})
    keys = sorted({".".join(k) for k in all_keys()} | set(patterns))
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.TOPIC))
    for i, pattern in enumerate(patterns):
        eng.declare_queue(QueueSpec(f"q{i}"))
        eng.bind(BindingSpec("ex", f"q{i}", pattern=pattern))
    wrong = []
    for key in keys:
        want = {f"q{i}" for i, p in enumerate(patterns) if match_topic(p, key)}
        try:
            got = eng.route("ex", msg(rk=key))
        except Unroutable:
            got = None
        if got != (want or None):
            wrong.append(key)
    assert wrong == []


def test_topic_route_of_a_lone_binding_equals_match_topic():
    # alone in its trie, a pattern with several "#" leads a walk to the
    # same node along many paths; the long key takes each "#" through
    # many segments
    keys = [".".join(k) for k in all_keys(max_len=6)] + [".".join("a" * 40)]
    eng = make_engine()
    eng.declare_queue(QueueSpec("q"))
    patterns = [".".join(p) for p in all_patterns(max_len=4)] + ["#.a.#.a.#.a.#.a.#"]
    wrong = []
    for i, pattern in enumerate(patterns):
        eng.declare_exchange(ExchangeSpec(f"x{i}", ExchangeKind.TOPIC))
        eng.bind(BindingSpec(f"x{i}", "q", pattern=pattern))
        for key in keys:
            if (routed(eng, f"x{i}", key) == {"q"}) != match_topic(pattern, key):
                wrong.append((pattern, key))
    assert wrong == []


def test_topic_bind_after_publish_refreshes_routes_and_alternate():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.TOPIC, alternate="alt"))
    eng.declare_exchange(ExchangeSpec("alt", ExchangeKind.TOPIC))
    for q in ("early", "late", "fallback"):
        eng.declare_queue(QueueSpec(q))
    eng.bind(BindingSpec("ex", "early", pattern="a.*"))
    eng.bind(BindingSpec("alt", "fallback", pattern="#"))
    chan = eng.channel()
    assert eng.publish(chan, "ex", msg(0, rk="a.b")).routed_count == 1
    assert eng.route("ex", msg(rk="b.c")) == frozenset({"fallback"})  # via the alternate
    eng.bind(BindingSpec("ex", "late", pattern="#.c"))
    eng.bind(BindingSpec("ex", "late", pattern="#.c"))  # rebinding is a no-op
    assert eng.route("ex", msg(rk="b.c")) == frozenset({"late"})
    assert eng.route("ex", msg(rk="a.c")) == frozenset({"early", "late"})
    assert eng.publish(chan, "ex", msg(1, rk="a.c")).routed_count == 2


def trie_of(patterns):
    """A topic trie binding pattern i to queue "q{i}"."""
    return _TopicTrie(
        BindingSpec("ex", f"q{i}", pattern=pattern) for i, pattern in enumerate(patterns)
    )


def oracle_queues(patterns, key):
    return {f"q{i}" for i, pattern in enumerate(patterns) if match_topic(pattern, key)}


@pytest.mark.parametrize("seed", range(40))
def test_topic_automaton_equals_match_topic_on_random_binding_sets(seed):
    # patterns with several "*" and "#"; keys of up to 6 segments mixing
    # the patterns' literals with words no pattern names
    rng = random.Random(seed)
    patterns = [
        ".".join(rng.choice(("a", "b", "c", "*", "#")) for _ in range(rng.randint(0, 5)))
        for _ in range(rng.randint(1, 12))
    ]
    trie = trie_of(patterns)
    keys = [
        ".".join(rng.choice(("a", "b", "c", "x", "yy")) for _ in range(rng.randint(0, 6)))
        for _ in range(300)
    ]
    for key in keys + keys:  # the second pass walks memoized steps
        assert trie.match(key) == oracle_queues(patterns, key), (patterns, key)
    assert trie.match(None) == oracle_queues(patterns, "")


def test_a_repeated_key_walks_its_memoized_steps_to_the_same_answer():
    patterns = ["a.*.c", "a.#", "#.c", "b.b"]
    trie = trie_of(patterns)
    first = trie.match("a.zz.c")
    states = dict(trie._states)
    walked = trie._start.next["a"]
    assert walked is not None and walked.other is not None  # both steps kept
    assert trie.match("a.zz.c") is first == oracle_queues(patterns, "a.zz.c")
    # a word no pattern names shares the step of every such word
    assert trie.match("a.qq.c") is first and trie._states == states


def test_a_bind_after_routing_is_seen_by_the_next_route():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.TOPIC))
    for q in ("one", "two"):
        eng.declare_queue(QueueSpec(q))
    eng.bind(BindingSpec("ex", "one", pattern="a.*"))
    for _ in range(2):  # the second route walks memoized steps
        assert eng.route("ex", msg(rk="a.b")) == frozenset({"one"})
    eng.bind(BindingSpec("ex", "two", pattern="#.b"))
    assert eng.route("ex", msg(rk="a.b")) == frozenset({"one", "two"})
    assert eng.route("ex", msg(rk="z.b")) == frozenset({"two"})


def test_a_queue_bound_after_traffic_on_a_routed_key_receives_the_next_publish():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.TOPIC))
    eng.declare_queue(QueueSpec("one"))
    eng.bind(BindingSpec("ex", "one", pattern="a.*"))
    chan = eng.channel()
    for seq in range(3):  # the later publishes reuse the routed set's queues
        assert eng.publish(chan, "ex", msg(seq, rk="a.b")).routed_count == 1
    eng.declare_queue(QueueSpec("late"))
    eng.bind(BindingSpec("ex", "late", pattern="#.b"))
    assert eng.publish(chan, "ex", msg(3, rk="a.b")).routed_count == 2
    late = eng.consume("late", "c", ConsumeMode.PULL, prefetch=10)
    assert [d.message.seq_no for d in late.pull(10)] == [3]
    assert eng.queue_depth("one") == 4


def test_routed_sets_map_to_their_queues_only_as_many_times_as_there_are_sets():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.TOPIC))
    patterns = {"w": "a.*", "x": "a.#", "y": "*.b", "z": "#.c"}
    for q, pattern in patterns.items():
        eng.declare_queue(QueueSpec(q))
        eng.bind(BindingSpec("ex", q, pattern=pattern))
    chan = eng.channel()
    rng = random.Random(3)
    routed = set()
    for i in range(10_000):
        key = ".".join(rng.choice(("a", "b", "c", f"k{i}")) for _ in range(rng.randint(1, 3)))
        m = msg(i, rk=key)
        want = {q for q, pattern in patterns.items() if match_topic(pattern, key)}
        assert eng.publish(chan, "ex", m).routed_count == len(want), key
        if want:
            routed.add(frozenset(want))
    targets = eng.vhosts["/"].targets
    assert 1 < len(targets) == len(routed) <= 4 * len(patterns)
    for names, queues in targets.items():
        assert [q.spec.name for q in queues] == sorted(names)


def test_routed_sets_past_the_cap_are_resolved_and_not_kept():
    # five headers bindings, each on a header of its own, route the 32
    # header subsets to 31 distinct sets: more than four per binding
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.HEADERS))
    for i in range(5):
        eng.declare_queue(QueueSpec(f"q{i}"))
        eng.bind(BindingSpec("ex", f"q{i}", header_match={f"h{i}": 1}, match_mode=MatchMode.ANY))
    chan = eng.channel()
    for seq, bits in enumerate(itertools.product((0, 1), repeat=5)):
        headers = {f"h{i}": 1 for i, bit in enumerate(bits) if bit}
        assert eng.publish(chan, "ex", msg(seq, headers=headers)).routed_count == sum(bits)
    assert len(eng.vhosts["/"].targets) == 4 * 5
    assert [eng.queue_depth(f"q{i}") for i in range(5)] == [16] * 5


def test_a_pull_from_a_queue_without_ttl_never_reads_the_clock():
    reads = [0]

    def clock():
        reads[0] += 1
        return 10_000

    eng = make_engine(clock=clock)
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.FANOUT))
    eng.declare_queue(QueueSpec("plain"))
    eng.declare_queue(QueueSpec("ttl", default_ttl=60_000))
    for q in ("plain", "ttl"):
        eng.bind(BindingSpec("ex", q))
    chan = eng.channel()
    for seq in range(5):
        before = reads[0]
        eng.publish(chan, "ex", msg(seq))
        assert reads[0] - before <= 1
    plain = eng.consume("plain", "c", ConsumeMode.PULL, prefetch=10)
    before = reads[0]
    for _ in range(3):
        for d in plain.pull(2):
            plain.ack(d.tag)
    assert plain.pull(1) == [] and eng.queue_depth("plain") == 0
    assert reads[0] == before
    ttl = eng.consume("ttl", "c", ConsumeMode.PULL, prefetch=10)
    assert len(ttl.pull(10)) == 5 and reads[0] == before + 1  # a TTL queue still expires


def test_topic_automaton_keeps_at_most_its_cap_of_states_and_stays_exact():
    # "the 8th segment from the end is a" needs 2^8 states once
    # determinized; the trie has 14 nodes: the root, "#", and the 8 and 4
    # nodes after "#" of each pattern
    patterns = ["#.a" + ".*" * 7, "#.b.#.a.*"]
    trie = trie_of(patterns)
    cap = _STATES_PER_NODE * 14
    rng = random.Random(7)
    keys = [".".join(rng.choice("ab") for _ in range(rng.randint(0, 24))) for _ in range(600)]
    for key in keys + keys:
        assert trie.match(key) == oracle_queues(patterns, key), key
    assert trie._cap == cap and len(trie._states) == cap


def test_confirm_and_delivery_keep_their_fields_repr_equality_and_frozenness():
    confirm = Confirm(ack=True, publish_seq=3, routed_count=2)
    assert Confirm._fields == ("ack", "publish_seq", "routed_count", "reason")
    assert repr(confirm) == "Confirm(ack=True, publish_seq=3, routed_count=2, reason=None)"
    assert confirm == Confirm(True, 3, 2, None) and confirm != Confirm(True, 3, 2, "queue full")
    m = msg(0, rk="k")
    delivery = Delivery(tag=1, queue="q", consumer_id="c", message=m, redelivered=False,
                        from_spill=False)
    assert Delivery._fields == (
        "tag", "queue", "consumer_id", "message", "redelivered", "from_spill")
    assert repr(delivery) == (
        f"Delivery(tag=1, queue='q', consumer_id='c', message={m!r}, redelivered=False, "
        "from_spill=False)")
    assert delivery == Delivery(1, "q", "c", msg(0, rk="k"), False, False)
    assert delivery != Delivery(2, "q", "c", m, False, False)
    for record, name in ((confirm, "ack"), (delivery, "tag"), (delivery, "other")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    # the engine builds the same records
    eng = make_engine()
    chan = direct_setup(eng)
    assert eng.publish(chan, "ex", m) == Confirm(True, 1, 1)
    assert eng.publish(chan, "ex", msg(1, rk="nobody")) == Confirm(True, 2, 0, "unroutable")
    (got,) = eng.consume("q0", "c", ConsumeMode.PULL).pull()
    assert got == Delivery(got.tag, "q0", "c", m, False, False)


def test_ack_of_an_unknown_or_settled_tag_raises_unknown_tag():
    eng = make_engine()
    chan = direct_setup(eng)
    for seq in range(3):
        eng.publish(chan, "ex", msg(seq, rk="k"))
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=3)
    first, second, third = cons.pull(3)
    with pytest.raises(UnknownTag):
        cons.ack(third.tag + 100)
    cons.ack(first.tag)
    cons.nack(second.tag, requeue=False)  # settled as an ack is
    for tag in (first.tag, second.tag):
        with pytest.raises(UnknownTag):
            cons.ack(tag)
        with pytest.raises(UnknownTag):
            cons.nack(tag)
    assert eng.unacked_count("q0") == 1 and eng.queue_depth("q0") == 0
    cons.ack(third.tag)
    assert eng.bodies.count() == 0


@pytest.mark.parametrize("auto_ack", [False, True])
def test_a_pull_across_expired_entries_delivers_what_one_delivery_at_a_time_does(auto_ack):
    # a push consumer takes one head at a time, expiring before each; a pull
    # expires once and takes its heads in one loop.  Both read the clock once.
    def engine_at(now):
        eng = ExchEngine(3, clock=lambda: now[0], latency_mode="none")
        eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
        eng.declare_queue(QueueSpec("q0", default_ttl=50))
        eng.bind(BindingSpec("ex", "q0", key="k"))
        chan = eng.channel()
        rng = random.Random(3)
        for seq in range(40):
            now[0] = seq * 1_000_000
            ttl = rng.choice((None, 0, 5, 20, 100))
            eng.publish(chan, "ex", msg(seq, flow=f"f{seq % 3}", rk="k", ttl=ttl))
        now[0] = 45 * 1_000_000
        return eng

    pulled_eng, pushed_eng = engine_at([0]), engine_at([0])
    # up to the prefetch, or, with auto-ack, everything left
    pulled = pulled_eng.consume("q0", "c", ConsumeMode.PULL, prefetch=12, auto_ack=auto_ack).pull(40)
    pushed = pushed_eng.consume("q0", "c", ConsumeMode.PUSH, prefetch=12, auto_ack=auto_ack).drain()
    assert pulled == pushed and 0 < len(pulled) < 40
    for eng in (pulled_eng, pushed_eng):
        assert eng.queue_depth("q0") + len(pulled) < 40  # some expired
    assert pulled_eng.queue_depth("q0") == pushed_eng.queue_depth("q0")
    assert pulled_eng.bodies.count() == pushed_eng.bodies.count()


# --------------------------------------------------------------------------
# publish confirms
# --------------------------------------------------------------------------

def test_unroutable_confirms_with_zero_routed():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    chan = eng.channel()
    confirm = eng.publish(chan, "ex", msg(rk="nowhere"))
    assert confirm.ack and confirm.routed_count == 0


def test_publish_reaches_all_routed_queues_with_one_body_copy():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.FANOUT))
    for q in ("a", "b"):
        eng.declare_queue(QueueSpec(q))
        eng.bind(BindingSpec("ex", q))
    chan = eng.channel()
    confirm = eng.publish(chan, "ex", msg(payload=b"body" * 100))
    assert confirm.ack and confirm.routed_count == 2
    assert eng.queue_depth("a") == 1 and eng.queue_depth("b") == 1
    assert eng.payload_bytes() == 400  # one shared copy, not two


def test_mirrored_confirm_requires_all_mirrors():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.FANOUT))
    eng.declare_queue(QueueSpec("q", mirrors=("n1", "n2")))
    eng.bind(BindingSpec("ex", "q"))
    chan = eng.channel()
    assert eng.publish(chan, "ex", msg()).ack
    eng.crash_node("n2")
    with pytest.raises(BrokerDown):
        eng.publish(chan, "ex", msg(seq=1))


def test_publish_seq_increments_per_channel():
    eng = make_engine()
    chan = direct_setup(eng)
    seqs = [eng.publish(chan, "ex", msg(i, rk="k")).publish_seq for i in range(3)]
    assert seqs == [1, 2, 3]


# --------------------------------------------------------------------------
# consumption, acks, redelivery ordering
# --------------------------------------------------------------------------

def test_prefetch_blocks_second_delivery_until_ack():
    eng = make_engine()
    chan = direct_setup(eng)
    for i in range(2):
        eng.publish(chan, "ex", msg(i, rk="k"))
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=1)
    first = cons.pull()
    assert len(first) == 1
    assert cons.pull() == []  # window full
    cons.ack(first[0].tag)
    assert len(cons.pull()) == 1


def test_work_sharing_splits_entries():
    eng = make_engine()
    chan = direct_setup(eng)
    for i in range(6):
        eng.publish(chan, "ex", msg(i, rk="k"))
    c1 = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    c2 = eng.consume("q0", "c2", ConsumeMode.PULL, prefetch=10)
    got1 = c1.pull(3)
    got2 = c2.pull(3)
    seqs1 = {d.message.seq_no for d in got1}
    seqs2 = {d.message.seq_no for d in got2}
    assert seqs1 | seqs2 == set(range(6))
    assert seqs1 & seqs2 == set()  # no entry delivered to both while unacked


def test_pull_on_empty_queue_returns_empty():
    eng = make_engine()
    direct_setup(eng)
    cons = eng.consume("q0", "c1", ConsumeMode.PULL)
    assert cons.pull() == []


def test_push_mode_delivers_eagerly():
    eng = make_engine()
    chan = direct_setup(eng)
    cons = eng.consume("q0", "c1", ConsumeMode.PUSH, prefetch=5)
    for i in range(3):
        eng.publish(chan, "ex", msg(i, rk="k"))
    got = cons.drain()
    assert [d.message.seq_no for d in got] == [0, 1, 2]


def test_ack_decrements_queue_and_double_ack_fails():
    eng = make_engine()
    chan = direct_setup(eng)
    eng.publish(chan, "ex", msg(0, rk="k"))
    cons = eng.consume("q0", "c1", ConsumeMode.PULL)
    (d,) = cons.pull()
    assert eng.unacked_count("q0") == 1
    cons.ack(d.tag)
    assert eng.unacked_count("q0") == 0 and eng.queue_depth("q0") == 0
    with pytest.raises(UnknownTag):
        cons.ack(d.tag)


def test_nack_requeue_restores_flow_order():
    eng = make_engine()
    chan = direct_setup(eng)
    for i in range(6):
        eng.publish(chan, "ex", msg(i, rk="k"))
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    d3 = cons.pull(4)[3]  # seqs 0..3 out, nack seq 3
    assert d3.message.seq_no == 3
    cons.nack(d3.tag, requeue=True)
    rest = cons.pull(10)
    assert [d.message.seq_no for d in rest] == [3, 4, 5]  # reinserted in order


def test_channel_order_conserved_for_single_flow_queue():
    eng = make_engine()
    chan = direct_setup(eng)
    for i in range(20):
        eng.publish(chan, "ex", msg(i, rk="k"))
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=100)
    got = [d.message.seq_no for d in cons.pull(100)]
    assert got == list(range(20))


# --------------------------------------------------------------------------
# TTL
# --------------------------------------------------------------------------

def test_ttl_zero_never_delivered():
    now = [0]
    eng = ExchEngine(3, clock=lambda: now[0], latency_mode="none")
    chan = direct_setup(eng)
    eng.publish(chan, "ex", msg(0, rk="k", ttl=0, produced_at=0))
    now[0] = 1_000
    cons = eng.consume("q0", "c1", ConsumeMode.PULL)
    assert cons.pull() == []


def test_message_ttl_overrides_queue_default():
    now = [0]
    eng = ExchEngine(3, clock=lambda: now[0], latency_mode="none")
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", default_ttl=100))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    eng.publish(chan, "ex", msg(0, rk="k", ttl=10, produced_at=0))
    eng.publish(chan, "ex", msg(1, rk="k", produced_at=0))  # queue default 100ms
    now[0] = 50 * 1_000_000  # 50 ms
    assert eng.expire_ttl("q0") == 1  # the 10ms message is gone
    now[0] = 150 * 1_000_000
    assert eng.expire_ttl("q0") == 1


def test_ttl_counts_from_enqueue_on_the_default_clock():
    # the default clock counts from host boot while `produced_at` defaults
    # to 0, so a TTL counted from production expires the message at once
    eng = ExchEngine(3, latency_mode="none")
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", default_ttl=60_000))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    assert eng.publish(eng.channel(), "ex", msg(0, rk="k")).ack
    cons = eng.consume("q0", "c1", ConsumeMode.PULL)
    assert [d.message.seq_no for d in cons.pull()] == [0]


def test_requeued_entry_keeps_its_enqueue_deadline():
    hour, ms = 3_600_000_000_000, 1_000_000
    now = [hour]
    eng = ExchEngine(3, clock=lambda: now[0], latency_mode="none")
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", default_ttl=60_000))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    eng.publish(chan, "ex", msg(0, rk="k", produced_at=0))
    eng.publish(chan, "ex", msg(1, rk="k", ttl=10, produced_at=0))
    now[0] = hour + 5 * ms
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    held = cons.pull(10)
    assert [d.message.seq_no for d in held] == [0, 1]
    now[0] = hour + 50_000 * ms
    for d in held:
        cons.nack(d.tag, requeue=True)
    assert eng.expire_ttl("q0") == 1  # seq 1's 10 ms ran out while delivered
    now[0] = hour + 60_000 * ms
    assert eng.expire_ttl("q0") == 0  # due only past its deadline
    now[0] += 1
    assert eng.expire_ttl("q0") == 1  # the requeue did not restart seq 0's TTL


def test_the_deadline_heap_loses_its_head_with_the_queue_and_stays_within_twice_the_depth():
    now = [0]
    eng = ExchEngine(3, clock=lambda: now[0], latency_mode="none")
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", default_ttl=50, max_length=20))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    q = eng._queue("/", "q0")
    cons = eng.consume("q0", "c", ConsumeMode.PULL, prefetch=1000, auto_ack=True)
    for seq in range(100):  # one TTL on a steady clock: each drop pops the heap's top
        now[0] += 1_000_000
        eng.publish(chan, "ex", msg(seq, rk="k"))
    assert len(q.deadlines) == eng.queue_depth("q0") == 20
    rng = random.Random(11)
    for seq in range(100, 1100):  # shorter message TTLs leave stale items behind
        now[0] += rng.choice((0, 1, 5)) * 1_000_000
        eng.publish(chan, "ex", msg(seq, rk="k", ttl=rng.choice((None, 2, 30))))
        assert len(q.deadlines) <= 2 * eng.queue_depth("q0")  # as an insert leaves it
        assert all(e.deadline >= now[0] for e in q.entries)
        if rng.random() < 0.3:
            cons.pull(rng.randint(1, 3))


def test_no_ttl_expires_nothing():
    eng = make_engine()
    chan = direct_setup(eng)
    eng.publish(chan, "ex", msg(0, rk="k"))
    assert eng.expire_ttl("q0") == 0


# --------------------------------------------------------------------------
# limits, spill, flow control
# --------------------------------------------------------------------------

def test_max_length_drop_oldest():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", max_length=2))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    for i in range(3):
        assert eng.publish(chan, "ex", msg(i, rk="k")).ack
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    assert [d.message.seq_no for d in cons.pull(10)] == [1, 2]


def test_max_length_reject_publish_nacks():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", max_length=2, overflow=OverflowPolicy.REJECT_PUBLISH))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    assert eng.publish(chan, "ex", msg(0, rk="k")).ack
    assert eng.publish(chan, "ex", msg(1, rk="k")).ack
    third = eng.publish(chan, "ex", msg(2, rk="k"))
    assert not third.ack


def test_spill_keeps_order_and_marks_entries():
    eng = make_engine(spill_read_ns=0)
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", memory_cap_bytes=1024, spill_to_disk=True))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    for i in range(10):
        eng.publish(chan, "ex", msg(i, rk="k", payload=b"z" * 200))
    assert eng.spilled_entry_count("q0") >= 1
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=100)
    got = cons.pull(100)
    assert [d.message.seq_no for d in got] == list(range(10))
    assert any(d.from_spill for d in got)


def test_body_spilled_by_another_queue_is_delivered_whole():
    # one body, two queue entries: the capped queue spills it, the plain
    # queue's entry is not spilled but must still deliver the payload
    eng = make_engine(spill_read_ns=0)
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.FANOUT))
    eng.declare_queue(QueueSpec("spill", memory_cap_bytes=100, spill_to_disk=True))
    eng.declare_queue(QueueSpec("plain"))
    eng.bind(BindingSpec("ex", "spill"))
    eng.bind(BindingSpec("ex", "plain"))
    chan = eng.channel()
    sent = [bytes([65 + i]) * 40 for i in range(8)]
    for i, payload in enumerate(sent):
        eng.publish(chan, "ex", msg(i, payload=payload))
    assert eng.spilled_entry_count("spill") >= 1
    spilled_before = eng.bodies.spilled_bytes()
    plain = eng.consume("plain", "c1", ConsumeMode.PULL, prefetch=100).pull(100)
    assert [d.message.payload for d in plain] == sent
    assert any(d.from_spill for d in plain)
    # read in place: the plain queue's deliveries move no body back
    assert eng.bodies.spilled_bytes() == spilled_before
    dup = eng.redeliver_unacked("plain", plain[0].tag)
    assert dup.message.payload == sent[0]
    assert dup.redelivered is True and dup.from_spill is True
    assert (dup.tag, dup.consumer_id) == (plain[0].tag, plain[0].consumer_id)
    assert eng.bodies.spilled_bytes() == spilled_before
    spill = eng.consume("spill", "c2", ConsumeMode.PULL, prefetch=100).pull(100)
    assert [d.message.payload for d in spill] == sent


def test_flow_control_engages_and_releases():
    eng = ExchEngine(3, clock=lambda: 0, latency_mode="none", memory_budget_bytes=1000)
    chan = direct_setup(eng)
    for i in range(9):
        eng.publish(chan, "ex", msg(i, rk="k", payload=b"y" * 100))
    assert eng._flow_blocked  # above the 80% watermark
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=100)
    for d in cons.pull(100):
        cons.ack(d.tag)
    assert not eng._flow_blocked  # drained below the 60% watermark


def test_flow_control_blocks_publisher_thread_until_drained():
    import threading
    import time as _time

    eng = ExchEngine(3, clock=lambda: 0, latency_mode="none", memory_budget_bytes=1000)
    chan = direct_setup(eng)
    for i in range(9):
        eng.publish(chan, "ex", msg(i, rk="k", payload=b"y" * 100))
    assert eng._flow_blocked

    unblocked = threading.Event()
    chan2 = eng.channel()

    def blocked_publisher():
        eng.publish(chan2, "ex", msg(100, flow="g", rk="k", payload=b"z"))
        unblocked.set()

    t = threading.Thread(target=blocked_publisher, daemon=True)
    t.start()
    assert not unblocked.wait(0.15)  # held at the gate while over budget
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=100)
    for d in cons.pull(100):
        cons.ack(d.tag)
    assert unblocked.wait(2.0)  # released once below the low watermark
    t.join()


@pytest.mark.parametrize("free", ["nack_drop", "expire", "auto_ack_pull"])
def test_flow_control_releases_when_memory_is_freed_without_ack(free):
    now = [0]
    eng = ExchEngine(3, clock=lambda: now[0], latency_mode="none", memory_budget_bytes=1000)
    chan = direct_setup(eng)
    for i in range(9):
        eng.publish(chan, "ex", msg(i, rk="k", payload=b"y" * 100, ttl=1))
    assert eng._flow_blocked
    cons = eng.consume(
        "q0", "c1", ConsumeMode.PULL, prefetch=100, auto_ack=free == "auto_ack_pull"
    )
    if free == "nack_drop":
        for d in cons.pull(100):
            cons.nack(d.tag, requeue=False)
    elif free == "expire":
        now[0] = 2_000_000  # past the 1 ms TTL
        assert eng.expire_ttl("q0") == 9
    else:
        assert len(cons.pull(100)) == 9
    assert eng.bodies.live_payload_bytes() == 0
    assert not eng._flow_blocked


# --------------------------------------------------------------------------
# transactions
# --------------------------------------------------------------------------

def test_tx_commit_applies_all():
    eng = make_engine()
    chan = direct_setup(eng)
    chan.tx_select()
    for i in range(3):
        eng.publish(chan, "ex", msg(i, rk="k"))
    result = eng.tx_commit(chan)
    assert result.complete and result.applied == 3
    assert eng.queue_depth("q0") == 3


def test_tx_crash_mid_commit_leaves_prefix():
    eng = make_engine()
    chan = direct_setup(eng)
    chan.tx_select()
    for i in range(5):
        eng.publish(chan, "ex", msg(i, rk="k"))
    calls = [0]

    def boom(phase, target):
        if phase == "tx_commit_op":
            calls[0] += 1
            if calls[0] == 3:
                raise BrokerDown("injected")

    eng.fault_hook = boom
    result = eng.tx_commit(chan)
    eng.fault_hook = None
    assert not result.complete
    assert result.applied == 2  # a strict prefix, not an atomic all-or-nothing
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    assert [d.message.seq_no for d in cons.pull(10)] == [0, 1]


@pytest.mark.parametrize("crash_at_ack", [False, True])
def test_tx_commit_applies_publish_ack_publish_in_order(crash_at_ack):
    eng = make_engine()
    chan = direct_setup(eng)
    eng.publish(chan, "ex", msg(0, rk="k"))
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    (held,) = cons.pull(10)
    chan.tx_select()
    eng.publish(chan, "ex", msg(1, rk="k"))
    eng.tx_ack(chan, "q0", held.tag)
    eng.publish(chan, "ex", msg(2, rk="k"))
    calls = [0]

    def boom(phase, target):
        if phase == "tx_commit_op":
            calls[0] += 1
            if crash_at_ack and calls[0] == 2:  # the ack
                raise BrokerDown("injected")

    eng.fault_hook = boom
    result = eng.tx_commit(chan)
    eng.fault_hook = None
    if crash_at_ack:
        # only the first publish landed: the held delivery is still unacked
        assert (result.applied, result.complete) == (1, False)
        assert (eng.queue_depth("q0"), eng.unacked_count("q0")) == (1, 1)
        assert [d.message.seq_no for d in cons.pull(10)] == [1]
    else:
        assert (result.applied, result.complete) == (3, True)
        assert (eng.queue_depth("q0"), eng.unacked_count("q0")) == (2, 0)
        assert [d.message.seq_no for d in cons.pull(10)] == [1, 2]


def test_tx_commit_stopped_by_an_error_that_is_not_a_crash_keeps_the_transaction():
    eng = make_engine()
    chan = direct_setup(eng)
    chan.tx_select()
    eng.publish(chan, "ex", msg(0, rk="k"))
    eng.tx_ack(chan, "q0", 999)  # no such delivery
    eng.publish(chan, "ex", msg(1, rk="k"))
    with pytest.raises(UnknownTag):
        eng.tx_commit(chan)
    # the ops before the error applied; the channel is still in tx mode
    # with its whole buffer, so a later publish is buffered too
    assert eng.queue_depth("q0") == 1
    assert chan.tx_mode and len(chan.tx_buffer) == 3
    assert eng.publish(chan, "ex", msg(2, rk="k")) is None
    assert eng.queue_depth("q0") == 1


def test_tx_commit_without_select():
    eng = make_engine()
    chan = direct_setup(eng)
    with pytest.raises(NotInTx):
        eng.tx_commit(chan)


# --------------------------------------------------------------------------
# crash / durability
# --------------------------------------------------------------------------

def home_node_of(eng, queue, vhost="/"):
    return eng._queue(vhost, queue).home_node


def test_durable_queue_restores_fsynced_entries():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", durable=True))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    eng.publish(chan, "ex", msg(0, rk="k"), persistent=True)
    eng.publish(chan, "ex", msg(1, rk="k"), persistent=False)  # transient
    home = home_node_of(eng, "q0")
    eng.crash_node(home)
    eng.restart_node(home)
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    assert [d.message.seq_no for d in cons.pull(10)] == [0]  # only the fsynced one


def test_crash_before_fsync_loses_entry_and_retransmit_lands_once():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", durable=True))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    home = home_node_of(eng, "q0")

    def crash_before_fsync(phase, target):
        if phase == "before_fsync":
            eng.fault_hook = None
            eng.crash_node(home)
            raise BrokerDown("crashed before fsync")

    eng.fault_hook = crash_before_fsync
    with pytest.raises(BrokerDown):  # no confirm reaches the producer
        eng.publish(chan, "ex", msg(0, rk="k"), persistent=True)
    eng.restart_node(home)
    assert eng.queue_depth("q0") == 0  # the unfsynced entry did not survive
    # the producer retransmits; exactly one copy ends up in the queue
    assert eng.publish(chan, "ex", msg(0, rk="k"), persistent=True).ack
    assert eng.publish(chan, "ex", msg(0, rk="k"), persistent=True).ack  # dup absorbed
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    assert [d.message.seq_no for d in cons.pull(10)] == [0]


def test_requeue_may_grow_a_queue_past_max_length():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", max_length=3))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    for i in range(3):
        eng.publish(chan, "ex", msg(i, rk="k"))
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    held = cons.pull(3)
    for i in range(3, 6):  # queue drained to 0 live entries; these fill it again
        eng.publish(chan, "ex", msg(i, rk="k"))
    for d in held:  # requeue grows the queue past its bound
        cons.nack(d.tag, requeue=True)
    assert eng.queue_depth("q0") == 6
    # nothing is dropped: the requeued entries keep their per-flow places
    assert [d.message.seq_no for d in cons.pull(10)] == list(range(6))


def test_mirror_promotion_keeps_accepted_entries():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", mirrors=("n1", "n2")))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    for i in range(4):
        eng.publish(chan, "ex", msg(i, rk="k"))
    home = home_node_of(eng, "q0")
    assert home not in ("n1", "n2") or home == "n1"  # home is n0 by round-robin
    eng.crash_node(home)
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    assert [d.message.seq_no for d in cons.pull(10)] == [0, 1, 2, 3]


@pytest.mark.parametrize("mirrors", [(), ("n1",)], ids=["restart", "promotion"])
def test_push_consumer_is_pushed_again_after_a_failover(mirrors):
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", durable=True, mirrors=mirrors))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    cons = eng.consume("q0", "c1", ConsumeMode.PUSH, prefetch=2)
    for i in range(4):
        eng.publish(chan, "ex", msg(i, rk="k"), persistent=True)
    assert [d.message.seq_no for d in cons.drain()] == [0, 1]
    home = home_node_of(eng, "q0")
    eng.crash_node(home)
    if not mirrors:
        eng.restart_node(home)
    # the crash voided the two deliveries; they go out again without
    # waiting on another publish
    assert [d.message.seq_no for d in cons.drain()] == [0, 1]
    assert (eng.queue_depth("q0"), eng.unacked_count("q0")) == (2, 2)


def test_a_down_queue_pushes_nothing_and_its_restart_pushes_what_survived():
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.DIRECT))
    eng.declare_queue(QueueSpec("q0", durable=True))
    eng.bind(BindingSpec("ex", "q0", key="k"))
    chan = eng.channel()
    eng.publish(chan, "ex", msg(0, rk="k"), persistent=True)
    eng.publish(chan, "ex", msg(1, rk="k"), persistent=False)  # lost on restart
    home = home_node_of(eng, "q0")
    eng.crash_node(home)
    cons = eng.consume("q0", "c1", ConsumeMode.PUSH, prefetch=5)
    assert cons.drain() == []  # as a pull raises BrokerDown
    eng.restart_node(home)
    assert [d.message.seq_no for d in cons.drain()] == [0]


def test_cancel_pushes_its_requeued_deliveries_to_another_push_consumer():
    eng = make_engine()
    chan = direct_setup(eng)
    first = eng.consume("q0", "c1", ConsumeMode.PUSH, prefetch=2)
    for i in range(2):
        eng.publish(chan, "ex", msg(i, rk="k"))
    second = eng.consume("q0", "c2", ConsumeMode.PUSH, prefetch=2)
    eng.cancel_consumer(first)
    assert [d.message.seq_no for d in second.drain()] == [0, 1]


def test_broker_deletes_state_after_full_ack_cycle():
    eng = make_engine()
    chan = direct_setup(eng)
    for i in range(5):
        eng.publish(chan, "ex", msg(i, rk="k"))
    cons = eng.consume("q0", "c1", ConsumeMode.PULL, prefetch=10)
    for d in cons.pull(10):
        cons.ack(d.tag)
    assert held_entries(eng, "q0") == 0
    assert eng.bodies.count() == 0  # all shared bodies released


@pytest.mark.parametrize(
    "case", ["second_queue_down", "retransmit_absorbed", "reject_publish",
             "drop_oldest_spill", "ack_before_second_copy"],
)
def test_every_unkept_body_reference_is_returned(case):
    """A publish takes one body reference per routed queue up front; each
    one a queue does not keep comes back, so a full drain frees every
    body."""
    eng = make_engine()
    second = {
        "reject_publish": QueueSpec("q1", max_length=1, overflow=OverflowPolicy.REJECT_PUBLISH),
        "drop_oldest_spill": QueueSpec(
            "q1", max_length=2, memory_cap_bytes=150, spill_to_disk=True
        ),
    }.get(case, QueueSpec("q1"))
    # a publish reaches q0 first; q0's home is n0 and q1's n1
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.FANOUT))
    eng.declare_queue(QueueSpec("q0", durable=True))
    eng.declare_queue(second)
    for q in ("q0", "q1"):
        eng.bind(BindingSpec("ex", q))
    chan = eng.channel()
    consumers = [eng.consume(q, f"c-{q}", ConsumeMode.PULL, prefetch=100) for q in ("q0", "q1")]
    delivered = []
    if case == "second_queue_down":
        eng.crash_node(home_node_of(eng, "q1"))
        with pytest.raises(BrokerDown):
            eng.publish(chan, "ex", msg(0, payload=b"a" * 100))
        eng.restart_node(home_node_of(eng, "q1"))
    elif case == "retransmit_absorbed":
        eng.publish(chan, "ex", msg(0, payload=b"a" * 100))
        for d in consumers[1].pull(10):
            consumers[1].ack(d.tag)
        assert eng.publish(chan, "ex", msg(0, payload=b"a" * 100)).routed_count == 2
        assert eng.queue_depth("q0") == 1 and eng.queue_depth("q1") == 1
    elif case == "reject_publish":
        assert eng.publish(chan, "ex", msg(0, payload=b"a" * 100)).ack
        assert not eng.publish(chan, "ex", msg(1, payload=b"b" * 100)).ack
    elif case == "drop_oldest_spill":
        for i in range(5):
            eng.publish(chan, "ex", msg(i, payload=bytes([i]) * 100))
        assert eng.queue_depth("q1") == 2 and eng.spilled_entry_count("q1") == 1
    else:
        # q0 is durable and the publish persistent: its fsync hook runs
        # after q0 has its entry and before q1 has one
        def ack_on_q0(phase, queue):
            if phase == "before_fsync":
                for d in consumers[0].pull(10):
                    delivered.append(d.message.payload)
                    consumers[0].ack(d.tag)

        eng.fault_hook = ack_on_q0
        eng.publish(chan, "ex", msg(0, payload=b"a" * 100), persistent=True)
        eng.fault_hook = None
        assert delivered == [b"a" * 100]
    for cons in consumers:
        for d in cons.pull(100):
            delivered.append(d.message.payload)
            cons.ack(d.tag)
    assert delivered  # something was delivered
    assert held_entries(eng, "q0", "q1") == 0
    assert eng.bodies.count() == 0 and eng.payload_bytes() == 0


# --------------------------------------------------------------------------
# topology files
# --------------------------------------------------------------------------

TOPOLOGY = {
    "vhost": "/",
    "exchanges": [{"name": "ex", "kind": "topic"}],
    "queues": [{"name": "q", "max_length": 10, "durable": True}],
    "bindings": [{"exchange": "ex", "queue": "q", "pattern": "a.#"}],
}


def test_load_topology():
    eng = make_engine()
    eng.load_topology(TOPOLOGY)
    assert eng.route("ex", msg(rk="a.b.c")) == frozenset({"q"})


def test_validate_topology_reports_problems():
    assert validate_topology(TOPOLOGY) == []
    bad = {"exchanges": [{"name": "e", "kind": "nope"}],
           "bindings": [{"exchange": "missing", "queue": "q"}]}
    problems = validate_topology(bad)
    assert len(problems) >= 2
    # each of these is one problem, and load_topology raises on it too
    base = {"exchanges": [{"name": "e", "kind": "direct"}], "queues": [{"name": "q"}]}
    rejected = [
        dict(base, queues=[{"name": "q", "max_length": 0}]),
        dict(base, queues=[{"name": "q", "default_ttl": -1}]),
        dict(base, queues=[{"name": "q", "overflow": "nope"}]),
        dict(base, bindings=[{"exchange": "e", "queue": "q", "weight": 0}]),
        dict(base, bindings=[{"exchange": "e", "queue": "q", "match_mode": "some"}]),
    ]
    for topology in rejected:
        assert len(validate_topology(topology)) == 1, topology
        with pytest.raises(ValueError):
            make_engine().load_topology(topology)
    # a redeclaration with another kind, and a binding across vhosts
    conflicting = [
        dict(base, exchanges=[{"name": "e", "kind": "direct"}, {"name": "e", "kind": "fanout"}]),
        dict(base, exchanges=[{"name": "e", "kind": "direct", "vhost": "/a"}],
             bindings=[{"exchange": "e", "queue": "q"}]),
    ]
    for topology in conflicting:
        assert len(validate_topology(topology)) == 1, topology
        with pytest.raises((SpecConflict, UnknownEntity)):
            make_engine().load_topology(topology)
    # a malformed item is reported, not raised; mirror names are the file's own
    assert len(validate_topology(dict(base, queues=[{"name": "q", "mirrors": 5}]))) == 1
    assert validate_topology(dict(base, queues=[{"name": "q", "mirrors": ["n1"]}])) == []


@pytest.mark.parametrize("section, item, refusal", [
    ("exchanges", {"name": "e2", "kind": "fanout", "alternat": "ex"}, "unknown key 'alternat'"),
    ("queues", {"name": "q2", "max_lenght": 3}, "unknown key 'max_lenght'"),
    ("queues", {"name": "q2", "durabel": True}, "unknown key 'durabel'"),
    ("bindings", {"exchange": "ex", "queue": "q", "routing_key": "a"}, "unknown key 'routing_key'"),
    ("exchanges", {"name": "e2", "kind": "fanout", "alternate": 5}, "alternate must be a string"),
    ("queues", {"name": "q2", "durable": "no"}, "durable must be true or false"),
    ("queues", {"name": "q2", "max_length": "3"}, "max_length must be an integer"),
    ("queues", {"name": "q2", "spill_to_disk": 1}, "spill_to_disk must be true or false"),
    ("queues", {"name": "q2", "mirrors": "n1"}, "mirrors must be a list"),
    ("bindings", {"exchange": "ex", "queue": "q", "weight": True}, "weight must be an integer"),
    ("queues", {"durable": True}, "missing 1 required positional argument: 'name'"),
])
def test_a_misspelled_or_mistyped_item_key_is_one_problem(section, item, refusal):
    topology = dict(TOPOLOGY, **{section: [*TOPOLOGY[section], item]})
    (problem,) = validate_topology(topology)
    assert problem.startswith(f"{section[:-1]} {item!r}: ") and refusal in problem, problem
    with pytest.raises(ScenarioInvalid, match=re.escape(refusal)):
        make_engine().load_topology(topology)


def test_a_file_queue_equals_the_same_queue_declared_in_code():
    eng = make_engine()
    eng.load_topology({"queues": [{"name": "q", "mirrors": ["n1"], "overflow": "reject_publish"}]})
    spec = QueueSpec("q", mirrors=("n1",), overflow=OverflowPolicy.REJECT_PUBLISH)
    assert eng.declare_queue(spec) == spec  # a redeclaration, not a conflict


def test_an_unknown_topology_file_key_or_an_item_that_is_not_an_object_is_one_problem():
    assert validate_topology(dict(TOPOLOGY, queues=[*TOPOLOGY["queues"], "q2"])) == [
        "queue must be a JSON object, got 'q2'"
    ]
    assert validate_topology(dict(TOPOLOGY, bindngs=[])) == ["topology: unknown key 'bindngs'"]
    with pytest.raises(ScenarioInvalid, match="unknown key 'bindngs'"):
        make_engine().load_topology(dict(TOPOLOGY, bindngs=[]))


@pytest.mark.parametrize("value", [5, "q", {"name": "q"}, None, True])
@pytest.mark.parametrize("section", ["exchanges", "queues", "bindings"])
def test_a_topology_section_that_is_not_a_list_is_one_problem(section, value):
    topology = dict(TOPOLOGY, **{section: value})
    problems = validate_topology(topology)
    assert problems[0] == f"topology: {section} must be a list, got {value!r}"
    # the other sections still load: only the binding to what is missing fails
    assert len(problems) == (1 if section == "bindings" else 2)
    with pytest.raises(ExchError, match=section):
        make_engine().load_topology(topology)


# --------------------------------------------------------------------------
# queue indexes and memory counters against full recounts and a list model
# --------------------------------------------------------------------------

def recount(eng):
    """Live and spilled payload bytes summed over every body a queue's entry
    or unacked delivery holds, each body once, and the count of bodies."""
    held = {}
    for vh in eng.vhosts.values():
        for q in vh.queues.values():
            for e in [*q.entries, *(e for e, _ in q.unacked.values())]:
                held[id(e.body)] = e.body
    stored = held.values()
    return (
        sum(len(b.data) for b in stored if not b.spilled),
        sum(len(b.data) for b in stored if b.spilled),
        len(stored),
    )


def test_body_store_counters_equal_a_recount():
    eng = make_engine(spill_read_ns=0)
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.FANOUT))
    eng.declare_queue(QueueSpec("q0", memory_cap_bytes=500, spill_to_disk=True, durable=True))
    eng.declare_queue(QueueSpec("q1"))
    for q in ("q0", "q1"):
        eng.bind(BindingSpec("ex", q))
    chan = eng.channel()

    def counters():
        return eng.bodies.live_payload_bytes(), eng.bodies.spilled_bytes(), eng.bodies.count()

    for i in range(10):
        eng.publish(chan, "ex", msg(i, payload=b"p" * (50 + 10 * i)), persistent=i % 2 == 0)
        assert counters() == recount(eng)
    assert eng.bodies.spilled_bytes() > 0
    c0 = eng.consume("q0", "c0", ConsumeMode.PULL, prefetch=100)
    c1 = eng.consume("q1", "c1", ConsumeMode.PULL, prefetch=100)
    for d in c0.pull(3):  # unspills, then releases q0's references
        assert d.from_spill
        c0.ack(d.tag)
        assert counters() == recount(eng)
    c0.pull(2)  # held unacked through the crash
    for d in c1.pull(4):  # the last references of seqs 0-2 go
        c1.ack(d.tag)
    assert counters() == recount(eng)
    home = home_node_of(eng, "q0")
    eng.crash_node(home)
    assert counters() == recount(eng)
    eng.restart_node(home)
    assert counters() == recount(eng)
    for cons in (c0, c1):
        for d in cons.pull(100):
            cons.ack(d.tag)
    assert counters() == recount(eng) == (0, 0, 0)
    assert eng.bodies.count() == 0


class ListQueue:
    """The list-based queue that `_Queue` replaced, kept as a reference
    model: linear scans for deduplication, insert position, expiry, memory
    and spill, `pop(0)` at the head."""

    def __init__(self, spec, home_node):
        self.spec = spec
        self.home_node = home_node
        self.entries = []
        self.unacked = {}
        self.consumers = {}
        self._rr = 0
        self.lock = threading.RLock()
        self.available = True

    def insert(self, entry):
        for e in self.entries:
            if e.flow == entry.flow and e.seq == entry.seq:
                return False
        idx = len(self.entries)
        for i, e in enumerate(self.entries):
            if e.flow == entry.flow and e.seq > entry.seq:
                idx = i
                break
        self.entries.insert(idx, entry)
        return True

    def pop_head(self):
        return self.entries.pop(0)

    def remove(self, doomed):
        kept, removed = [], []
        for e in self.entries:
            (removed if doomed(e) else kept).append(e)
        self.entries = kept
        return removed

    def expire(self, now):
        def expired(e):
            ttl = e.ttl_ms if e.ttl_ms is not None else self.spec.default_ttl
            return ttl is not None and e.produced_at + ttl * 1_000_000 < now

        return self.remove(expired)

    def spill(self, cap, spill_body):
        mem = self._mem
        for e in self.entries:
            if mem <= cap:
                break
            if e.spilled:
                continue
            mem -= spill_body(e.body)
            e.spilled = True

    # the engine skips expiry while `deadlines` is empty: here it holds the
    # entries with a TTL
    @property
    def deadlines(self):
        return [
            e for e in self.entries
            if (e.ttl_ms if e.ttl_ms is not None else self.spec.default_ttl) is not None
        ]

    @property
    def _mem(self):
        return sum(e.size for e in self.entries if not e.spilled)


def model_pair(rng):
    """Two engines with the same topology, one on the list-based queues.
    "q0" gets a random spec; "side" shares every body, so one queue's spill
    can find a body the other already spilled."""
    now = [0]
    spec = QueueSpec(
        "q0",
        max_length=rng.choice([None, 4, 12]),
        overflow=rng.choice(list(OverflowPolicy)),
        default_ttl=rng.choice([None, 3, 30]),
        memory_cap_bytes=rng.choice([None, 150, 600]),
        spill_to_disk=True,
        mirrors=rng.choice([(), ("n1", "n2")]),
        durable=rng.random() < 0.5,
    )
    side = QueueSpec("side", memory_cap_bytes=rng.choice([None, 300]), spill_to_disk=True)
    side_auto_ack = rng.random() < 0.5
    engines = []
    for model in (False, True):
        eng = ExchEngine(3, clock=lambda: now[0], latency_mode="none")
        eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.FANOUT))
        for qspec in (spec, side):
            eng.declare_queue(qspec)
            eng.bind(BindingSpec("ex", qspec.name))
            if model:
                q = eng._queue("/", qspec.name)
                eng.vhosts["/"].queues[qspec.name] = ListQueue(qspec, q.home_node)
        eng.consume("q0", "c0", ConsumeMode.PULL, prefetch=6)
        eng.consume("side", "c1", ConsumeMode.PULL, prefetch=6, auto_ack=side_auto_ack)
        engines.append(eng)
    return engines, now


def observe(eng):
    state = [eng.payload_bytes(), eng.bodies.count()]
    for name in ("q0", "side"):
        q = eng._queue("/", name)
        state.append((
            [(e.flow, e.seq) for e in q.entries],
            q._mem,
            eng.spilled_entry_count(name),
            eng.unacked_count(name),
        ))
    return state


def apply(eng, op):
    kind, args = op[0], op[1:]
    try:
        if kind == "publish":
            c = eng.publish(eng.test_channel, "ex", args[0], persistent=args[1])
            return (c.ack, c.publish_seq, c.routed_count, c.reason)
        if kind == "pull":
            queue, consumer, n = args
            return [
                (d.tag, d.message.flow_id, d.message.seq_no, d.message.payload,
                 d.redelivered, d.from_spill)
                for d in eng.pull(queue, consumer, n)
            ]
        if kind == "ack":
            return eng.ack(*args)
        if kind == "nack":
            queue, tag, requeue = args
            return eng.nack(queue, tag, requeue=requeue)
        if kind == "expire":
            return eng.expire_ttl(*args)
        if kind == "crash":
            return eng.crash_node(*args)
        return eng.restart_node(*args)
    except (BrokerDown, ExchError) as e:
        return type(e).__name__


def random_op(rng, state, now):
    """One operation, drawn from `state`: next seq per flow, tags held
    unacked on q0, nodes down."""
    roll = rng.random()
    if roll < 0.45:
        flow = rng.choice(("f0", "f1", "f2"))
        top = state["next"][flow]
        r = rng.random()
        if r < 0.7:
            seq = top
        elif r < 0.9:
            seq = rng.randrange(top + 1)  # retransmit or duplicate
        else:
            seq = top + rng.randint(1, 3)  # a gap a later retransmit fills
        state["next"][flow] = max(top, seq + 1)
        m = msg(seq, flow=flow, payload=bytes([seq % 256]) * rng.randint(1, 120),
                ttl=rng.choice([None, None, 1, 5, 50]), produced_at=now[0])
        return ("publish", m, rng.random() < 0.5)
    if roll < 0.65:
        queue, consumer = rng.choice((("q0", "c0"), ("side", "c1")))
        return ("pull", queue, consumer, rng.randint(1, 4))
    if roll < 0.78 and state["held"]:
        tag = state["held"].pop(rng.randrange(len(state["held"])))
        r = rng.random()
        if r < 0.5:
            return ("ack", "q0", tag)
        return ("nack", "q0", tag, r < 0.85)
    if roll < 0.86:
        now[0] += rng.choice((1, 2, 10)) * 1_000_000
        return ("expire", rng.choice(("q0", "side")))
    if roll < 0.95 and len(state["down"]) < 2:
        node = rng.choice([n for n in ("n0", "n1", "n2") if n not in state["down"]])
        state["down"].add(node)
        return ("crash", node)
    if state["down"]:
        node = rng.choice(sorted(state["down"]))
        state["down"].discard(node)
        return ("restart", node)
    return ("expire", "q0")


@pytest.mark.parametrize("seed", range(40))
def test_queue_indexes_match_the_list_model(seed):
    rng = random.Random(seed)
    (fast, model), now = model_pair(rng)
    for eng in (fast, model):
        eng.test_channel = eng.channel()
    state = {"next": {"f0": 0, "f1": 0, "f2": 0}, "held": [], "down": set()}
    for step in range(300):
        op = random_op(rng, state, now)
        got, want = apply(fast, op), apply(model, op)
        assert got == want, (step, op)
        if op[0] == "pull" and op[1] == "q0" and isinstance(got, list):
            state["held"].extend(d[0] for d in got)
        assert observe(fast) == observe(model), (step, op)


def test_threaded_publish_pull_ack_keeps_every_promise():
    """Producers, consumers and a binder race on one topic exchange; every
    message reaches its work queue and the audit queue exactly once, in
    per-flow order."""
    flows, per_flow = 4, 400
    eng = ExchEngine(3, latency_mode="none")
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.TOPIC))
    eng.declare_queue(QueueSpec("audit", default_ttl=3_600_000, memory_cap_bytes=4096, spill_to_disk=True))
    eng.bind(BindingSpec("ex", "audit", pattern="#"))
    for i in range(flows):
        eng.declare_queue(QueueSpec(f"w{i}", durable=True))
        eng.bind(BindingSpec("ex", f"w{i}", pattern=f"p{i}.*"))
    produced, work, audit = Journal(), Journal(), Journal()
    routed_wrong = []
    done = threading.Event()

    def produce(i):
        chan = eng.channel()
        for seq in range(per_flow):
            # stamped on the engine's clock so the audit TTL never runs out
            m = Message(f"f{i}", seq, payload=b"x" * (seq % 200),
                        routing_key=f"p{i}.s{seq % 7}", produced_at=time.monotonic_ns())
            produced.append(m.flow_id, seq, JournalEvent.PRODUCED, time.monotonic_ns())
            confirm = eng.publish(chan, "ex", m, persistent=True)
            if confirm.routed_count != 2:
                routed_wrong.append((m.flow_id, seq, confirm.routed_count))
            produced.append(m.flow_id, seq, JournalEvent.CONFIRMED, time.monotonic_ns())

    def consume(queue, journal, expected):
        handle = eng.consume(queue, f"c-{queue}", ConsumeMode.PULL, prefetch=16)
        got = 0
        while got < expected and not done.is_set():
            batch = handle.pull(8)
            for d in batch:
                journal.append(d.message.flow_id, d.message.seq_no, JournalEvent.DELIVERED,
                               time.monotonic_ns())
                handle.ack(d.tag)
            got += len(batch)
            if not batch:
                time.sleep(0.0005)

    def bind_dead_patterns():
        for j in range(40):
            eng.bind(BindingSpec("ex", f"w{j % flows}", pattern=f"zz{j}.#"))
            time.sleep(0.0005)

    threads = [threading.Thread(target=produce, args=(i,)) for i in range(flows)]
    threads += [threading.Thread(target=consume, args=(f"w{i}", work, per_flow)) for i in range(flows)]
    threads.append(threading.Thread(target=consume, args=("audit", audit, flows * per_flow)))
    threads.append(threading.Thread(target=bind_dead_patterns))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert routed_wrong == []
    qos = QoSConfig(ordering=Ordering.PER_CHANNEL)
    for consumed in (work, audit):
        report = check_correctness(produced, consumed, qos)
        assert report.violations == ()
    assert len(work) == len(audit) == flows * per_flow
    queues = ["audit"] + [f"w{i}" for i in range(flows)]
    assert held_entries(eng, *queues) == 0 and eng.bodies.count() == 0


def dead_patterns(n):
    """`n` topic patterns no key "a.b" matches, of the shapes the bench's
    dead bindings have."""
    shapes = ("a.b.*.x{}", "a.b.#.x{}", "a.*.x{}", "#.x{}", "x{}.#", "x{}.*.*")
    return [shapes[i % len(shapes)].format(i) for i in range(n)]


def publish_cpu_ns(depth, bindings=1, publishes=400, runs=5):
    """Least thread CPU over `runs` runs of `publishes` publishes into a
    full drop-oldest queue of `depth` entries with a TTL and spill, through
    a topic exchange with `bindings` bindings, all but one of them dead."""
    eng = make_engine()
    eng.declare_exchange(ExchangeSpec("ex", ExchangeKind.TOPIC))
    eng.declare_queue(QueueSpec(
        "audit", max_length=depth, default_ttl=3_600_000,
        memory_cap_bytes=depth * 50, spill_to_disk=True,
    ))
    eng.bind(BindingSpec("ex", "audit", pattern="#"))
    for pattern in dead_patterns(bindings - 1):
        eng.bind(BindingSpec("ex", "audit", pattern=pattern))
    chan = eng.channel()
    seqs = itertools.count()
    for _ in range(depth):
        eng.publish(chan, "ex", msg(next(seqs), rk="a.b", payload=b"x" * 100))
    best = None
    for _ in range(runs):
        batch = [msg(next(seqs), rk="a.b", payload=b"x" * 100) for _ in range(publishes)]
        start = time.thread_time_ns()
        for m in batch:
            eng.publish(chan, "ex", m)
        spent = time.thread_time_ns() - start
        best = spent if best is None else min(best, spent)
    assert eng.queue_depth("audit") == depth
    return best


def test_publish_cost_is_flat_in_queue_depth():
    shallow, deep = publish_cpu_ns(1_000), publish_cpu_ns(16_000)
    assert deep < 3 * shallow, (shallow, deep)


def test_publish_cost_is_flat_in_binding_count():
    few, many = publish_cpu_ns(1_000), publish_cpu_ns(1_000, bindings=48)
    assert many < 3 * few, (few, many)
