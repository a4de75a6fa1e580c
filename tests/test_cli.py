"""Command-line surface: exit codes, file outputs, subcommand wiring."""

import csv
import dataclasses
import json

import pytest

from duolog.cli import main
from duolog.harness import Scenario

GOOD_SCENARIO = {
    "engine": "exch",
    "seed": 5,
    "workload": {"producers": 2, "consumers": 1, "record_size_bytes": 16,
                 "messages_per_producer": 6},
    "qos": {"delivery": "at_least_once", "ordering": "per_channel"},
    "topology": {"durable": True},
    "faults": [{"kind": "drop_ack", "on": "produce", "index": 3}],
}

# rf=1, acks from the leader, a flush per message: a confirm implies durability
LOG_SCENARIO = {
    "engine": "log",
    "seed": 5,
    "workload": {"producers": 2, "consumers": 1, "record_size_bytes": 16,
                 "messages_per_producer": 6},
    "qos": {"delivery": "at_least_once", "ordering": "per_partition",
            "replication_factor": 1, "ack_mode": "1"},
    "topology": {"partitions": 2, "flush_messages": 1},
    "faults": [{"kind": "drop_ack", "on": "produce", "index": 3}],
}

TOPOLOGY = {
    "vhost": "/",
    "exchanges": [{"name": "ex", "kind": "topic"}],
    "queues": [{"name": "q"}],
    "bindings": [{"exchange": "ex", "queue": "q", "pattern": "a.#"}],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_pass(tmp_path, capsys):
    rc = main(["verify", write_json(tmp_path / "s.json", GOOD_SCENARIO)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "pass"
    assert out["no_loss"] is True


# consumer c0 is down from its first delivery while a node crash destroys the
# only copy of messages already confirmed: a non-durable exchange queue on
# its home node, or a one-replica log partition that has not flushed
CONSUMER_DOWN = {"kind": "crash_consumer", "on": "deliver", "index": 1,
                 "target": "c0", "down_ms": 30}
LOSSY_SCENARIOS = [
    dict(GOOD_SCENARIO, topology={"durable": False}, faults=[
        CONSUMER_DOWN, {"kind": "crash_node", "on": "produce", "index": 8, "down_ms": 5}]),
    dict(LOG_SCENARIO, topology={"partitions": 1, "flush_messages": 1000}, faults=[
        CONSUMER_DOWN,
        {"kind": "crash_node", "on": "produce", "index": 3, "target": "n0", "down_ms": 5}]),
]


@pytest.mark.parametrize("lossy", LOSSY_SCENARIOS, ids=["exch", "log"])
def test_verify_lossy_configuration_fails(tmp_path, capsys, lossy):
    rc = main(["verify", write_json(tmp_path / "s.json", lossy)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "fail:loss"
    assert len(out["violations"]) == 6


@pytest.mark.parametrize("bad, named", [
    (dict(GOOD_SCENARIO, drain_deadline=10), "'drain_deadline'"),
    (dict(LOG_SCENARIO, qos=dict(LOG_SCENARIO["qos"], ack_mode="all")), "'quorum'"),
    ({"engine": "exch", "workload": {"producers": "2"}}, "producers must be an integer"),
], ids=["misspelled-key", "unknown-ack-mode", "string-for-an-integer"])
def test_verify_rejects_a_bad_scenario_file(tmp_path, capsys, bad, named):
    assert main(["verify", write_json(tmp_path / "s.json", bad)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("section, name, minimum", [
    ("workload", "producers", 1),
    ("workload", "consumers", 1),
    ("workload", "messages_per_producer", 1),
    ("workload", "record_size_bytes", 0),
    ("fault", "index", 0),
    ("fault", "at_ms", 0),
    ("fault", "delay_ms", 0),
    ("fault", "down_ms", 0),
    ("scenario", "drain_deadline_ms", 0),
    ("scenario", "retry_limit", 0),
])
def test_verify_rejects_an_integer_below_its_minimum(tmp_path, capsys, section, name, minimum):
    def scenario(value):
        fault = {"kind": "crash_node", "on": "time", "at_ms": 5, "down_ms": 5}
        if section == "fault":
            return dict(GOOD_SCENARIO, faults=[dict(fault, **{name: value})])
        if section == "workload":
            return dict(GOOD_SCENARIO, workload=dict(GOOD_SCENARIO["workload"], **{name: value}))
        return dict(GOOD_SCENARIO, **{name: value})

    for value in (minimum - 1, -50):
        assert main(["verify", write_json(tmp_path / "s.json", scenario(value))]) == 2
        err = capsys.readouterr().err
        assert f"{section}: " in err and f"{name}={value}" in err and "must be >=" in err
    Scenario.from_dict(scenario(minimum)).validate()  # the minimum itself is valid


def test_verify_missing_file():
    assert main(["verify", "/nonexistent/scenario.json"]) == 2


def test_verify_invalid_scenario(tmp_path):
    bad = dict(GOOD_SCENARIO, engine="bogus")
    assert main(["verify", write_json(tmp_path / "s.json", bad)]) == 2


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------

def test_bench_writes_csv_and_metadata(tmp_path, capsys):
    out = tmp_path / "results.csv"
    rc = main([
        "bench", "--engine", "exch", "--sweep", "record_size=64,256",
        "--producers", "1", "--consumers", "1",
        "--duration", "0.5", "--warmup", "0.1", "--out", str(out),
    ])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 3  # header + 2 sweep points
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["engine"] == "exch" and meta["sweep"]["values"] == [64, 256]


def test_bench_rejects_warmup_longer_than_duration(tmp_path):
    rc = main([
        "bench", "--engine", "log", "--sweep", "record_size=64",
        "--duration", "5", "--warmup", "10", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


@pytest.mark.parametrize("engine", ["log", "exch"])
def test_bench_harness_mode_is_deterministic(tmp_path, engine):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["bench", "--engine", engine, "--sweep", "record_size=16",
            "--mode", "harness", "--messages", "20", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


HARNESS_MODE = ["bench", "--engine", "log", "--mode", "harness", "--seed", "3"]


def test_bench_harness_mode_runs_the_sweep_point(tmp_path):
    def journals(*argv):
        out = tmp_path / "j.jsonl"
        out.unlink(missing_ok=True)
        rc = main([*HARNESS_MODE, "--messages", "12", *argv, "--out", str(out)])
        return rc, out.read_bytes() if out.exists() else None

    assert journals("--sweep", "partitions=1,2,4") == (2, None)
    rc, swept = journals("--sweep", "partitions=4")
    assert rc == 0
    assert swept == journals("--partitions", "4", "--sweep", "record_size=100")[1]
    assert swept != journals("--sweep", "partitions=1")[1]


@pytest.mark.parametrize("engine, point", [("log", "topics=2"), ("exch", "partitions=2")])
def test_bench_harness_mode_refuses_a_point_a_scenario_cannot_run(tmp_path, engine, point):
    # a scenario runs one topic, and on the exchange one queue
    out = tmp_path / "j.jsonl"
    argv = ["bench", "--engine", engine, "--mode", "harness", "--messages", "5"]
    assert main([*argv, "--sweep", point, "--out", str(out)]) == 2
    assert not out.exists()


def test_bench_harness_mode_needs_messages(tmp_path):
    out = tmp_path / "j.jsonl"
    assert main([*HARNESS_MODE, "--sweep", "record_size=16", "--out", str(out)]) == 2
    assert not out.exists()


def test_bench_harness_mode_exits_1_on_a_failed_verdict(tmp_path, monkeypatch, capsys):
    from duolog import harness

    checked = harness.check_correctness

    def lossy(produced, consumed, qos):
        return dataclasses.replace(checked(produced, consumed, qos), no_loss=False)

    monkeypatch.setattr(harness, "check_correctness", lossy)
    out = tmp_path / "j.jsonl"
    rc = main([*HARNESS_MODE, "--sweep", "ack_mode=at_least_once", "--messages", "5",
               "--out", str(out)])
    assert rc == 1
    assert "verdict fail:loss" in capsys.readouterr().out
    assert out.exists()


def test_bench_bad_sweep(tmp_path):
    rc = main(["bench", "--engine", "log", "--sweep", "nope=1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_bench_rejects_an_ack_mode_the_log_does_not_have(tmp_path):
    # each point would otherwise be measured at acks=1 under another label
    out = tmp_path / "x.csv"
    rc = main(["bench", "--engine", "log", "--sweep", "ack_mode=all,2",
               "--duration", "0.4", "--warmup", "0.1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------

def test_model_predict_rabbit_preset(capsys):
    rc = main([
        "model", "predict", "rabbit", "--producers", "1", "--size", "100",
        "--preset", "rabbit.no_replication",
    ])
    assert rc == 0
    assert abs(float(capsys.readouterr().out) - 30153.2) < 1.0


def test_model_predict_kafka_with_constants_file(tmp_path, capsys):
    consts = tmp_path / "fit.json"
    consts.write_text(json.dumps(
        {"constants": {"u_routing": 3.8e-4, "u_topics": 2.1e-7, "u_byte": 4.9e-6}}
    ))
    rc = main([
        "model", "predict", "kafka", "--producers", "5", "--size", "4000",
        "--partitions", "10", "--topics", "5", "--effective-size", "4000",
        "--constants", str(consts),
    ])
    assert rc == 0
    assert abs(float(capsys.readouterr().out) - 72363.8) < 2.0


def test_model_fit_round_trip(tmp_path, capsys):
    data = tmp_path / "measurements.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["producers", "size_bytes", "pps"])
        for p in (1, 2):
            for s in (100, 1000, 10000, 40000):
                w.writerow([p, s, p / (3.0e-5 + s * 8.0e-9)])
    out = tmp_path / "fit.json"
    rc = main(["model", "fit", "--form", "rabbit", "--in", str(data), "--out", str(out)])
    assert rc == 0
    fitted = json.loads(out.read_text())
    assert abs(fitted["constants"]["u_routing"] - 3.0e-5) / 3.0e-5 < 0.01
    assert fitted["mean_relative_error"] < 1e-6


def test_model_fit_underdetermined_exits_2(tmp_path):
    data = tmp_path / "one.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["producers", "partitions", "topics", "effective_size", "pps"])
        w.writerow([1, 1, 1, 100, 5000.0])
    rc = main(["model", "fit", "--form", "kafka", "--in", str(data),
               "--out", str(tmp_path / "fit.json")])
    assert rc == 2


def test_model_fit_unwritable_out_exits_2_and_leaves_no_temp_file(tmp_path):
    data = tmp_path / "measurements.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["producers", "size_bytes", "pps"])
        for s in (100, 1000, 10000):
            w.writerow([1, s, 1 / (3.0e-5 + s * 8.0e-9)])
    out = tmp_path / "out"
    out.mkdir()  # the rename onto a directory fails
    rc = main(["model", "fit", "--form", "rabbit", "--in", str(data), "--out", str(out)])
    assert rc == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["measurements.csv", "out"]


# --------------------------------------------------------------------------
# advise
# --------------------------------------------------------------------------

ADVISE_XL = [
    "advise", "--latency", "N", "--routing", "N", "--storage", "N",
    "--topic-throughput", "N", "--order", "N", "--elasticity", "N",
    "--throughput", "XL", "--at-least-once", "N", "--availability", "N",
]


def test_advise_match(capsys):
    assert main(ADVISE_XL) == 0
    assert capsys.readouterr().out.strip() == "Kafka with multiple partitions"


def test_advise_no_match():
    argv = list(ADVISE_XL)
    argv[argv.index("--order") + 1] = "Y"  # ordered XL profile: no row
    assert main(argv) == 3


def test_advise_missing_flag_is_usage_error():
    assert main(ADVISE_XL[:-2]) == 2


# --------------------------------------------------------------------------
# topo
# --------------------------------------------------------------------------

def test_topo_valid(tmp_path):
    assert main(["topo", write_json(tmp_path / "t.json", TOPOLOGY)]) == 0


def test_topo_invalid(tmp_path):
    bad = {"exchanges": [{"name": "e", "kind": "bogus"}]}
    assert main(["topo", write_json(tmp_path / "t.json", bad)]) == 1


def test_topo_section_that_is_not_a_list(tmp_path, capsys):
    assert main(["topo", write_json(tmp_path / "t.json", {"queues": 5})]) == 1
    assert capsys.readouterr().out == "topology: queues must be a list, got 5\n"
    every_section = {"exchanges": 1, "queues": 2, "bindings": 3}
    assert main(["topo", write_json(tmp_path / "t.json", every_section)]) == 1
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_topo_missing_file():
    assert main(["topo", "/nonexistent/topo.json"]) == 2


# --------------------------------------------------------------------------
# generic surface
# --------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["--help"], ["verify", "--help"], ["bench", "--help"],
    ["model", "--help"], ["advise", "--help"], ["topo", "--help"],
])
def test_help_exits_zero(argv):
    assert main(argv) == 0


def test_unknown_subcommand_exits_two():
    assert main(["frobnicate"]) == 2
