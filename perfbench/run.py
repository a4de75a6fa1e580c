"""Outside-in benchmark of duolog's two engines and its fault harness.

    python3 perfbench/run.py --workload log-quorum --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program under test is the
`duolog` package in `src/`.  One single-threaded process runs one
workload.  With `--trace 0` it measures the end-to-end metrics with the
engines' modeled device costs set to zero, every timing scaled to a
reference host speed (see README.md); with `--trace 1` it prints the
per-layer metrics from an untraced pass, a pass with span wrappers
installed, and (engine workloads) passes with the default modeled device
costs and with segment files written.  Outputs are graded after the timed
phases; a violation makes the exit code 1.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3  # set-ups per gated run; setup_s is their median
TMP_DIR = ".perfbench_tmp"
TRACE_DIR = ".perfbench_out"

# what each name means per workload is in README.md
END_TO_END = {
    "throughput_per_s": "1/s",
    "cpu_us_per_op": "us",
    "lat_p50_ms": "ms",
    "lat_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "driver.trace_overhead": "ratio",
    "driver.cpu_share": "ratio",
    "driver.host_speed": "ratio",
    "driver.late_p99_ms": "ms",
    "driver.lat_p99_ms": "ms",
    "driver.lat_p999_ms": "ms",
    "driver.lat_p99_phase_ms": "ms",
    "driver.lat_samples": "count",
    "logbroker.append_batch.cpu_us_per_msg": "us",
    "logbroker.append_batch.offcpu_us_per_msg": "us",
    "logbroker.append_batch.msgs_per_call": "count",
    "logbroker.fetch.cpu_us_per_msg": "us",
    "logbroker.fetch.msgs_per_call": "count",
    "logbroker.partition_for.cpu_us_per_call": "us",
    "logbroker.commit_offset.cpu_us_per_call": "us",
    "logbroker.purge.cpu_ms_per_call": "ms",
    "logbroker.purge.msgs_removed": "count",
    "logbroker.consumer_lag_max": "count",
    "logbroker.encode_record.share_of_append": "ratio",
    "logbroker.decode_record.share_of_fetch": "ratio",
    "logbroker.write_bytes_per_payload_byte": "B/B",
    "logbroker.persist.append_batch.cpu_us_per_msg": "us",
    "logbroker.persist.append_batch.offcpu_us_per_msg": "us",
    "modeled.logbroker.append_batch.cpu_us_per_msg": "us",
    "modeled.logbroker.append_batch.offcpu_us_per_msg": "us",
    "exchbroker.publish.cpu_us_per_msg": "us",
    "exchbroker.publish.offcpu_us_per_msg": "us",
    "exchbroker.pull.cpu_us_per_msg": "us",
    "exchbroker.ack.cpu_us_per_call": "us",
    "exchbroker.route.self_us_per_msg": "us",
    "exchbroker.match_topic.calls_per_publish": "count",
    "exchbroker.match_topic.match_ratio": "ratio",
    "exchbroker.publish.routed_per_msg": "count",
    "exchbroker.pull.empty_share": "ratio",
    "exchbroker.audit_depth": "count",
    "exchbroker.audit_spilled": "count",
    "exchbroker.route_key_repeat_share": "ratio",
    "exchbroker.payload_bytes": "B",
    "modeled.exchbroker.publish.cpu_us_per_msg": "us",
    "modeled.exchbroker.publish.offcpu_us_per_msg": "us",
    "core.validate_message.us_per_call": "us",
    "core.check_correctness.ms_per_100k_events": "ms",
    "core.check_correctness.ms_per_scenario": "ms",
    "harness.run_scenario.log_ms": "ms",
    "harness.run_scenario.exch_ms": "ms",
    "harness.random_scenario.ms_per_call": "ms",
    "harness.self_ms_per_scenario": "ms",
    "harness.journal_events": "count",
    "harness.fault_events": "count",
}

WORKLOADS = ("log-quorum", "exch-topic-backlog", "harness-faults")


# --------------------------------------------------------------------------
# run record
# --------------------------------------------------------------------------

def git_sha() -> str:
    """The checkout's commit, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "duolog").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding `path`, from mountinfo."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, right.split()[0]
    except (OSError, IndexError):
        pass
    return kind


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# engine workloads
# --------------------------------------------------------------------------

def make_engine_workload(name: str, seed: int, modeled: bool, data_dir=None):
    if name == "log-quorum":
        from log_quorum import LogQuorum
        return LogQuorum(seed, modeled, data_dir)
    from exch_backlog import ExchTopicBacklog
    return ExchTopicBacklog(seed, modeled)


def timed_setup(wl) -> float:
    """Set-up time in seconds, scaled to the reference host speed measured
    just before and after it."""
    from common import WARM_PROBES, HostSpeed, perf_ns

    gc.collect()
    speed = HostSpeed()
    t0 = perf_ns()
    wl.setup()
    elapsed = perf_ns() - t0
    for _ in range(WARM_PROBES):
        speed.probe()
    return elapsed / 1e9 * speed.factor(0)


class Tally:
    """Attempted and failed operations over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, wl) -> None:
        self.attempted += wl.attempted()
        self.failed += wl.failed


def engine_gated(name: str, seed: int, seconds: float, tally: Tally, record: dict) -> dict:
    from common import median
    from drive import closed_loop, open_loop

    setups = []
    wl = None
    for _ in range(SETUPS):
        wl = None
        wl = make_engine_workload(name, seed, modeled=False)
        setups.append(timed_setup(wl))
    closed = closed_loop(wl, seconds / 3, wl.per_turn)
    opened = open_loop(wl, 2 * seconds / 3, wl.open_rate)
    rss = peak_rss_mb()  # before grading, whose journals grow with throughput
    wl.grade(wl.qos)
    tally.add(wl)
    record.update(wl.properties(), offered_rate_per_s=wl.open_rate)
    record.update(raw_throughput_per_s=closed["delivered"] / closed["wall_ns"] * 1e9,
                  host_speed=closed["host_speed"])
    return {
        "throughput_per_s": closed["rate"],
        "cpu_us_per_op": closed["cpu_ns_per_msg"] / 1e3,
        "lat_p50_ms": opened["window_p50_ms"],
        "lat_p95_ms": opened["window_p95_ms"],
        "lat_p99_ms": opened["window_p99_ms"],  # printed, not gated
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }


def trace_targets():
    """The callables the traced pass wraps: engine methods, and the
    module-level names the engines and the harness look up at call time."""
    from duolog import exchbroker, harness, logbroker

    targets = [
        (logbroker.LogEngine, m, f"logbroker.{m}", False)
        for m in ("append_batch", "fetch", "crash_node", "restart_node")
    ]
    targets += [
        (exchbroker.ExchEngine, m, f"exchbroker.{m}", False)
        for m in ("publish", "route", "pull", "ack", "crash_node", "restart_node")
    ]
    targets += [
        (logbroker, "encode_record", "logbroker.encode_record", False),
        (logbroker, "decode_record", "logbroker.decode_record", False),
        (exchbroker, "match_topic", "exchbroker.match_topic", True),
        (exchbroker, "validate_message", "core.validate_message", False),
        (harness, "check_correctness", "core.check_correctness", False),
        (harness, "run_scenario", "harness.run_scenario", False),
    ]
    return targets


def span_metrics(spans: dict, hits: dict) -> dict:
    """Per-layer metrics that need spans: shares, self time, call ratios."""
    def get(name):
        return spans.get(name, {"count": 0, "wall": 0, "cpu": 0, "self_wall": 0, "self_cpu": 0})

    def ratio(a, b):
        return a / b if b else 0.0

    append, fetch = get("logbroker.append_batch"), get("logbroker.fetch")
    publish, route = get("exchbroker.publish"), get("exchbroker.route")
    match, validate = get("exchbroker.match_topic"), get("core.validate_message")
    scen, check = get("harness.run_scenario"), get("core.check_correctness")
    return {
        "logbroker.encode_record.share_of_append": ratio(get("logbroker.encode_record")["cpu"], append["cpu"]),
        "logbroker.decode_record.share_of_fetch": ratio(get("logbroker.decode_record")["cpu"], fetch["cpu"]),
        "exchbroker.route.self_us_per_msg": ratio(route["self_wall"], publish["count"]) / 1e3,
        "exchbroker.match_topic.calls_per_publish": ratio(match["count"], publish["count"]),
        "exchbroker.match_topic.match_ratio": ratio(hits.get("exchbroker.match_topic", 0), match["count"]),
        "core.validate_message.us_per_call": ratio(validate["wall"], validate["count"]) / 1e3,
        "harness.self_ms_per_scenario": ratio(scen["self_wall"], scen["count"]) / 1e6,
        "core.check_correctness.ms_per_scenario": ratio(check["wall"], scen["count"]) / 1e6,
    }


def traced_pass(wl, run_phase):
    """Run `run_phase()` with span wrappers installed; returns its result,
    the per-name span totals and the tracer."""
    from common import Tracer

    tracer = Tracer()
    wl.tracer = tracer
    tracer.install(trace_targets())
    try:
        result = run_phase()
    finally:
        tracer.uninstall()
        wl.tracer = None
    return result, tracer.totals(), tracer


def write_spans(tracer, workload: str) -> str:
    out = ROOT / TRACE_DIR
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-spans.tsv"
    tracer.write(path)
    return str(path.relative_to(ROOT))


def layer_rows(meter, label: str) -> list:
    """Table rows of calls, items, CPU and off-CPU µs per call."""
    return [
        (f"{label}{name}", calls, items, cpu / calls / 1e3, (wall - cpu) / calls / 1e3)
        for name, (calls, items, wall, cpu) in sorted(meter.layers.items())
    ]


def span_rows(spans: dict) -> list:
    return [
        (f"span {n}", t["count"], 0, t["cpu"] / t["count"] / 1e3, (t["wall"] - t["cpu"]) / t["count"] / 1e3)
        for n, t in sorted(spans.items()) if t["count"]
    ]


def engine_traced(name: str, seed: int, seconds: float, tally: Tally, record: dict,
                  tmp: Path, rows: list) -> dict:
    from drive import closed_loop, open_loop

    m = {}
    part = seconds / 6
    # A: untraced, device costs zero: driver-side per-call CPU/off-CPU split
    wl = make_engine_workload(name, seed, modeled=False)
    wl.setup()
    closed = closed_loop(wl, part, wl.per_turn)
    opened = open_loop(wl, part, wl.open_rate)
    wl.grade(wl.qos)
    tally.add(wl)
    record.update(wl.properties(), offered_rate_per_s=wl.open_rate)
    rows += layer_rows(wl.meter, "")
    base_rate = closed["rate"]
    meter = wl.meter
    m["driver.cpu_share"] = 1 - closed["call_cpu_ns"] / closed["cpu_ns"]
    m["driver.host_speed"] = closed["host_speed"]
    m["driver.late_p99_ms"] = opened["late_p99_ms"]
    m["driver.lat_p99_ms"] = opened["window_p99_ms"]
    m["driver.lat_p999_ms"] = opened["p999_ms"]
    m["driver.lat_p99_phase_ms"] = opened["p99_ms"]
    m["driver.lat_samples"] = opened["samples"]
    _, events, check_wall, _ = meter.get("core.check_correctness")
    m["core.check_correctness.ms_per_100k_events"] = check_wall / max(1, events) * 1e5 / 1e6
    if name == "log-quorum":
        append_calls, appended, _, _ = meter.get("logbroker.append_batch")
        fetch_calls, fetched, _, _ = meter.get("logbroker.fetch")
        m.update({
            "logbroker.append_batch.cpu_us_per_msg": meter.per_item("logbroker.append_batch", "cpu", 1e3),
            "logbroker.append_batch.offcpu_us_per_msg": meter.per_item("logbroker.append_batch", "offcpu", 1e3),
            "logbroker.append_batch.msgs_per_call": appended / max(1, append_calls),
            "logbroker.fetch.cpu_us_per_msg": meter.per_item("logbroker.fetch", "cpu", 1e3),
            "logbroker.fetch.msgs_per_call": fetched / max(1, fetch_calls),
            "logbroker.partition_for.cpu_us_per_call": meter.per_call("logbroker.partition_for", "cpu", 1e3),
            "logbroker.commit_offset.cpu_us_per_call": meter.per_call("logbroker.commit_offset", "cpu", 1e3),
            "logbroker.purge.cpu_ms_per_call": meter.per_call("logbroker.purge", "cpu", 1e6),
            "logbroker.purge.msgs_removed": meter.get("logbroker.purge")[1],
            "logbroker.consumer_lag_max": wl.lag_max,
        })
    else:
        eng = wl.engine
        m.update({
            "exchbroker.publish.cpu_us_per_msg": meter.per_item("exchbroker.publish", "cpu", 1e3),
            "exchbroker.publish.offcpu_us_per_msg": meter.per_item("exchbroker.publish", "offcpu", 1e3),
            "exchbroker.pull.cpu_us_per_msg": meter.per_item("exchbroker.pull", "cpu", 1e3),
            "exchbroker.ack.cpu_us_per_call": meter.per_call("exchbroker.ack", "cpu", 1e3),
            "exchbroker.publish.routed_per_msg": wl.routed / max(1, wl.publishes),
            "exchbroker.pull.empty_share": wl.empty_pulls / max(1, wl.pulls),
            "exchbroker.audit_depth": eng.queue_depth("audit"),
            "exchbroker.audit_spilled": eng.spilled_entry_count("audit"),
            "exchbroker.route_key_repeat_share": wl.repeat_share(),
            "exchbroker.payload_bytes": eng.payload_bytes(),
        })
    wl = None

    # B: the same closed loop with span wrappers installed
    wl = make_engine_workload(name, seed, modeled=False)
    wl.setup()
    closed_b, spans, tracer = traced_pass(wl, lambda: closed_loop(wl, 2 * part, wl.per_turn))
    wl.grade(wl.qos)
    tally.add(wl)
    m["driver.trace_overhead"] = closed_b["rate"] / base_rate
    m.update(span_metrics(spans, tracer.hits))
    record["spans"] = write_spans(tracer, name)
    rows += span_rows(spans)
    wl = tracer = spans = None

    # C: the engines' default modeled device costs, untraced: the sleeps
    # show up as off-CPU time, not as engine CPU
    wl = make_engine_workload(name, seed, modeled=True)
    wl.setup()
    closed_loop(wl, part if name == "log-quorum" else 2 * part, wl.per_turn)
    wl.grade(wl.qos)
    tally.add(wl)
    rows += layer_rows(wl.meter, "modeled ")
    layer = "logbroker.append_batch" if name == "log-quorum" else "exchbroker.publish"
    m[f"modeled.{layer}.cpu_us_per_msg"] = wl.meter.per_item(layer, "cpu", 1e3)
    m[f"modeled.{layer}.offcpu_us_per_msg"] = wl.meter.per_item(layer, "offcpu", 1e3)
    wl = None

    if name == "log-quorum":
        # D: segment files written under the checkout, device costs zero;
        # one second covers ten flush intervals and keeps disk traffic small
        data = tmp / "data"
        wl = make_engine_workload(name, seed, modeled=False, data_dir=data)
        wl.setup()
        closed_d = closed_loop(wl, min(part, 1.0), wl.per_turn)
        wl.grade(wl.qos)
        tally.add(wl)
        rows += layer_rows(wl.meter, "persist ")
        written = closed_d["write_bytes"]
        m["logbroker.write_bytes_per_payload_byte"] = (
            -1.0 if written is None else written / max(1, closed_d["payload_bytes"])
        )
        m["logbroker.persist.append_batch.cpu_us_per_msg"] = wl.meter.per_item("logbroker.append_batch", "cpu", 1e3)
        m["logbroker.persist.append_batch.offcpu_us_per_msg"] = wl.meter.per_item("logbroker.append_batch", "offcpu", 1e3)
        wl = None
        shutil.rmtree(data, ignore_errors=True)
    return m


# --------------------------------------------------------------------------
# harness workload
# --------------------------------------------------------------------------

def harness_gated(seed: int, seconds: float, tally: Tally, record: dict) -> dict:
    from common import median, nearest_rank
    from harness_faults import HarnessFaults

    setups = []
    wl = None
    for _ in range(SETUPS):
        wl = None
        wl = HarnessFaults(seed)
        setups.append(timed_setup(wl))
    res = wl.closed_loop(seconds, first_pass=True)
    tally.add(wl)
    record.update(wl.properties(), journals_sha256=wl.digest,
                  raw_throughput_per_s=res["scenarios"] / res["wall_ns"] * 1e9,
                  host_speed=res["host_speed"])
    return {
        "throughput_per_s": res["rate"],
        "cpu_us_per_op": res["cpu_ns_per_scenario"] / 1e3,
        "lat_p50_ms": nearest_rank(res["lat"], 50) / 1e6,
        "lat_p95_ms": nearest_rank(res["lat"], 95) / 1e6,
        "lat_p99_ms": nearest_rank(res["lat"], 99) / 1e6,  # printed, not gated
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def harness_traced(seed: int, seconds: float, tally: Tally, record: dict, rows: list) -> dict:
    from common import nearest_rank
    from harness_faults import HarnessFaults

    m = {}
    wl = HarnessFaults(seed)
    wl.setup()
    res = wl.closed_loop(seconds / 2, first_pass=True)
    tally.add(wl)
    record.update(wl.properties(), journals_sha256=wl.digest)
    rows += layer_rows(wl.meter, "")
    meter = wl.meter
    m["driver.cpu_share"] = 1 - res["call_cpu_ns"] / res["cpu_ns"]
    m["driver.host_speed"] = res["host_speed"]
    m["driver.lat_p99_ms"] = nearest_rank(res["lat"], 99) / 1e6
    m["driver.lat_p999_ms"] = nearest_rank(res["lat"], 99.9) / 1e6
    m["driver.lat_samples"] = len(res["lat"])
    m["harness.run_scenario.log_ms"] = meter.per_call("harness.run_scenario.log", "wall", 1e6)
    m["harness.run_scenario.exch_ms"] = meter.per_call("harness.run_scenario.exch", "wall", 1e6)
    m["harness.random_scenario.ms_per_call"] = meter.per_call("harness.random_scenario", "wall", 1e6)
    m["harness.journal_events"] = wl.journal_events
    m["harness.fault_events"] = wl.properties()["fault_events"]
    base_rate = res["rate"]
    wl = None

    wl = HarnessFaults(seed)
    wl.setup()
    res_b, spans, tracer = traced_pass(wl, lambda: wl.closed_loop(seconds / 2, first_pass=False))
    tally.add(wl)
    m["driver.trace_overhead"] = res_b["rate"] / base_rate
    m.update(span_metrics(spans, tracer.hits))
    check = spans.get("core.check_correctness", {"wall": 0})
    m["core.check_correctness.ms_per_100k_events"] = check["wall"] / max(1, res_b["events"]) * 1e5 / 1e6
    record["spans"] = write_spans(tracer, "harness-faults")
    rows += span_rows(spans)
    return m


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def human_lines(workload: str, metrics: dict, tally: Tally) -> list:
    """The end-to-end metrics under the names a reader of this workload
    expects, each with its unit."""
    harness = workload == "harness-faults"
    rate = "scenarios_per_s" if harness else "throughput_mps"
    cpu = "cpu_us_per_scenario" if harness else "cpu_us_per_msg"
    err = tally.failed / max(1, tally.attempted)
    return [
        f"  {rate:<22} {metrics['throughput_per_s']:.2f} 1/s",
        f"  {cpu:<22} {metrics['cpu_us_per_op']:.2f} us",
        f"  {'lat_p50_ms':<22} {metrics['lat_p50_ms']:.4f} ms",
        f"  {'lat_p95_ms':<22} {metrics['lat_p95_ms']:.4f} ms",
        f"  {'lat_p99_ms':<22} {metrics['lat_p99_ms']:.4f} ms (not gated)",
        f"  {'setup_s':<22} {metrics['setup_s']:.4f} s",
        f"  {'error_rate':<22} {err:.6f} ratio ({tally.failed}/{tally.attempted})",
        f"  {'peak_rss_mb':<22} {metrics['peak_rss_mb']:.1f} MB",
    ]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "duolog" / "__init__.py").is_file():
        print(f"perfbench: no duolog sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import duolog
    from drive import read_wchar

    if Path(duolog.__file__).resolve().parent != (SRC / "duolog").resolve():
        print(f"perfbench: imported duolog from {duolog.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    tally = Tally()
    rows: list = []
    tmp = ROOT / TMP_DIR / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    record["data_dir_fs"] = fs_type(tmp)
    record["write_counter"] = "unavailable" if read_wchar() is None else "/proc/self/io wchar"
    try:
        if args.workload == "harness-faults":
            if args.trace:
                metrics = harness_traced(args.seed, args.seconds, tally, record, rows)
            else:
                metrics = harness_gated(args.seed, args.seconds, tally, record)
        elif args.trace:
            metrics = engine_traced(args.workload, args.seed, args.seconds, tally, record, tmp, rows)
        else:
            metrics = engine_gated(args.workload, args.seed, args.seconds, tally, record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / TMP_DIR).rmdir()
        except OSError:
            pass

    print("record " + json.dumps(record, sort_keys=True))
    if args.trace:
        names = PER_LAYER
        print(f"  {'layer':<52} {'calls':>9} {'items':>9} {'cpu_us/call':>12} {'offcpu_us/call':>15}")
        for name, calls, items, cpu, off in rows:
            print(f"  {name:<52} {calls:>9} {items:>9} {cpu:>12.2f} {off:>15.2f}")
        out = {n: {"value": float(metrics.get(n, 0.0)), "unit": unit} for n, unit in names.items()}
        for n, v in out.items():
            print(f"  {n:<52} {v['value']:.6g} {v['unit']}")
        print(f"  {'error_rate':<52} {tally.failed / max(1, tally.attempted):.6f} ratio"
              f" ({tally.failed}/{tally.attempted})")
    else:
        for line in human_lines(args.workload, metrics, tally):
            print(line)
        out = {n: {"value": float(metrics[n]), "unit": unit} for n, unit in END_TO_END.items()}
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
