"""Smoke test: every workload, gated and traced, for a tiny duration.

    python3 perfbench/smoke_test.py [--seconds 0.6]

Each run is a fresh process, as the benchmark's contract requires.  The
test checks that every metric named in BENCHMARK.json is printed with its
unit, that the human-readable report names every end-to-end metric, that
no operation failed (error_rate 0), and that the benchmark refuses to run
without the program's sources.  It prints each run's report, so with a
longer `--seconds` it is also the one command that shows every metric of
every workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HUMAN = {
    "engine": ("throughput_mps", "cpu_us_per_msg"),
    "harness": ("scenarios_per_s", "cpu_us_per_scenario"),
}
COMMON = ("lat_p50_ms", "lat_p95_ms", "lat_p99_ms", "setup_s", "error_rate", "peak_rss_mb")


def run(args: list, cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def check_run(spec: dict, workload: str, seconds: float, trace: int) -> list:
    problems = []
    args = ["--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    proc = run(args, ROOT, 180)
    print(f"== {workload} trace={trace} exit={proc.returncode}")
    print(proc.stdout, end="")
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{workload}: correct={result['correct']} failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{workload}: {m['name']} printed as {got}")
    text = "\n".join(lines[:-1])
    if "error_rate" not in text or " 0.000000 ratio" not in text:
        problems.append(f"{workload} trace={trace}: error_rate missing or not 0")
    if not trace:
        names = HUMAN["harness" if workload == "harness-faults" else "engine"] + COMMON
        for name in names:
            if f"  {name} " not in text:
                problems.append(f"{workload}: {name} not printed")
    return problems


def check_bare_directory() -> list:
    """With only BENCHMARK.json and the benchmark's files the run must fail
    without printing a result."""
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(["--workload", "log-quorum", "--seed", "1", "--seconds", "1", "--trace", "0"], bare, 180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=0.6)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], args.seconds, trace)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
