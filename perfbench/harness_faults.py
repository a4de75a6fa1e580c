"""`harness-faults`: the correctness gate's own work, timed.

Seeded random fault scenarios for both engines, run through
`run_scenario` and graded by `verdict`.  It uses the engine layers the
opposite way from the engine workloads: thousands of short-lived engines,
tiny batches, one direct exchange with a single key, and the crash,
restart, catch-up, requeue and mirror-promotion paths, plus the harness
event loop and `check_correctness`.

Scenario seeds are the correctness gate's whole seed range (0-999 per
engine), so every benchmark seed runs the same scenario mix; the benchmark
seed picks where in the range the block starts.  The first pass over the
block is hashed (sha256 over every `journals_blob()`)
so two runs of the same code can be compared byte for byte; later passes
replay the same scenarios and must reproduce each blob exactly.
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import time
import traceback

from common import Meter, Windows, perf_ns

from duolog import harness

GATE_SEEDS = 1000
ENGINES = ("log", "exch")


class HarnessFaults:
    name = "harness-faults"

    def __init__(self, seed: int) -> None:
        start = random.Random(seed).randrange(GATE_SEEDS)
        self.seeds = [(start + i) % GATE_SEEDS for i in range(GATE_SEEDS)]
        self.meter = Meter()
        self.scenarios: list = []
        self.failed = 0
        self.tracer = None
        self.digest = None
        self.journal_events = 0  # exact count over the first pass

    def setup(self) -> None:
        """Generate the scenario block."""
        meter = self.meter
        self.scenarios = [
            meter.call("harness.random_scenario", harness.random_scenario, engine, s)
            for s in self.seeds
            for engine in ENGINES
        ]
        meter.count("harness.random_scenario", len(self.scenarios))

    def attempted(self) -> int:
        return sum(rec[0] for rec in self.meter.layers.values())

    def closed_loop(self, seconds: float, first_pass: bool) -> dict:
        """Run scenarios back to back for `seconds`; returns raw totals and
        the median over half-second windows of rate and CPU per scenario
        scaled to the reference host speed; latencies are scaled too.  With
        `first_pass` the phase also runs until the whole block has run
        once, and hashes the journals of that pass."""
        meter = self.meter
        n = len(self.scenarios)
        sha = hashlib.sha256()
        blob_hashes: dict[int, int] = {}
        lat: list[int] = []
        events = 0
        done = 0
        gc.collect()
        windows = Windows(0)
        speed = windows.speed
        paused0, paused_cpu0 = speed.paused_ns, speed.paused_cpu_ns
        call_cpu0 = meter.cpu_ns()
        cpu0 = time.process_time_ns()
        t0 = perf_ns()
        end = t0 + int(seconds * 1e9)
        i = 0
        while perf_ns() < end or (first_pass and i < n):
            sc = self.scenarios[i % n]
            if self.tracer is not None:
                self.tracer.request_id = i
            started = perf_ns()
            try:
                res = meter.call(f"harness.run_scenario.{sc.engine}", harness.run_scenario, sc)
                lat.append((meter.last_end - started) * speed.factor())
                verdict = meter.call("harness.verdict", harness.verdict, res.report, sc.qos)
                blob = meter.call("harness.journals_blob", res.journals_blob)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                i += 1
                continue
            meter.count(f"harness.run_scenario.{sc.engine}", 1)
            events += len(res.produced) + len(res.consumed)
            if not verdict.passed:
                self.failed += 1
            if i < n:
                sha.update(blob.encode())
                blob_hashes[i] = hash(blob)
                self.journal_events += len(res.produced) + len(res.consumed)
            elif blob_hashes.get(i % n, hash(blob)) != hash(blob):
                self.failed += 1  # a replay diverged from the first pass
            done += 1
            i += 1
            windows.tick(done)
        wall = perf_ns() - t0 - (speed.paused_ns - paused0)
        cpu = time.process_time_ns() - cpu0 - (speed.paused_cpu_ns - paused_cpu0)
        if first_pass:
            self.digest = sha.hexdigest()
        lat.sort()
        rate, cpu_per_scenario = windows.medians(done / wall * 1e9, cpu / max(1, done))
        return {
            "rate": rate,
            "cpu_ns_per_scenario": cpu_per_scenario,
            "host_speed": windows.host_factor(),
            "scenarios": done,
            "wall_ns": wall,
            "cpu_ns": cpu,
            "call_cpu_ns": meter.cpu_ns() - call_cpu0,
            "lat": lat,
            "events": events,
        }

    def properties(self) -> dict:
        return {
            "scenario_seeds": f"{self.seeds[0]}..{self.seeds[-1]} (mod {GATE_SEEDS})",
            "scenarios_per_pass": len(self.seeds) * len(ENGINES),
            "fault_events": sum(len(sc.faults.events) for sc in self.scenarios),
        }
