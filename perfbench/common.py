"""Timing, statistics and span tracing shared by the perfbench workloads.

Everything here is the benchmark's own code: percentiles, counters and
spans never come from `duolog.bench`, so a change to that module cannot
move the measurement.
"""

from __future__ import annotations

import functools
import math
import time
from array import array

perf_ns = time.perf_counter_ns
thread_ns = time.thread_time_ns


def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    k = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[min(k, n) - 1]


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


# Host speed.  On a shared virtual machine the speed of pure-Python code
# drifts by tens of percent, at times by 2x, over seconds to minutes; CPU
# time drifts with it, so it is contention, not lost time slices.  Every
# end-to-end timing is therefore scaled to a reference speed: a fixed
# kernel is timed every PROBE_EVERY_NS between units of work, and the host
# runs at speed REF_KERNEL_NS / (kernel time).  The program's own speed-ups
# move the scaled numbers fully; the host's drift mostly cancels.
REF_KERNEL_NS = 400_000
PROBE_EVERY_NS = 50_000_000
WARM_PROBES = 5
WINDOW_NS = 500_000_000


def _kernel() -> int:
    """Fixed dict, list and sort work; never change it, or scaled numbers
    stop being comparable with earlier runs."""
    d: dict = {}
    items = []
    for i in range(1000):
        k = i & 255
        d[k] = d.get(k, 0) + i
        items.append((k, i))
    items.sort()
    return len(d) + len(items)


class HostSpeed:
    """Kernel timings taken between units of work, and the time they took
    (so callers can leave it out of what they measure)."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.paused_ns = 0
        self.paused_cpu_ns = 0
        self.last = 0
        for _ in range(WARM_PROBES):
            self.probe()

    def probe(self) -> None:
        c0 = time.process_time_ns()
        t0 = perf_ns()
        _kernel()
        t1 = perf_ns()
        self.paused_cpu_ns += time.process_time_ns() - c0
        self.samples.append(t1 - t0)
        self.paused_ns += t1 - t0
        self.last = t1

    def maybe_probe(self, now: int) -> None:
        if now - self.last >= PROBE_EVERY_NS:
            self.probe()

    def factor(self, since=None) -> float:
        """Host speed over the samples from index `since` on, or over the
        last 8 when `since` is None or no sample is newer; above 1 the host
        is faster than the reference."""
        recent = self.samples[since:] if since is not None else []
        return REF_KERNEL_NS / median(recent or self.samples[-8:])


class Windows:
    """Scaled rate and CPU per item over consecutive windows of a phase.

    The median window resists stalls and short slow spells that the phase
    total would absorb; the host-speed scaling removes most of the slower
    drift.  Probe time is left out of each window.
    """

    def __init__(self, done: int) -> None:
        self.speed = HostSpeed()
        self.rates: list[float] = []
        self.cpu_per_item: list[float] = []
        self.factors: list[float] = []
        self._start(done)

    def _start(self, done: int) -> None:
        self._t = perf_ns()
        self._cpu = time.process_time_ns()
        self._done = done
        self._paused = self.speed.paused_ns
        self._paused_cpu = self.speed.paused_cpu_ns
        self._first_sample = len(self.speed.samples)

    def tick(self, done: int) -> None:
        now = perf_ns()
        self.speed.maybe_probe(now)
        if now - self._t < WINDOW_NS:
            return
        speed = self.speed
        n = done - self._done
        wall = perf_ns() - self._t - (speed.paused_ns - self._paused)
        cpu = time.process_time_ns() - self._cpu - (speed.paused_cpu_ns - self._paused_cpu)
        if n:
            f = speed.factor(self._first_sample)
            self.factors.append(f)
            self.rates.append(n / wall * 1e9 / f)
            self.cpu_per_item.append(cpu / n * f)
        self._start(done)

    def medians(self, total_rate: float, total_cpu_per_item: float) -> tuple[float, float]:
        """Median scaled rate and CPU per item, or the scaled phase totals
        when the phase was too short for a whole window."""
        if not self.rates:
            f = self.speed.factor()
            return total_rate / f, total_cpu_per_item * f
        return median(self.rates), median(self.cpu_per_item)

    def host_factor(self) -> float:
        return median(self.factors) if self.factors else self.speed.factor()


class LatencyLog:
    """Due time and scaled latency of every open-loop message."""

    def __init__(self) -> None:
        self.due = array("q")
        self.scaled = array("d")
        self.factor = 1.0  # host speed when the samples are recorded

    def record(self, returned: int, dues) -> None:
        f = self.factor
        for due in dues:
            self.due.append(due)
            self.scaled.append((returned - due) * f)

    def summary(self, t0: int, window_ns: int, windows: int) -> dict:
        """Percentiles over the whole phase, and the median over whole
        windows (by due time) of each window's p50, p95 and p99, which a
        few host stalls cannot move the way they move the phase
        percentiles."""
        lat = sorted(self.scaled)
        per_window: list[list[float]] = [[] for _ in range(windows)]
        for due, v in zip(self.due, self.scaled):
            w = (due - t0) // window_ns
            if w < windows:
                per_window[w].append(v)
        per_window = [sorted(v) for v in per_window if v]
        if not per_window:
            per_window = [lat]
        return {
            "p50_ms": nearest_rank(lat, 50) / 1e6,
            "p99_ms": nearest_rank(lat, 99) / 1e6,
            "p999_ms": nearest_rank(lat, 99.9) / 1e6,
            "samples": len(lat),
            "window_p50_ms": median([nearest_rank(v, 50) for v in per_window]) / 1e6,
            "window_p95_ms": median([nearest_rank(v, 95) for v in per_window]) / 1e6,
            "window_p99_ms": median([nearest_rank(v, 99) for v in per_window]) / 1e6,
            "windows": len(per_window),
        }


class Meter:
    """Per-layer accounting of the calls the driver makes into the program.

    Each timed call costs one `perf_counter_ns` pair and one
    `thread_time_ns` pair, so wall time splits into CPU and off-CPU time
    (sleeps, blocking writes).  A layer's record is
    `[calls, items, wall_ns, cpu_ns]`; `items` is whatever the caller counts
    (messages, scenarios).
    """

    def __init__(self) -> None:
        self.layers: dict[str, list] = {}
        self.last_end = 0

    def call(self, name: str, fn, *args):
        w0 = perf_ns()
        c0 = thread_ns()
        result = fn(*args)
        c1 = thread_ns()
        w1 = perf_ns()
        rec = self.layers.get(name)
        if rec is None:
            rec = self.layers[name] = [0, 0, 0, 0]
        rec[0] += 1
        rec[2] += w1 - w0
        rec[3] += c1 - c0
        self.last_end = w1
        return result

    def count(self, name: str, items: int) -> None:
        rec = self.layers.get(name)
        if rec is None:
            rec = self.layers[name] = [0, 0, 0, 0]
        rec[1] += items

    def get(self, name: str) -> list:
        return self.layers.get(name, [0, 0, 0, 0])

    def cpu_ns(self) -> int:
        return sum(rec[3] for rec in self.layers.values())

    def per_item(self, name: str, field: str, scale_ns: float) -> float:
        """CPU or off-CPU time per counted item, in units of `scale_ns`."""
        calls, items, wall, cpu = self.get(name)
        if not items:
            return 0.0
        value = cpu if field == "cpu" else wall - cpu
        return value / items / scale_ns

    def per_call(self, name: str, field: str, scale_ns: float) -> float:
        calls, items, wall, cpu = self.get(name)
        if not calls:
            return 0.0
        value = {"cpu": cpu, "wall": wall, "offcpu": wall - cpu}[field]
        return value / calls / scale_ns


class Tracer:
    """In-memory spans around calls into the program's layers.

    A span holds its name, start, end, thread CPU time, parent span and the
    request id the driver set when it began.  Spans live in flat arrays so
    a few hundred thousand of them stay small; `write` dumps them when the
    run ends.  Wrappers are installed only for the traced pass and removed
    afterwards, so the gated pass runs unwrapped code.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.cpu = array("q")
        self.parent = array("i")
        self.request = array("q")
        self.hits: dict[str, int] = {}
        self.request_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, count_hits: bool = False):
        idx = self._name_idx.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
            self.hits[name] = 0
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_of.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.start.append(0)
            self.end.append(0)
            self.cpu.append(0)
            stack.append(i)
            w0 = perf_ns()
            c0 = thread_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = thread_ns()
                w1 = perf_ns()
                stack.pop()
                self.start[i] = w0
                self.end[i] = w1
                self.cpu[i] = c1 - c0
            if count_hits and result:
                self.hits[name] += 1
            return result

        return traced

    def install(self, targets) -> None:
        """`targets` holds (owner, attribute, span name, count_hits)."""
        for owner, attr, name, count_hits in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count_hits))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict]:
        """Per span name: count, wall, CPU, and self wall/CPU (the span
        minus the time its direct children cover)."""
        n = len(self.start)
        child_wall = [0] * n
        child_cpu = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_wall[p] += self.end[i] - self.start[i]
                child_cpu[p] += self.cpu[i]
        out = {
            name: {"count": 0, "wall": 0, "cpu": 0, "self_wall": 0, "self_cpu": 0}
            for name in self.names
        }
        for i in range(n):
            t = out[self.names[self.name_of[i]]]
            wall = self.end[i] - self.start[i]
            t["count"] += 1
            t["wall"] += wall
            t["cpu"] += self.cpu[i]
            t["self_wall"] += wall - child_wall[i]
            t["self_cpu"] += self.cpu[i] - child_cpu[i]
        return out

    def write(self, path) -> int:
        """Write the spans as tab-separated lines; returns the span count."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tcpu_ns\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.cpu[i]}\t{self.parent[i]}\t{self.request[i]}\n"
                )
        return len(self.start)
