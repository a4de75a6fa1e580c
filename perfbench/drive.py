"""Single-threaded closed- and open-loop drivers for the engine workloads.

A workload object supplies `new_messages(dues)`, `send(msgs)`,
`poll(lat)`, `tick(now)` and an `outstanding` count; the loops here own
the clock and scale what they measure to the reference host speed.
Nothing runs concurrently: the program's CPU time is the process's CPU
time minus the driver's own loop work.
"""

from __future__ import annotations

import gc
import random
import time
from array import array

from common import PROBE_EVERY_NS, HostSpeed, LatencyLog, Meter, Windows, nearest_rank, perf_ns

from duolog.core import Journal, JournalEvent, QoSConfig, check_correctness

SEQ_BITS = 32
PAYLOAD_SIZES = (64, 256, 1024, 4096)
# open-loop latency windows hold at least 1000 due messages, so a window's
# p99 has at least ten samples beyond it
MIN_WINDOW_SAMPLES = 1000
MIN_WINDOW_NS = 500_000_000


def read_wchar():
    """Bytes this process passed to write calls, or None if unreadable."""
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split(":")[1])
    except OSError:
        return None
    return None


class EngineWorkload:
    """Bookkeeping shared by the log and exchange workloads: seeded
    message generation, the produced/consumed record used for grading, and
    failure counts."""

    flows: tuple = ()

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.meter = Meter()
        prng = random.Random(seed ^ 0x5EED)
        self.payloads = {size: prng.randbytes(size) for size in PAYLOAD_SIZES}
        self.flow_index = {flow: i for i, flow in enumerate(self.flows)}
        self.next_seq = [0] * len(self.flows)
        # (flow index << 32 | seq) of every confirmed and every delivered message
        self.produced = array("q")
        self.consumed = array("q")
        # (produced, consumed) lengths where each phase ended
        self.phase_ends: list[tuple[int, int]] = []
        self.outstanding = 0
        self.failed = 0
        self.payload_sent = 0
        self.broken = False
        self.tracer = None

    def take_seq(self, flow: int) -> int:
        seq = self.next_seq[flow]
        self.next_seq[flow] = seq + 1
        return seq

    def code(self, msg) -> int:
        return (self.flow_index[msg.flow_id] << SEQ_BITS) | msg.seq_no

    def attempted(self) -> int:
        return sum(rec[0] for rec in self.meter.layers.values())

    def end_phase(self, lat=None) -> None:
        """Poll until everything confirmed is delivered (bounded), and mark
        the phase boundary: every phase is graded on its own."""
        drain_end = perf_ns() + 2_000_000_000
        while self.outstanding and not self.broken and perf_ns() < drain_end:
            self.poll(lat)
        self.phase_ends.append((len(self.produced), len(self.consumed)))

    def grade(self, qos: QoSConfig) -> None:
        """Grade everything confirmed and delivered, phase by phase, with
        the program's own checker; violations count as failures."""
        mask = (1 << SEQ_BITS) - 1
        p0 = c0 = 0
        for p1, c1 in self.phase_ends:
            produced, consumed = Journal(), Journal()
            for at in range(p0, p1):
                code = self.produced[at]
                flow, seq = self.flows[code >> SEQ_BITS], code & mask
                produced.append(flow, seq, JournalEvent.PRODUCED, at)
                produced.append(flow, seq, JournalEvent.CONFIRMED, at)
            for at in range(c0, c1):
                code = self.consumed[at]
                consumed.append(self.flows[code >> SEQ_BITS], code & mask, JournalEvent.DELIVERED, at)
            events = len(produced) + len(consumed)
            report = self.meter.call(
                "core.check_correctness", check_correctness, produced, consumed, qos
            )
            self.meter.count("core.check_correctness", events)
            self.failed += len(report.violations)
            p0, c0 = p1, c1


def closed_loop(wl: EngineWorkload, seconds: float, per_turn: int) -> dict:
    """Send `per_turn` new messages, then poll, as fast as the program
    answers.  Returns the phase totals (raw), and the median over
    half-second windows of rate and CPU per message scaled to the
    reference host speed."""
    gc.collect()
    windows = Windows(len(wl.consumed))
    speed = windows.speed
    wchar0 = read_wchar()
    sent0, got0 = wl.payload_sent, len(wl.consumed)
    driver0 = wl.meter.cpu_ns()
    paused0, paused_cpu0 = speed.paused_ns, speed.paused_cpu_ns
    cpu0 = time.process_time_ns()
    t0 = perf_ns()
    end = t0 + int(seconds * 1e9)
    turn = 0
    while not wl.broken:
        now = perf_ns()
        if now >= end:
            break
        if wl.tracer is not None:
            wl.tracer.request_id = turn
        turn += 1
        wl.tick(now)
        wl.send(wl.new_messages([now] * per_turn))
        wl.poll(None)
        windows.tick(len(wl.consumed))
    wall = perf_ns() - t0 - (speed.paused_ns - paused0)
    cpu = time.process_time_ns() - cpu0 - (speed.paused_cpu_ns - paused_cpu0)
    wchar1 = read_wchar()
    wl.end_phase()
    delivered = len(wl.consumed) - got0
    rate, cpu_per_msg = windows.medians(delivered / wall * 1e9, cpu / max(1, delivered))
    return {
        "rate": rate,
        "cpu_ns_per_msg": cpu_per_msg,
        "host_speed": windows.host_factor(),
        "delivered": delivered,
        "wall_ns": wall,
        "cpu_ns": cpu,
        "call_cpu_ns": wl.meter.cpu_ns() - driver0,
        "payload_bytes": wl.payload_sent - sent0,
        "write_bytes": None if wchar0 is None or wchar1 is None else wchar1 - wchar0,
    }


def open_loop(wl: EngineWorkload, seconds: float, rate: float) -> dict:
    """Offer `rate` messages per second at the reference host speed.

    The schedule is fixed in advance except that it follows the host's
    measured speed, so the program runs at the same share of its capacity
    however fast the host is at the moment.  Each message carries its due
    time as `produced_at`; its latency runs from that due time to the
    return of the fetch/pull call that delivered it, so a stall is charged
    to every message queued behind it, and is scaled to the reference
    speed.  `late` records how far behind schedule the generator handed
    each message to the program.
    """
    gc.collect()
    speed = HostSpeed()
    lat = LatencyLog()
    lat.factor = speed.factor()
    late: list[int] = []
    gap = 1e9 / rate
    t0 = perf_ns()
    end = t0 + int(seconds * 1e9)
    next_due = float(t0)
    while not wl.broken:
        now = perf_ns()
        if now >= end:
            break
        if now - speed.last >= PROBE_EVERY_NS:
            speed.probe()
            lat.factor = speed.factor()
        wl.tick(now)
        if next_due <= now:
            dues = []
            while next_due <= now:
                dues.append(int(next_due))
                next_due += gap / lat.factor
            msgs = wl.new_messages(dues)
            sent_at = perf_ns()
            late.extend(sent_at - d for d in dues)
            wl.send(msgs)
            wl.poll(lat)
        elif wl.outstanding:
            wl.poll(lat)
        else:
            while perf_ns() < next_due:
                pass
    wl.end_phase(lat)
    late.sort()
    window_ns = max(MIN_WINDOW_NS, int(MIN_WINDOW_SAMPLES / rate * 1e9))
    out = lat.summary(t0, window_ns, int(seconds * 1e9) // window_ns)
    out["late_p99_ms"] = nearest_rank(late, 99) / 1e6
    return out
