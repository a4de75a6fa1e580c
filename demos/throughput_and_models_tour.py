#!/usr/bin/env python3
"""Tour of the benchmark harness and the analytic throughput models: a small
record-size sweep on the exchange engine, CSV export, fitting the model to
the measured points, and predictions from the bundled reference constants.

Desk-scale absolute numbers are hardware-bound; directions are what matter.
"""

import tempfile
from pathlib import Path

from duolog import model
from duolog.bench import WorkloadSpec, export, run_spill_comparison, run_throughput
from duolog.model import samples_from_throughput

print("=== record-size sweep on the exchange engine (short desk windows) ===")
spec = WorkloadSpec(producers=2, consumers=2, duration_s=1.0, warmup_s=0.25)
results = run_throughput("exch", spec, ("record_size", [100, 8192, 65536, 262144]))
for r in results:
    print(f"  {r.sweep_value:>7} B: {r.pps:>9.0f} pps  {r.bps / 1e6:7.2f} MB/s  "
          f"p50 {r.latency.p50_ms:.2f} ms")

out = Path(tempfile.mkdtemp()) / "sweep.csv"
export(results, out)
print(f"exported to {out}")

print("\n=== fit the exchange-form model to the measured sweep ===")
fit = model.fit(samples_from_throughput(results, "rabbit"), "rabbit")
print(f"  u_routing={fit.constants.u_routing:.3e} s/pkt  "
      f"u_byte={fit.constants.u_byte:.3e} s/byte")
print(f"  mean relative error {fit.mean_relative_error:.1%} over {fit.samples_used} points")
print("  (the residual is hardware-dependent; convergence is what is checked)")

print("\n=== predictions from the bundled reference constants ===")
print(f"  exchange form, 1 producer @ 100 B : "
      f"{model.predict_rabbit(1, 100, model.RABBIT_NO_REPLICATION):>9.0f} pps")
print(f"  exchange form, mirrored queue     : "
      f"{model.predict_rabbit(1, 100, model.RABBIT_MIRRORED):>9.0f} pps")
print(f"  log form (5 prod, 10 part, 5 topics, 4000 B effective): "
      f"{model.predict_kafka(5, 10, 5, 4000, model.KAFKA_ACKS0):>9.0f} pps")
print(f"  effective size is max(batch, record): "
      f"max(100, 4000) = {model.effective_size(100, 4000):.0f}")

print("\n=== spill degradation: the cost of outgrowing memory ===")
sc = run_spill_comparison(n_messages=400, backlog=120)
print(f"  steady-state p50: {sc.uncapped_p50_ms:.1f} ms in-memory vs "
      f"{sc.capped_p50_ms:.1f} ms with {sc.spill_read_fraction:.0%} spill reads "
      f"({sc.slowdown():.1f}x slower at a 10x read penalty)")
