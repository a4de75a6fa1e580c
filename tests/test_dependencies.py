"""The package needs nothing outside the standard library: every module
imports, and both model forms fit, with numpy unimportable."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import pkgutil
import sys

sys.modules["numpy"] = None  # any `import numpy` now raises ImportError

import duolog
from duolog import model

for info in pkgutil.iter_modules(duolog.__path__):
    __import__(f"duolog.{info.name}")

rabbit = model.RabbitThroughputModel(u_routing=5.5e-5, u_byte=9.0e-9)
kafka = model.KafkaThroughputModel(u_routing=4.2e-4, u_topics=3.3e-7, u_byte=5.1e-6)
fits = [
    (rabbit, model.fit(
        [((p, s), model.predict_rabbit(p, s, rabbit))
         for p in (1, 2) for s in (100, 1000, 10_000)],
        "rabbit",
    )),
    (kafka, model.fit(
        [((p, pt, t, es), model.predict_kafka(p, pt, t, es, kafka))
         for p, pt in ((1, 1), (2, 4)) for t in (1, 5, 20) for es in (100, 10_000)],
        "kafka",
    )),
]
for truth, res in fits:
    for name, want in vars(truth).items():
        got = getattr(res.constants, name)
        assert abs(got - want) / want < 0.01, (name, got, want)
print("ok")
"""


def test_every_module_imports_and_both_forms_fit_without_numpy():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
