"""The deterministic demos print the same bytes as when these digests were
taken, run from a directory other than the repository's.  A change that
moves one of them has changed what the library does, or the demo."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "advisor_tour": "d567f8d7c1ec60fb30333df0610ad4b88b28add53ffddfe2d20141b0a8fa0c4a",
    "exchange_engine_tour": "500743433f59d9fc01725030f1ae0879a9b35a0c75325312f0f0e40037d9148b",
    "fault_scenarios_tour": "9195f9216f8aed34c564f076990b3570f8ae77fa78b4cc4f8a2cd8dff5720a5e",
    "log_engine_tour": "439a587cb37ee4fe69ba55908079c9f165b1c9175ed5f4c60df89abd4ff3ad8d",
}


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_output_is_pinned(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[demo]
