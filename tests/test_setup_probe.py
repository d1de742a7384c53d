"""The benchmark's cold set-up probe runs against the current package."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_setup_probe_prints_its_timings():
    for workload in ("sweep-configs", "sweep-general", "estimate-general"):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"), workload, "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        timings = json.loads(out)
        assert set(timings) == {"setup_s", "import.s", "config.load.ms",
                                "simulate.build_point.ms", "estimators.blmmse_operator.ms"}
        assert all(v > 0.0 for v in timings.values())
