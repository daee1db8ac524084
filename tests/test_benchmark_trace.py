"""The benchmark's traced runs exit 0 and check every output.

``perfbench/run.py --trace 1`` exits 1 when any count or ratio metric
differs between its passes, the first of which fills the memos cold, or
when a function it traces has gone missing.  So a memo whose cold fill
makes Scalar work, or a renamed traced function, shows up here as well as
in the benchmark.  Each run is short: one second of passes per workload.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["catalog", "verify", "describe"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
