"""Smoke runs of the benchmark, so that an API change that breaks it or its
span tracer shows up in the test suite.  Each run is one traced and one
untraced pass over a minimal job list and takes a few seconds."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["cli-desk", "census-large", "checks"])
def test_bench_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
