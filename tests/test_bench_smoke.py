"""The benchmark runs one round of each workload, its checks pass and it
reports every end-to-end metric BENCHMARK.json declares.

A library change that breaks the benchmark fails here instead of only when
the benchmark itself is run.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["rayleigh", "awgn"])
def test_bench_one_round(workload):
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
