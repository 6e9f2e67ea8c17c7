"""The benchmark runs one round of each workload, its checks pass and it
reports every end-to-end metric BENCHMARK.json declares; a traced round
finds every library function it traces.

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


# Traced names the library no longer has; the benchmark still lists them.
STALE_TARGETS = {"fxlink.neuralnet.fx_linear",
                 "fxlink.neuralnet._forward_cached",
                 "fxlink.autoencoder._chain_forward",
                 "fxlink.autoencoder._chain_backward"}


def run_round(workload, trace):
    """(info, result): the last two JSON lines of one 0-second run."""
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line)
                    for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    return info, result


@pytest.mark.parametrize("workload", ["rayleigh", "awgn"])
def test_bench_one_round(workload):
    _, result = run_round(workload, 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["rayleigh", "awgn"])
def test_bench_traced_round(workload):
    # a trim or rename of a traced library function shows up in "absent"
    info, result = run_round(workload, 1)
    assert set(info["absent"]) <= STALE_TARGETS, info["absent"]
    # the link and the layer-error report call both forward passes through
    # the module, where the tracer wraps them, and each quantized codec's
    # .fmt splits the BER Monte-Carlo per Q-format
    metrics = result["metrics"]
    for name in ("neuralnet.forward_fixed.self_ms",
                 "neuralnet.forward_float.self_ms",
                 "metrics.layer_error_report.self_ms",
                 *(f"metrics.ber_sweep.bits.q{t}" for t in (16, 24, 32))):
        assert metrics[name]["value"] > 0, name
