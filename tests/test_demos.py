"""The demos run end to end against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# 04_link_ber.py is left out: its BER curves take about a minute.
@pytest.mark.parametrize("name", ["01_fixed_point_datapath.py",
                                  "02_train_quantize_deliver.py",
                                  "03_error_propagation.py",
                                  "05_latency_budget.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))   # demo 02 writes a file
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    if name.startswith("02_"):
        assert "round trip bit-exact: True" in proc.stdout
