"""Smoke test: every demo script runs to completion; 04 calls every
analysis entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_fir_noise_free_recovery.py",
    "02_noisy_arx_refinement.py",
    "03_two_sequences_shared_model.py",
    "04_uniqueness_certificates.py",
    "05_naive_baseline_comparison.py",
    "06_cli_workflow.py",
])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
