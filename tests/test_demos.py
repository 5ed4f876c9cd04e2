"""The demo scripts run to completion, and the oracle demo finds no mismatch."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    if script.name.startswith("04"):
        assert "MISMATCH" not in run.stdout
