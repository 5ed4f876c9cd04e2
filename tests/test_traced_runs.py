"""Traced benchmark runs finish with every operation correct.

The benchmark's tracer (``perfbench/tracer.py``) wraps the linear-algebra
entry points and reads their positional arguments to count work, so a
change to those signatures breaks traced runs without failing any other
test.  This runs ``perfbench/worker.py`` with ``--trace`` in a fresh
interpreter, as the benchmark does, for the two workloads that between
them reach both callers of ``quotient_presentation``: the Koszul blocks
(``homology``) and the bar oracle (``oracle``).  About a second each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["homology", "oracle"])
def test_traced_run_has_no_failed_operation(workload):
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "7",
                          "--trace"], capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
    record = json.loads(run.stdout)
    assert record["attempted"] > 0
    assert record["failed"] == 0
    assert record["errors"] == []
