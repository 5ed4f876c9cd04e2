"""Traced benchmark runs finish with every operation correct.

The benchmark's tracer (``perfbench/tracer.py``) wraps entry points such
as ``boundary``, ``inversion_chain``, ``reduce`` and the linear algebra,
and reads their positional arguments to count work, so a change to those
signatures breaks traced runs without failing any other test.  This runs
``perfbench/worker.py`` with ``--trace`` in a fresh interpreter, as the
benchmark does, on all four workloads, and each operation checks its own
result: ``sweep`` decides the covered grid, the sharpness cells and the
examples; ``homology`` makes round trips through large presentations;
``queries`` runs its 57,600 chain-level law checks (the differential
squares to zero, Leibniz, graded commutativity, j as a chain map and
j o j = id on homology); ``oracle`` compares the small complex with the
bar resolution.  Between them they reach both callers of
``quotient_presentation``.  The tracer reports every ``lru_cache`` of the
package by its module and name, so each run also checks that the stores
the workload fills show up in the cache metrics.  About 3 s for
``queries``, a second or less for each of the others.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Stores that a workload fills, as the tracer's cache metrics name them.
STORES = {"queries": ("cache.chains._faces_table", "cache.pontryagin._record_table"),
          "oracle": ("cache.bar._reduced",)}


@pytest.mark.parametrize("workload", ["sweep", "homology", "queries", "oracle"])
def test_traced_run_has_no_failed_operation(workload):
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "7",
                          "--trace"], capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
    record = json.loads(run.stdout)
    assert record["attempted"] > 0
    assert record["failed"] == 0
    assert record["errors"] == []
    for store in STORES.get(workload, ()):
        assert record["layers"][f"{store}.currsize"] > 0
