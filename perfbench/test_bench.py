"""Determinism of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench

One seed must yield identical inputs in separate interpreters, another seed
different ones where the workload draws from it (``sweep`` and ``oracle``
enumerate fixed grids), and two traced runs must give identical call
counts, work counters and cache statistics.  Only span times may differ.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    first = run.launch(workload, 7, "--setup-only")["digest"]
    again = run.launch(workload, 7, "--setup-only")["digest"]
    other = run.launch(workload, 8, "--setup-only")["digest"]
    assert first == again
    assert (first != other) == (workload in ("homology", "queries"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counters_repeat(workload):
    a = run.launch(workload, 3, "--trace")
    b = run.launch(workload, 3, "--trace")
    assert a["failed"] == b["failed"] == 0
    assert a["absent"] == []
    listed = {m["name"] for m in SPEC["per_layer"]}
    assert set(a["layers"]) | {"trace.overhead_s"} == listed
    exact = {k: v for k, v in a["layers"].items() if not k.endswith(".self_s")}
    assert exact == {k: b["layers"][k] for k in exact}
