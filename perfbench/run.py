"""Benchmark for twisthom: end-to-end and per-layer metrics of four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--workload`` is one of sweep, homology, queries, oracle, or ``all``.
Each repetition runs ``perfbench/worker.py`` in a fresh interpreter, one
process at a time: a closed loop with a single caller.  Inside one process
twisthom's caches never reset, so repeating a workload there would time
cache hits; a fresh interpreter starts cold, like a user's own run.

With ``--trace 0`` the run first launches a few interpreters that only set
up, then repeats the workload while another repetition still fits in
``--seconds`` (at least once), and reports medians of:

    setup_s      launch until ``import twisthom`` is done and inputs are built
    run_s        wall time of the workload's operations
    op_p50_ms    median latency of one operation
    op_tail_ms   latency of the sample with exactly ten samples above it

``op_p50_ms`` is a Harrell-Davis estimate (``worker.median_hd``).
    peak_rss_mb  max RSS of the workload process

Every time is scaled to reference speed by the speed probe of ``speed.py``,
run next to each measurement: the host's speed swings too much for raw
times to compare between runs.  The unscaled medians are printed too.

``fail_ratio`` (wrong answers plus raised exceptions over operations
attempted) is printed with them and carried by the result's ``failed`` and
``attempted`` fields.  With ``--trace 1`` the run makes one untraced and
one traced repetition and reports the per-layer metrics listed in
``BENCHMARK.json``; ``trace.overhead_s`` is traced minus untraced unscaled run_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep", "homology", "queries", "oracle")
SETUP_SAMPLES = 8
LAUNCH_TIMEOUT_S = 170


class LaunchError(RuntimeError):
    pass


def launch(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker to completion and return its report, with set-up time."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    before = speed.probe()
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise LaunchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["raw_setup_s"] = report["setup_end"] - started
    report["setup_s"] = speed.scale(report["raw_setup_s"],
                                    (before + report["setup_probe"]) / 2)
    report["wall_s"] = time.monotonic() - started
    return report


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    launch(workload, seed, "--setup-only")  # compiles bytecode; not counted
    setups = [launch(workload, seed, "--setup-only") for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    deadline = time.monotonic() + seconds
    while not reps or time.monotonic() + max(r["wall_s"] for r in reps) <= deadline:
        reps.append(launch(workload, seed))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + reps),
        **{key: statistics.median(r[key] for r in reps)
           for key in ("run_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")},
    }
    print(f"unscaled medians: setup_s "
          f"{statistics.median(r['raw_setup_s'] for r in setups + reps):.6g}  run_s "
          f"{statistics.median(r['raw_run_s'] for r in reps):.6g}  probe "
          f"{statistics.median(r['probe_s'] for r in reps):.6g} s "
          f"(reference {speed.REFERENCE_S} s)")
    return metrics, setups + reps


def trace(workload: str, seed: int) -> tuple[dict, list[dict]]:
    launch(workload, seed, "--setup-only")
    plain = launch(workload, seed)
    traced = launch(workload, seed, "--trace")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["raw_run_s"] - plain["raw_run_s"]
    return layers, [plain, traced]


def result(workload: str, seed: int, seconds: int, traced: bool, spec: dict) -> dict:
    if traced:
        values, reports = trace(workload, seed)
        wanted = spec["per_layer"]
    else:
        values, reports = measure(workload, seed, seconds)
        wanted = spec["end_to_end"]
    runs = [r for r in reports if "attempted" in r]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    same_inputs = len({r["digest"] for r in reports}) == 1
    for r in runs:
        for err in r["errors"]:
            print(err, file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    print(f"workload {workload}  seed {seed}  repetitions {len(runs)}  "
          f"ops/rep {runs[0]['attempted']}  fail_ratio {failed / attempted:.6g}")
    if traced:
        absent = runs[-1]["absent"] + missing
        print(f"absent (reported as 0): {', '.join(absent) if absent else 'none'}")
    else:
        print(f"op_tail_ms is p{runs[0]['tail_percentile']:.3f} "
              f"of {runs[0]['attempted']} samples per repetition")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<52} {value:>14.6g} {m['unit']}")
    return {
        "correct": failed == 0 and same_inputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "twisthom", "__init__.py")):
        print("no src/twisthom here: run from the root of a twisthom checkout", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            out = result(name, args.seed, args.seconds, bool(args.trace), spec)
            if args.workload == "all":
                out = {"workload": name, **out}
            print(json.dumps(out), flush=True)
    except (LaunchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
