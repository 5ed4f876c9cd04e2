"""Alternated parent/change runs of one benchmark workload, summarized.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seed 7] [--pairs 10]

PARENT and CHANGE are two checkouts of the repository.  Each pair runs

    <this interpreter> <checkout>/perfbench/run.py --workload W --seed S --seconds T --trace 0

once per side, one process at a time, the parent first in odd pairs and
the change first in even ones, and reads the JSON result on the last
line of each run's standard output.  T is the ``run_seconds`` of the
parent's ``BENCHMARK.json``, the same for both sides, and a summary
takes at least 10 pairs.  For each end-to-end metric of the
parent's ``BENCHMARK.json`` it then prints the parent's median [first
and third quartile] -> the change's, the relative change of the medians,
the pairs in which the change's value was lower, and whether the
change's median is worse than the parent's by more than the metric's
bound.  A metric whose parent quartiles lie further apart than bound x
the parent's median is marked ``unresolved``: its run-to-run spread is
wider than the bound, so a median inside the bound does not show it
unchanged.  The mark is left off when every change run beats every
parent run.  The ``failed`` and ``attempted`` totals of each side follow.  A
run without a result line stops the tool with exit status 1.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10


class NoResultError(RuntimeError):
    """A benchmark run printed no JSON result line."""


def parse_result(stdout: str) -> dict:
    """The JSON object on the last nonblank line of a run's output."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise NoResultError("the run printed no result line") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise NoResultError("the last line is not a benchmark result")
    return result


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout)
    except NoResultError as exc:
        raise NoResultError(f"{checkout}: {exc} (exit {proc.returncode})\n"
                            f"{proc.stderr[-2000:]}") from None


def _quartiles(values: list[float]) -> tuple[float, float]:
    """(first quartile, third quartile)"""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _spread(values: list[float]) -> str:
    """median [first quartile, third quartile]"""
    q1, q3 = _quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """Report lines for (parent result, change result) pairs, one line per
    end-to-end metric of ``BENCHMARK.json``, then the failure totals."""
    lines = []
    for m in end_to_end:
        name, bound = m["name"], m["bound"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        pm, cm = statistics.median(parent), statistics.median(change)
        rel = (cm - pm) / pm if pm else 0.0
        lower = sum(c < p for p, c in zip(parent, change))
        if m["better"] == "lower":
            worse, beats = cm > pm * (1 + bound), max(change) < min(parent)
        else:
            worse, beats = cm < pm * (1 - bound), min(change) > max(parent)
        q1, q3 = _quartiles(parent)
        unresolved = q3 - q1 > bound * abs(pm) and not beats
        lines.append(f"{name} ({m['unit']}): {_spread(parent)} -> {_spread(change)}  "
                     f"{rel:+.1%}  lower in {lower}/{len(pairs)}  "
                     f"worse by more than {bound:g}: {'YES' if worse else 'no'}"
                     + ("  unresolved" if unresolved else ""))
    for side, k in (("parent", 0), ("change", 1)):
        failed = sum(pair[k]["failed"] for pair in pairs)
        attempted = sum(pair[k]["attempted"] for pair in pairs)
        lines.append(f"{side}: failed {failed} of {attempted} attempted")
    return lines


def _pair_count(text: str) -> int:
    k = int(text)
    if k < MIN_PAIRS:
        raise argparse.ArgumentTypeError(f"at least {MIN_PAIRS} pairs, got {k}")
    return k


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=_pair_count, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end, seconds = bench["end_to_end"], bench["run_seconds"]
    pairs = []
    try:
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = run_once(getattr(args, side), args.workload, args.seed, seconds)
                run_s = got[side]["metrics"]["run_s"]["value"]
                print(f"pair {k} {side}: run_s {run_s:.4g}", file=sys.stderr, flush=True)
            pairs.append((got["parent"], got["change"]))
    except NoResultError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  "
          f"seconds {seconds}")
    print("\n".join(summarize(end_to_end, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
