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
parent run.  The ``failed`` and ``attempted`` totals of each side follow.
The last line is the same summary as one JSON object (``summary_json``),
for saving beside the text.  A run without a result line stops the tool
with exit status 1.  Standard library only.
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


def _spread(values: list[float]) -> dict:
    """median, first quartile, third quartile"""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """Metric name -> the comparison of (parent result, change result)
    pairs on one end-to-end metric of ``BENCHMARK.json``: each side's
    median and quartiles, the relative change of the medians, the pairs
    in which the change was lower, and the ``worse`` and ``unresolved``
    marks."""
    out = {}
    for m in end_to_end:
        name, bound = m["name"], m["bound"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        ps, cs = _spread(parent), _spread(change)
        pm, cm = ps["median"], cs["median"]
        if m["better"] == "lower":
            worse, beats = cm > pm * (1 + bound), max(change) < min(parent)
        else:
            worse, beats = cm < pm * (1 - bound), min(change) > max(parent)
        out[name] = {"unit": m["unit"], "bound": bound, "parent": ps, "change": cs,
                     "relative": (cm - pm) / pm if pm else 0.0,
                     "lower": sum(c < p for p, c in zip(parent, change)), "pairs": len(pairs),
                     "worse": worse,
                     "unresolved": ps["q3"] - ps["q1"] > bound * abs(pm) and not beats}
    return out


def _totals(pairs: list[tuple[dict, dict]]) -> dict:
    """side -> its failed and attempted totals"""
    return {side: {key: sum(pair[k][key] for pair in pairs) for key in ("failed", "attempted")}
            for k, side in enumerate(("parent", "change"))}


def summarize(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """Report lines for (parent result, change result) pairs, one line per
    end-to-end metric of ``BENCHMARK.json``, then the failure totals."""
    lines = []
    for name, r in compare(end_to_end, pairs).items():
        p, c = r["parent"], r["change"]
        lines.append(f"{name} ({r['unit']}): {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
                     f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                     f"{r['relative']:+.1%}  lower in {r['lower']}/{r['pairs']}  "
                     f"worse by more than {r['bound']:g}: {'YES' if r['worse'] else 'no'}"
                     + ("  unresolved" if r["unresolved"] else ""))
    for side, t in _totals(pairs).items():
        lines.append(f"{side}: failed {t['failed']} of {t['attempted']} attempted")
    return lines


def summary_json(workload: str, seed: int, seconds: int, end_to_end: list[dict],
                 pairs: list[tuple[dict, dict]]) -> str:
    """The summary as one line of JSON: the run settings, ``compare`` of
    every end-to-end metric, and each side's failure totals."""
    return json.dumps({"workload": workload, "seed": seed, "pairs": len(pairs),
                       "seconds": seconds, "metrics": compare(end_to_end, pairs),
                       "totals": _totals(pairs)})


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
    print(summary_json(args.workload, args.seed, seconds, end_to_end, pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
