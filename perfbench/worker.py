"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED [--setup-only] [--trace]

Imports ``twisthom`` from the checkout's ``src/`` only.
Every ``lru_cache`` starts cold, as in a user's own run.  Prints one JSON
object: the monotonic time at which set-up ended (the caller knows when it
launched the interpreter), the inputs' digest, and unless ``--setup-only``
the operation statistics and, with ``--trace``, the per-layer metrics.
An operation that raises or fails its check counts as failed.

A speed probe (``speed.py``) runs after set-up and, on a timer, every
``PROBE_INTERVAL_S`` while the operations run; each latency is reported
without the probes' time and scaled to reference speed by the probes
during and around it.  ``raw_run_s`` keeps the unscaled sum.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import speed

# Wall time between two speed probes; a probe takes about 2 ms.
PROBE_INTERVAL_S = 0.05

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def median_hd(ordered: list[float]) -> float:
    """Harrell-Davis estimate of the median of ascending ``ordered``.

    A weighted mean of the order statistics, with the weights that the
    Beta((n+1)/2, (n+1)/2) distribution gives to each rank.  Unlike the
    middle sample it does not jump when two samples near the middle swap
    places, which matters where the latencies have gaps (``homology`` has
    65 operations of very different sizes).  Ranks beyond sixteen standard
    deviations of the middle carry no weight that a float can hold and are
    skipped.
    """
    n = len(ordered)
    a = (n + 1) / 2
    reach = 16 * 0.5 / math.sqrt(n + 2)
    lo = max(int((0.5 - reach) * n), 0)
    hi = min(int((0.5 + reach) * n) + 1, n)
    cdf = [betainc(a, a, i / n) for i in range(lo, hi + 1)]
    return sum(ordered[i] * (cdf[i - lo + 1] - cdf[i - lo]) for i in range(lo, hi))


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest-ranked sample that still
    has ten samples above it (the lowest sample when there are fewer)."""
    return max(n - 11, 0)


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path.insert(0, SRC)
    import twisthom
    if os.path.dirname(os.path.dirname(os.path.abspath(twisthom.__file__))) != SRC:
        raise SystemExit(f"twisthom imported from {twisthom.__file__}, not from {SRC}")
    import workloads

    records = workloads.build(workload, seed)
    out = {"setup_end": time.monotonic(), "digest": workloads.digest(records),
           "setup_probe": speed.probe()}
    if "--setup-only" in argv:
        print(json.dumps(out))
        return 0

    tracer = None
    if "--trace" in argv:
        from tracer import Tracer
        tracer = Tracer().install(callers=(workloads,))

    # Tracing spans would count the probes' time, so a traced run is not
    # probed and its latencies stay unscaled.
    sampler = None if tracer else speed.Sampler(PROBE_INTERVAL_S)
    spans = []
    failed = 0
    errors = []
    if sampler:
        sampler.start()
    for record in records:
        run, check = workloads.OPERATIONS[record[0]]
        start = time.perf_counter()
        try:
            result = run(record)
        except Exception:
            spans.append((start, time.perf_counter()))
            failed += 1
            errors.append(traceback.format_exc(limit=3))
            continue
        spans.append((start, time.perf_counter()))
        try:
            ok = check(record, result)
        except Exception:
            ok = False
            errors.append(traceback.format_exc(limit=3))
        failed += not ok
    if sampler:
        sampler.stop()
        raw, latencies = zip(*(sampler.measure(*span) for span in spans))
    else:
        raw = latencies = [end - start for start, end in spans]

    ordered = sorted(latencies)
    out.update(
        attempted=len(records),
        failed=failed,
        errors=errors[:5],
        run_s=sum(latencies),
        raw_run_s=sum(raw),
        probe_s=statistics.median(sampler.speeds) if sampler else None,
        op_p50_ms=1e3 * median_hd(ordered),
        op_tail_ms=1e3 * ordered[tail_index(len(ordered))],
        tail_percentile=100.0 * max(len(ordered) - 10, 0) / len(ordered),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
