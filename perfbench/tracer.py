"""Outside-in tracer for twisthom's layers.

``Tracer.install`` replaces each traced callable, in every ``twisthom``
namespace that binds it, by a wrapper that records a span.  Bindings are
matched by identity, because modules re-bind names through
``from .x import y`` (``criterion`` holds its own ``wedge`` and
``is_boundary``), so patching the defining module alone would miss calls.
Modules are looked up in ``sys.modules``: the attribute
``twisthom.homology`` is the function, not the module.  The benchmark's
own modules are patched the same way, so spans start at its calls.

Spans are aggregated in memory: calls and self time (span time minus the
time of child spans), which stays correct for recursive names such as
``homology_type``.  Some wrappers also keep work counters computed from
arguments and results.  A name that no longer exists is reported as
absent instead of failing.
"""

from __future__ import annotations

import sys
from time import perf_counter

TRACED = (
    "chains.basis",
    "chains.boundary",
    "chains.differential_matrix",
    "pontryagin.wedge",
    "pontryagin.inversion_chain",
    "snf.smith_normal_form",
    "snf.quotient_presentation",
    "snf.ColumnEchelon.add",
    "snf.ColumnEchelon.contains",
    "homology.homology",
    "homology.HomologyPresentation.reduce",
    "homology.HomologyPresentation.representative",
    "homology.is_boundary",
    "homology.generating_cycles",
    "homology.class_order",
    "homology.block_class_order",
    "homology.homology_type",
    "criterion.theorem_cover",
    "criterion.vanishes_for_all",
    "bar.bar_homology",
    "bar.chi_profile",
    "bar.shuffle_product",
    "bar.bar_inversion",
)

PACKAGE = "twisthom"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _count_wedge(c, args, kwargs, result):
    x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
    c["pontryagin.wedge.term_pairs"] += len(x.terms) * len(y.terms)
    c["pontryagin.wedge.zero"] += result.is_zero


def _count_smith(c, args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "matrix")
    ncols = _arg(args, kwargs, 1, "ncols")
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    c["snf.smith_normal_form.cells"] += len(matrix) * ncols


def _count_quotient(c, args, kwargs, result):
    e_cols = _arg(args, kwargs, 0, "e_columns")
    nrows = _arg(args, kwargs, 1, "nrows_e")
    d_cols = _arg(args, kwargs, 2, "d_columns")
    c["snf.quotient_presentation.cells"] += len(e_cols) * (nrows + len(d_cols))


def _count_is_boundary(c, args, kwargs, result):
    c["homology.is_boundary.true"] += bool(result)


def _count_generating_cycles(c, args, kwargs, result):
    c["homology.generating_cycles.cycles"] += len(result)


COUNTERS = {
    "pontryagin.wedge": _count_wedge,
    "snf.smith_normal_form": _count_smith,
    "snf.quotient_presentation": _count_quotient,
    "homology.is_boundary": _count_is_boundary,
    "homology.generating_cycles": _count_generating_cycles,
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {
            "pontryagin.wedge.term_pairs": 0,
            "pontryagin.wedge.zero": 0,
            "snf.smith_normal_form.cells": 0,
            "snf.quotient_presentation.cells": 0,
            "chains.differential_matrix.nnz": 0,
            "homology.is_boundary.true": 0,
            "homology.generating_cycles.cycles": 0,
        }
        self.absent: list[str] = []
        self.caches: dict[str, object] = {}
        self._stack: list[float] = []

    def install(self, callers=()) -> "Tracer":
        """Patch twisthom and the ``callers`` modules that imported from it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for modname, mod in sorted(modules.items()):
            for value in vars(mod).values():
                if hasattr(value, "cache_info") and getattr(value, "__module__", None) == modname:
                    short = modname[len(PACKAGE) + 1:]
                    self.caches.setdefault(f"cache.{short}.{value.__name__}", value)
        for name in TRACED:
            modname, *path = name.split(".")
            owner = modules.get(f"{PACKAGE}.{modname}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = vars(owner).get(path[-1]) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            for mod in (*modules.values(), *callers):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return self

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, self_s, counters = self.calls, self.self_s, self.counters
        calls[name] = 0
        self_s[name] = 0.0
        count = COUNTERS.get(name)
        if name == "chains.differential_matrix":
            # Count the nonzeros of matrices actually assembled, not of
            # ones handed back from the cache.
            misses = [fn.cache_info().misses]

            def count(c, args, kwargs, result):
                now = fn.cache_info().misses
                if now != misses[0]:
                    misses[0] = now
                    c["chains.differential_matrix.nnz"] += sum(map(len, result.columns))

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s[name] += elapsed - child
                calls[name] += 1
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics; absent names read as zero calls."""
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        c = self.counters
        out["pontryagin.wedge.term_pairs"] = c["pontryagin.wedge.term_pairs"]
        out["pontryagin.wedge.zero_ratio"] = _ratio(
            c["pontryagin.wedge.zero"], self.calls.get("pontryagin.wedge", 0))
        out["snf.smith_normal_form.cells"] = c["snf.smith_normal_form.cells"]
        out["snf.quotient_presentation.cells"] = c["snf.quotient_presentation.cells"]
        out["chains.differential_matrix.nnz"] = c["chains.differential_matrix.nnz"]
        out["homology.is_boundary.true_ratio"] = _ratio(
            c["homology.is_boundary.true"], self.calls.get("homology.is_boundary", 0))
        out["homology.generating_cycles.cycles"] = c["homology.generating_cycles.cycles"]
        for name, fn in self.caches.items():
            info = fn.cache_info()
            out[f"{name}.hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
            out[f"{name}.currsize"] = info.currsize
        bar = sys.modules.get(f"{PACKAGE}.bar")
        out["bar.windows"] = len(getattr(bar, "_WINDOWS", ()))
        out["trace.absent"] = len(self.absent)
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
