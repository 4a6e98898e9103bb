"""Timing and counting wrappers installed around splinemat's public functions.

The traced run measures splinemat from the outside: nothing in the package
is edited.  Each wrapper replaces a name where callers look it up.  A
module that did ``from .knots import find_span`` holds its own reference,
so every module of the package whose global is the original function is
patched, not only the defining module.  Methods are patched on every class
of the defining module that defines them.

Each wrapped call becomes a span (id, parent id, function, op id, start,
end) kept in memory and written out at the end.  Per function the tracer
sums calls, busy time (outermost activations only, so recursion is not
counted twice) and self time (duration minus the time covered by wrapped
children).
"""

from __future__ import annotations

import csv
import itertools
import sys
import time
from dataclasses import dataclass

# (layer, name): the functions timed in a traced run.  A name that is not
# a module-level function of the layer is looked up as a method on the
# layer's classes.
TARGETS = (
    ("knots", "find_span"),
    ("knots", "normalize"),
    ("knots", "local_coefficients"),
    ("basismatrix", "general_basis_matrix"),
    ("basismatrix", "uniform_basis_matrix"),
    ("basismatrix", "cumulative_matrix"),
    ("basismatrix", "as_float_rows"),
    ("polytoeplitz", "poly_mul"),
    ("curve", "eval_matrix"),
    ("curve", "eval_cumulative"),
    ("curve", "eval_derivative"),
    ("curve", "sample"),
    ("curve", "eval_coxdeboor"),
    ("coxdeboor", "basis"),
    ("cli", "load_spline"),
    ("cli", "cmd_sample"),
    ("cli", "run_check"),
)

LAYERS = ("knots", "basismatrix", "polytoeplitz", "curve", "coxdeboor", "cli")

# The curve's per-span matrix lookups; each call is one span-matrix request.
SPAN_REQUESTS = ("_span_matrix_rows", "_span_cumulative_rows")
# Names through which the curve triggers exact construction.
CURVE_BUILDS = ("general_basis_matrix", "uniform_basis_matrix")

# Spans beyond this many are counted but not stored, to bound memory.
MAX_SPANS = 100_000

PACKAGE = "splinemat"


@dataclass
class FunctionStats:
    layer: str
    name: str
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    depth: int = 0
    installed: bool = False

    @property
    def key(self) -> str:
        return "%s.%s" % (self.layer, self.name)


class Tracer:
    """Installs the wrappers, aggregates their timings and keeps the spans."""

    def __init__(self):
        self.stats = [FunctionStats(layer, name) for layer, name in TARGETS]
        self.spans = []
        self.dropped_spans = 0
        self.op = -1
        self.span_requests = 0
        self.curve_builds = 0
        self._stack = []
        self._ids = itertools.count()
        self._restore = []
        self.lru = None

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _patch(self, owner, name, new) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        lru = sys.modules[PACKAGE + ".basismatrix"].__dict__.get("uniform_basis_matrix")
        self.lru = lru if hasattr(lru, "cache_info") else None
        for index, stat in enumerate(self.stats):
            home = sys.modules["%s.%s" % (PACKAGE, stat.layer)]
            orig = home.__dict__.get(stat.name)
            if callable(orig) and not isinstance(orig, type):
                wrapper = self._timed(orig, index)
                for m in modules:
                    if m.__dict__.get(stat.name) is orig:
                        self._patch(m, stat.name, wrapper)
                stat.installed = True
                continue
            for cls in _classes_of(home):
                method = cls.__dict__.get(stat.name)
                if callable(method):
                    self._patch(cls, stat.name, self._timed(method, index))
                    stat.installed = True
        curve = sys.modules[PACKAGE + ".curve"]
        for cls in _classes_of(curve):
            for name in SPAN_REQUESTS:
                if callable(cls.__dict__.get(name)):
                    self._patch(cls, name, self._count_requests(cls.__dict__[name]))
        for name in CURVE_BUILDS:
            fn = curve.__dict__.get(name)
            if callable(fn):
                memo = self.lru if name == "uniform_basis_matrix" else None
                self._patch(curve, name, self._count_builds(fn, memo))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, index):
        stat = self.stats[index]
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0, next(ids)]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat.depth -= 1
                dur = t1 - t0
                stat.calls += 1
                stat.self_ns += dur - frame[0]
                if stat.depth == 0:
                    stat.busy_ns += dur
                if stack:
                    stack[-1][0] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((frame[1], parent, index, self.op, t0, t1))
                else:
                    self.dropped_spans += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_requests(self, fn):
        def wrapper(*args, **kwargs):
            self.span_requests += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_builds(self, fn, memo):
        """Count builds; a call to the memoised ``memo`` builds only on a miss."""
        def wrapper(*args, **kwargs):
            before = memo.cache_info().misses if memo is not None else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if memo is None or memo.cache_info().misses > before:
                    self.curve_builds += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def covered_s(self) -> float:
        return sum(s.self_ns for s in self.stats) / 1e9

    def metrics(self) -> dict:
        out = {}
        for s in self.stats:
            out[s.key + ".calls"] = (s.calls, "count")
            out[s.key + ".busy_s"] = (s.busy_ns / 1e9, "s")
            out[s.key + ".self_s"] = (s.self_ns / 1e9, "s")
        for layer in LAYERS:
            total = sum(s.self_ns for s in self.stats if s.layer == layer)
            out["layer.%s.self_s" % layer] = (total / 1e9, "s")
        info = self.lru.cache_info() if self.lru is not None else None
        out["basismatrix.uniform_cache.hits"] = (info.hits if info else 0, "count")
        out["basismatrix.uniform_cache.misses"] = (info.misses if info else 0, "count")
        ratio = 1.0 - self.curve_builds / self.span_requests if self.span_requests else 0.0
        out["curve.span_cache.hit_ratio"] = (ratio, "ratio")
        return out

    def missing(self) -> list:
        return [s.key for s in self.stats if not s.installed]

    def write_spans(self, path) -> None:
        """One row per stored span; times in ns from an arbitrary origin."""
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(("span", "parent", "function", "op", "start_ns", "end_ns"))
            for sid, parent, index, op, t0, t1 in self.spans:
                w.writerow((sid, parent, self.stats[index].key, op, t0, t1))


def _classes_of(module):
    return [v for v in module.__dict__.values()
            if isinstance(v, type) and v.__module__ == module.__name__]
