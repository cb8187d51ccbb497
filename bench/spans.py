"""Span tracing for the traced benchmark run.

``Tracer.install`` wraps the toolkit functions named in ``layers.json`` and
replaces every binding of each one in every loaded ``blackburn`` module,
because several modules import names directly (``abelian_pairs`` binds
``enumerate_aut``, ``formats`` binds ``validate_group``, ``counterexample``
binds ``is_class_preserving``, ``locally_power`` and ``power_of``).  Tiny hot
methods such as ``Group.mul`` are never wrapped.  Spans (id, parent, request,
name, start, end) are kept in memory and written out by the caller.

A span's self time is its duration minus the time covered by its children;
calls run on one thread, so the children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "blackburn"
REQUEST_SPAN = "bench.request"


def _owner(spec: str):
    """(object holding the attribute, attribute name, metric name) for a
    spec such as ``core.Group.closure`` or ``autos.enumerate_aut``."""
    parts = spec.split(".")
    obj = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    for part in parts[1:-1]:
        obj = getattr(obj, part)
    return obj, parts[-1], f"{parts[0]}.{parts[-1]}"


class Tracer:
    def __init__(self, functions):
        self.functions = list(functions)
        self.spans: list = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list = []
        self._next_id = 0
        self._request = None
        self._installed: list = []

    # -- spans ----------------------------------------------------------------

    def _enter(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def _exit(self, name, frame, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        self.spans.append((frame[0], parent, self._request, name, start, end))

    def request(self, label: str, run):
        """Run one request under a root span; its id tags every child span."""
        self._request = label
        frame, parent, start = self._enter()
        try:
            return run()
        finally:
            self._exit(REQUEST_SPAN, frame, parent, start)
            self._request = None

    def _wrap(self, name, fn):
        tracer = self
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            frame, parent, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, parent, start)
            if count is not None:
                count(tracer.counts, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for spec in self.functions:
            owner, attr, name = _owner(spec)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name, orig)
            targets = [owner] if isinstance(owner, type) else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        self._installed.append((target, key, orig))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            target, key, orig = self._installed.pop()
            setattr(target, key, orig)


def _count_found(counts, result):
    counts["core.all_subgroups.found"] += len(result)


def _count_maps(counts, result):
    counts["autos.enumerate_aut.maps"] += len(result)


def _count_class_preserving(counts, result):
    counts["autos.is_class_preserving.true"] += bool(result)


def _count_pairs(counts, report):
    for s in report.stats:
        counts["abelian_pairs.alphas"] += s.alphas
        counts["abelian_pairs.candidates"] += s.candidates
        counts["abelian_pairs.pairs"] += s.pairs


COUNTERS = {
    "core.all_subgroups": _count_found,
    "autos.enumerate_aut": _count_maps,
    "autos.is_class_preserving": _count_class_preserving,
    "abelian_pairs.pointwise_power_harness": _count_pairs,
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, overhead: float) -> dict:
    """Per-layer metrics per traced round, named as in BENCHMARK.json."""
    out = {}
    for spec in tracer.functions:
        name = _owner(spec)[2]
        out[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
        out[f"{name}.self_s"] = (tracer.self_s[name] / rounds, "s")
    c = tracer.counts
    for key in ("core.all_subgroups.found", "autos.enumerate_aut.maps",
                "abelian_pairs.alphas", "abelian_pairs.candidates", "abelian_pairs.pairs"):
        out[key] = (c[key] / rounds, "count")
    out["autos.aut_filter_yield"] = (
        ratio(c["autos.is_class_preserving.true"], tracer.calls["autos.is_class_preserving"]),
        "ratio")
    out["abelian_pairs.pair_yield"] = (
        ratio(c["abelian_pairs.pairs"], c["abelian_pairs.candidates"]), "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out
