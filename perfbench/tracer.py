"""Spans and counters for the traced run, recorded from outside liestar.

`Tracer.install()` wraps the public functions of each layer (a module of
liestar) and, where another module imported a function by name, installs
the same wrapper there, so that those calls are traced too.  Each wrapper
records its calls and self time: its duration minus that of the wrapped
calls it made.  Spans (id, name, start, end, parent span, operation id)
are kept in memory for every wrapped call except the polynomial kernel
and `canonicalize`, whose calls are too many to keep one by one.

The polynomial kernel serves every layer.  Besides its own self time
(`layer.poly.self_s`), its time is charged to the nearest enclosing call of
another layer; `charged` holds each layer's self time plus the kernel time
charged to it, and its shares are what the workloads' design is checked on.

Span names are the names of the per-layer metrics (`<name>.calls`,
`<name>.self_s`); a later tracer inside the program should reuse them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("poly", "algebra", "operators", "enveloping", "graphs", "weights", "star")
KERNEL = "poly"
# time in an operation outside every wrapped call: benchmark glue and
# unwrapped library code called directly by the operation
UNATTRIBUTED = "none"

# span name -> (module of liestar, attribute path)
TARGETS = {
    "poly.mul": ("poly", "Polynomial.__mul__"),
    "poly.add": ("poly", "Polynomial.__add__"),
    "poly.partial": ("poly", "Polynomial.partial"),
    "poly.partial_multi": ("poly", "Polynomial.partial_multi"),
    "algebra.trace_operator": ("algebra", "trace_operator"),
    "algebra.is_nilpotent_probe": ("algebra", "is_nilpotent_probe"),
    "operators.bidiff_apply": ("operators", "BiDiffOperator.apply"),
    "operators.diff_apply": ("operators", "DiffOperator.apply"),
    "operators.compose": ("operators", "DiffOperator.compose"),
    "operators.compose_second": ("operators", "BiDiffOperator.compose_second"),
    "operators.extract": ("operators", "extract_bidiff_operator"),
    "enveloping.gutt_product": ("enveloping", "gutt_product"),
    "graphs.canonical_classes": ("graphs", "canonical_classes"),
    "graphs.canonicalize": ("graphs", "canonicalize"),
    "graphs.bidiff_of_graph": ("graphs", "bidiff_of_graph"),
    "weights.estimate_weight": ("weights", "estimate_weight"),
    "star.assemble_kontsevich": ("star", "assemble_kontsevich"),
    "star.kontsevich_gutt_rho": ("star", "kontsevich_gutt_rho"),
    "star.multiply_series": ("star", "StarProduct.multiply_series"),
    "star.weyl_normalize": ("star", "weyl_normalize"),
}
SPANLESS = {"graphs.canonicalize"}


def _count_trace_words(counters, args, out):
    counters["algebra.trace.words"] += args["g"].dim ** args["r"]


def _count_assignments(counters, args, out):
    counters["graphs.bidiff.assignments"] += args["pi"].dim ** (2 * args["g"].n)


def _count_classes(counters, args, out):
    counters["graphs.classes"] += len(out)


def _count_canonicalized(counters, args, out):
    counters["graphs.canonicalized"] += 1


def _count_samples(counters, args, out):
    counters["weights.samples"] += args["samples"]
    workers = sys.modules["liestar.weights"].worker_count()
    counters["weights.workers"] = max(counters["weights.workers"], workers)


HOOKS = {
    "algebra.trace_operator": _count_trace_words,
    "graphs.bidiff_of_graph": _count_assignments,
    "graphs.canonical_classes": _count_classes,
    "graphs.canonicalize": _count_canonicalized,
    "weights.estimate_weight": _count_samples,
}

# per-layer metric -> unit; `<span>.calls` and `<span>.self_s` come first
COUNTERS = {
    "algebra.trace.words": "count",
    "graphs.canonicalized": "count",
    "graphs.classes": "count",
    "graphs.bidiff.assignments": "count",
    "weights.samples": "count",
    "weights.workers": "count",
}
ENGINE_CACHES = {"enveloping.engine.words": "_words", "enveloping.engine.sym": "_sym", "enveloping.engine.gutt": "_gutt"}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update({name: "count" for name in ENGINE_CACHES})
    units["weights.samples_per_s"] = "1/s"
    for layer in LAYERS + (UNATTRIBUTED,):
        units[f"layer.{layer}.self_s"] = "s"
    units["process.cpu_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def engine_cache_sizes() -> dict | None:
    """Entries in the PBW engines' caches, summed over algebras; None when
    the engines' private state is not where this benchmark looks."""
    engines = getattr(sys.modules.get("liestar.enveloping"), "_ENGINES", None)
    if not isinstance(engines, dict):
        return None
    sizes = {}
    for metric, attr in ENGINE_CACHES.items():
        caches = [getattr(engine, attr, None) for engine in engines.values()]
        if any(cache is None for cache in caches):
            return None
        sizes[metric] = sum(len(cache) for cache in caches)
    return sizes


class Tracer:
    def __init__(self):
        self.thread = threading.get_ident()
        self.op = None  # operation id while an operation runs, else None
        self.ops: list = []  # operation id -> label
        self.stack: list = []  # frames [child time, span id, charged layer]
        self.spans: list = []
        self.next_span = 0
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.inclusive_s: dict = defaultdict(float)
        self.layer_self: dict = defaultdict(float)
        self.charged: dict = defaultdict(float)
        self.counters: dict = defaultdict(int)
        self.started = time.perf_counter()
        self._installed: list = []  # (owner, attribute, original)

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "liestar" or n.startswith("liestar.")]
        for name, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(f"liestar.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            # a class attribute may have aliases (__radd__ = __add__); a
            # function may have been imported by name into other modules
            holders = [owner] if classes else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._installed.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._installed):
            setattr(holder, key, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]
        spanful = layer != KERNEL and name not in SPANLESS
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None or threading.get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            owner = parent[2] if layer == KERNEL else layer
            if spanful:
                span = tracer.next_span
                tracer.next_span += 1
            else:
                span = parent[1]
            frame = [0.0, span, owner]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - start
                own = duration - frame[0]
                parent[0] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.inclusive_s[name] += duration
                tracer.layer_self[layer] += own
                tracer.charged[owner] += own
                if spanful:
                    tracer.spans.append((span, name, start, end, parent[1], tracer.op))
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counters, bound.arguments, out)
            return out

        return wrapper

    # -- operations ------------------------------------------------------

    def begin(self, label: str) -> None:
        self.op = len(self.ops)
        self.ops.append(label)
        self.stack = [[0.0, self.next_span, UNATTRIBUTED]]
        self.next_span += 1
        self._op_start = time.perf_counter()

    def end(self) -> None:
        end = time.perf_counter()
        root = self.stack.pop()
        own = end - self._op_start - root[0]
        self.layer_self[UNATTRIBUTED] += own
        self.charged[UNATTRIBUTED] += own
        self.spans.append((root[1], f"op:{self.ops[self.op]}", self._op_start, end, None, self.op))
        self.op = None

    def shares(self) -> dict:
        """Each layer's charged share of the traced operations' time."""
        total = sum(self.charged.values()) or 1.0
        return {layer: self.charged.get(layer, 0.0) / total for layer in LAYERS + (UNATTRIBUTED,)}

    def span_rows(self) -> list:
        return [
            [span, name, round(start - self.started, 7), round(end - self.started, 7), parent, op]
            for span, name, start, end, parent, op in sorted(self.spans)
        ]
