"""Span tracer that wraps the library's public functions from outside.

Each public function of a groupoidal module (module-level functions plus
static methods of its classes) is replaced, in every module namespace that
binds it, by a wrapper that records a span ``(name, start, end, parent,
run_id)``.  ``numpy.linalg.eigh`` is wrapped too.  The layer of a span is the
module that defines the function.  Spans stay in memory until the benchmark
writes them out; nothing under ``src/`` is touched.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("groupoid", "algebra", "starproduct", "realizations", "tomography", "cli")
EIGH = "numpy.linalg.eigh"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list, start: int = 0) -> dict:
    """Span index -> its duration minus the part of it child spans cover,
    for the spans from ``start`` on (whose parents also lie from ``start`` on)."""
    children = defaultdict(list)
    for _, t0, t1, parent, _ in spans[start:]:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = {}
    for i in range(start, len(spans)):
        _, t0, t1, _, _ = spans[i]
        covered, edge = 0.0, t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[i] = (t1 - t0) - covered
    return out


class Tracer:
    """Install with ``install(modules)``, remove with ``uninstall()``.

    ``probes`` maps a span name to ``probe(tracer, args, kwargs, result)``,
    called after the call returns, to add counters at that boundary.
    """

    def __init__(self, probes: dict | None = None):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.run_id = 0
        self.keep: dict = {}
        self._stack: list = []
        self._probes = probes or {}
        self._undo: list = []

    def new_pass(self) -> int:
        """Start fresh counters and return the index of the pass's first span."""
        self.counters, self.errors, self.keep = Counter(), Counter(), {}
        return len(self.spans)

    def wrap(self, name: str, fn):
        spans, stack, probe = self.spans, self._stack, self._probes.get(name)
        clock, tracer = time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                spans[idx] = (name, t0, clock(), parent, tracer.run_id)
                stack.pop()
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, modules: list) -> None:
        """Wrap the public functions of ``modules`` and ``numpy.linalg.eigh``."""
        import numpy.linalg

        package = modules[0].__name__.split(".")[0]
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[obj] = self.wrap(f"{short}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if isinstance(raw, staticmethod) and not meth.startswith("_"):
                            wrapped = self.wrap(f"{short}.{obj.__qualname__}.{meth}",
                                                raw.__func__)
                            self._set(obj, meth, staticmethod(wrapped))
        bound = [m for name, m in sys.modules.items()
                 if m is not None and (name == package or name.startswith(package + "."))]
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._set(mod, attr, originals[obj])
        self._set(numpy.linalg, "eigh", self.wrap(EIGH, numpy.linalg.eigh))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write the spans as gzipped CSV rows: name, start, end, parent, run."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "run"])
            writer.writerows(self.spans)


def summarize(spans: list, start: int = 0) -> dict:
    """Per span name: calls, busy seconds and self seconds; per layer: self
    seconds; plus ``tomography.eigh`` for eigh spans under a tomography span.

    Busy time counts only the outermost span of a name, so recursion is not
    counted twice.  Self time is duration minus the time child spans cover.
    """
    selfs = self_times(spans, start)
    calls, busy, own = Counter(), Counter(), Counter()
    layer_self = Counter()
    for i in range(start, len(spans)):
        name, t0, t1, parent, _ = spans[i]
        if name == EIGH:
            p = parent
            while p >= 0 and spans[p][0] == EIGH:
                p = spans[p][3]
            if p < 0 or layer_of(spans[p][0]) != "tomography":
                continue
            name = "tomography.eigh"
        calls[name] += 1
        own[name] += selfs[i]
        layer_self[layer_of(name)] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += t1 - t0
    return {"calls": calls, "busy": busy, "self": own, "layer_self": layer_self}
