"""Spans around the package's public functions, kept in memory.

``Tracer.install`` replaces every public module-level function of the six
layer modules (and two public methods) with a wrapper that records a span:
name, start, end, parent span and operation id.  The replacement is made in
every ``ncg_torus`` namespace that holds the function, so calls between
modules (cli -> fredholm -> torus_rep) are seen too.  ``numpy.linalg.eigh``
and ``numpy.linalg.svd`` are wrapped as the layer ``linalg``.  Nothing in
the package is edited; a name that no longer exists is reported absent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "fredholm", "torus_rep", "exact_arith", "zlattice", "af_tower")
METHODS = (("torus_rep", "TorusPolynomial", "realize_box"),
           ("zlattice", "CyclicSequence", "check_all"))
LINALG = ("eigh", "svd")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list = []
        self.op = -1
        self.wrapped: set = set()
        self.extra: dict = defaultdict(float)  # metric name -> run total
        self.maxima: dict = defaultdict(int)

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, out)
            return out

        self.wrapped.add(name)
        return traced

    def install(self, hooks: dict) -> None:
        """Wrap the layer functions; ``hooks`` maps span names to callbacks
        ``after(args, result)`` run outside the span."""
        import numpy.linalg

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "ncg_torus" or n.startswith("ncg_torus.")]
        for layer in LAYERS:
            mod = sys.modules.get(f"ncg_torus.{layer}")
            if mod is None:
                continue
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fname.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fname}"
                new = self.wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, attr, new)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"ncg_torus.{layer}"), cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is not None:
                name = f"{layer}.{meth}"
                setattr(cls, meth, self.wrap(name, fn, hooks.get(name)))
        for fname in LINALG:
            name = f"linalg.{fname}"
            setattr(numpy.linalg, fname,
                    self.wrap(name, getattr(numpy.linalg, fname), hooks.get(name)))

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans only,
        so recursion is not counted twice) and self seconds; per layer:
        self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        layer_self = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            own[name] += dur - child[i]
            layer_self[name.split(".", 1)[0]] += dur - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += dur
        return {"calls": calls, "incl": incl, "self": own, "layer_self": layer_self}

    def dump(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent line, op id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
