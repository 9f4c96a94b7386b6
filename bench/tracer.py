"""Span tracer for the per-layer numbers, installed from the benchmark's side.

:func:`install` rebinds the public functions of each latalg module wherever
a module of the package looks them up (the defining module and every module
that imported the name), so calls made inside the library are caught too.
A span is ``[name, start, end, parent, info]``; ``info`` holds counts taken
from the arguments or the result after the clock stopped.  Calls that a
traced function makes to itself pass through without a span, so recursive
evaluators cost one span per top-level call.
"""

import contextlib
import functools
import sys
import time

import numpy as np


def node_counts(term):
    """Tree nodes and structurally distinct nodes of one parsed term."""
    ids, size, key_of = {}, {}, {}
    stack = [term]
    while stack:
        node = stack[-1]
        kids = [getattr(node, f) for f in ("child", "left", "right") if hasattr(node, f)]
        waiting = [k for k in kids if id(k) not in size]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        key = (type(node).__name__, getattr(node, "name", None), getattr(node, "coeff", None),
               tuple(key_of[id(k)] for k in kids))
        key_of[id(node)] = ids.setdefault(key, len(ids))
        size[id(node)] = (node, 1 + sum(size[id(k)][1] for k in kids))
    return {"nodes": size[id(term)][1], "distinct": len(ids)}


def _grid_size(args, kwargs):
    return int(kwargs.get("grid", args[2] if len(args) > 2 else None).size)


# (module, owner attribute or None, function, span name, info extractor)
TARGETS = (
    ("expr", None, "parse", "expr.parse", lambda a, k, r: node_counts(r)),
    ("expr", None, "eval_pointwise", "expr.eval_pointwise",
     lambda a, k, r: {"points": int(np.size(r))}),
    ("models", "FiniteModel", "evaluate", "models.evaluate", None),
    ("models", None, "model_suite", "models.model_suite", None),
    ("ball", None, "vanishes_on_reals", "ball.vanishes_on_reals", None),
    ("ball", None, "vanishes_on_ball", "ball.vanishes_on_ball",
     lambda a, k, r: {"points": _grid_size(a, k)}),
    ("rewrite", None, "polynomial_majorant", "rewrite.majorant", None),
    ("rewrite", None, "product_kill", "rewrite.product_kill", None),
    ("rewrite", None, "normal_form", "rewrite.normal_form",
     lambda a, k, r: {"terms": r.term_count()}),
    ("rewrite", None, "normal_form_to_expr", "rewrite.to_expr", None),
    ("freenorm", None, "operator_lower_bound", "freenorm.lower_bound", None),
    ("freenorm", None, "evaluate_operator", "freenorm.evaluate_operator",
     lambda a, k, r: {"value": r}),
    ("cylinder", None, "cylinder_extension", "cylinder.extension",
     lambda a, k, r: {"points": _grid_size(a, k)}),
    ("discretize", None, "atomize", "discretize.atomize",
     lambda a, k, r: {"atoms": r.atom_count, "points": r.grid_size}),
    ("discretize", None, "verify_bounds", "discretize.verify_bounds", None),
)


class Tracer:
    """Spans in memory; while ``enabled`` is false the wrappers only pass through."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.enabled = True

    def wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                stack.pop()
                span[4] = {"error": type(exc).__name__}
                raise
            span[2] = time.perf_counter()
            stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around a block."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()

    def install(self):
        """Rebind every target in each loaded latalg module that refers to it."""
        package = [m for n, m in sys.modules.items() if n == "latalg" or n.startswith("latalg.")]
        for module_name, owner_name, attr, name, info in TARGETS:
            module = sys.modules[f"latalg.{module_name}"]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), info))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, info)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def self_times(self):
        """Total self time (duration minus child spans) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def under(self, index, ancestor):
        """True when span ``index`` lies inside a span named ``ancestor``."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False
