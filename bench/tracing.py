"""Span tracing of korthos's public functions, installed from outside the package.

`Tracer.install` replaces every public function of the layer modules (and
`Mat.mul`) with a wrapper at every place its name is bound -- the defining
module, the `korthos` package namespace, and every module that imported the
name with `from .x import y` -- and `uninstall` puts the originals back.

A span is the list [name, start, end, parent, job, error, counts]: `parent`
is the index of the enclosing span in the same list (-1 at top level) and
`counts` holds the work counters below.  Spans stay in memory; callers write
them out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
import types

import numpy as np

LAYERS = ("rings", "matrices", "search", "_batch", "crt", "codes", "cli")


def _lookups(a):
    x, y = a["a"], a["b"]
    lead = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    return {"lookups": math.prod(lead) * x.shape[-2] * x.shape[-1] * y.shape[-1]}


# Work counters, from the bound arguments and the result of one call.
COUNTERS = {
    "search.enumerate_semigroup": lambda a, r: {"nodes": r.nodes, "elements": r.count},
    "search.enumerate_naive": lambda a, r: {"matrices_swept": a["ring"].order ** (a["n"] ** 2)},
    "search.verify_closure": lambda a, r: {"products": a["census"].count ** 2},
    "batch.batch_matmul": lambda a, r: _lookups(a),
    "codes.dual_code": lambda a, r: {"vectors_swept": a["code"].ring.order ** a["code"].length},
}


def public_functions():
    """{function: 'layer.name'} for the public functions of every layer module.

    The layer is the module name without a leading underscore (`_batch` is
    `batch`), because metric names start with a letter or a digit.
    """
    found = {}
    for short in LAYERS:
        mod = importlib.import_module(f"korthos.{short}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[obj] = f"{short.lstrip('_')}.{name}"
    mat = importlib.import_module("korthos.matrices").Mat
    found[mat.mul] = "matrices.Mat.mul"
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []

    def install(self):
        targets = public_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        mat = importlib.import_module("korthos.matrices").Mat
        namespaces = [m for n, m in sys.modules.items()
                      if n == "korthos" or n.startswith("korthos.")] + [mat]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(sig.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper


def summarize(spans):
    """{name: {calls, errors, total_s, self_s, <counters>}} for one span list.

    Self time is a span's duration minus the durations of its direct children
    (spans of one thread nest, so the children never overlap).
    `search.census_table` also gets `searches`: the enumerate_semigroup spans
    that have a census_table span among their ancestors.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, _job, err, counts) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["errors"] += err
        st["total_s"] += end - start
        st["self_s"] += end - start - child[i]
        for key, val in (counts or {}).items():
            st[key] = st.get(key, 0) + val
        if name == "search.enumerate_semigroup":
            p = parent
            while p >= 0 and spans[p][0] != "search.census_table":
                p = spans[p][3]
            if p >= 0:
                ct = stats.setdefault("search.census_table", {"calls": 0, "errors": 0,
                                                              "total_s": 0.0, "self_s": 0.0})
                ct["searches"] = ct.get("searches", 0) + 1
    return stats


def merge(into, stats):
    """Add one summary into another, key by key."""
    for name, st in stats.items():
        dst = into.setdefault(name, {})
        for key, val in st.items():
            dst[key] = dst.get(key, 0) + val
    return into
