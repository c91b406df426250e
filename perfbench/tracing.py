"""In-memory spans around the public functions of the chemhill modules.

The tracer wraps, from outside the package, every public function (the
names in each module's ``__all__``) of the traced modules, plus the
``splu`` factorizations that ``chemhill.elliptic`` requests from SciPy.
Several modules bind functions of other modules with ``from ... import``,
so each wrapper is re-bound in every chemhill namespace that holds the
original function object. A span is (id, parent id, name, start, end); the
spans stay in memory and are written out once, at the end of the run.
"""

import importlib
import inspect
import json
import sys
import time
import types
from functools import wraps

MODULES = ("cli", "grid", "nonlinearity", "elliptic", "scheme", "diagnostics", "limits")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []       # [id, parent, name, start, end]
        self._stack = [None]

    def call(self, name, fn, *args, **kwargs):
        span = [len(self.spans), self._stack[-1], name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def instrument(self):
        """Wrap the public functions of MODULES and elliptic's splu in place."""
        modules = {m: importlib.import_module(f"chemhill.{m}") for m in MODULES}
        namespaces = [sys.modules["chemhill"], *modules.values()]
        for short, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn):
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)
        elliptic = modules["elliptic"]
        sla = types.SimpleNamespace(**vars(elliptic.sla))
        sla.splu = self.wrap("elliptic.splu", sla.splu)
        elliptic.sla = sla

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def layer_stats(spans):
    """Per span name: call count and self time (duration minus child spans)."""
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = {}
    for (_, _, name, start, end), inner in zip(spans, child_time):
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - inner
    return stats


def count_within(spans, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    total = 0
    for _, parent, span_name, _, _ in spans:
        if span_name != name:
            continue
        while parent is not None and spans[parent][2] != ancestor:
            parent = spans[parent][1]
        total += parent is not None
    return total
