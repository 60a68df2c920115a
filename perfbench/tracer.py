"""Span tracing of heatlab's public functions, installed from outside.

The tracer replaces each traced function by a wrapper in its defining
module and in every heatlab module that imported it by name, so calls
between modules are seen too.  Spans (name, start, end, parent, thread)
are kept in memory and written out once, at the end of the traced pass.
A function that no longer exists is simply not wrapped and reports zero
calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("nonlinearity", "singular_ode", "evolution", "iteration",
          "threshold", "cli")

# Functions the benchmark names in its per-layer metrics.  They are traced
# even when a later version drops them from the module's __all__.
NAMED = {
    "nonlinearity": ("check_admissibility", "eval_F_log",
                     "eval_F_inverse_log"),
    "singular_ode": ("build_singular", "patch_seed", "verify_flux_identity",
                     "asymptotic_ratio", "trace_pohozaev", "eval_F0"),
    "evolution": ("ul_norm", "step_imex", "stability_dt",
                  "semigroup_operator"),
    "iteration": ("run_ladder", "duhamel_map", "fixed_point_residual",
                  "check_immediate_boundedness"),
    "threshold": ("threshold_scan", "run_case", "case_grid",
                  "initial_data"),
    "cli": ("main",),
}

# Classes whose construction is traced as one span named after the class.
CONSTRUCTORS = {"evolution": ("SemigroupOperator",)}


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, tid].

    A span opened on a worker thread with nothing open on that thread is
    parented to the innermost span open on the main thread, which is the
    call that handed the work to the pool.
    """

    def __init__(self):
        self.spans = []
        self.observed = defaultdict(list)
        self.errors = defaultdict(int)
        self.reaction_overflow = 0
        self._stacks = {}
        self._main = threading.get_ident()

    def _open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else None
        rec = [name, 0.0, 0.0, parent, tid]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = time.perf_counter()
        return rec, stack

    def _error(self, module, exc):
        seen = exc.__dict__.setdefault("_traced_in", set())
        if module in seen:
            return
        seen.add(module)
        self.errors[module] += 1
        if module == "evolution" and type(exc).__name__ == "ReactionOverflow":
            self.reaction_overflow += 1

    def wrap(self, module, name, fn, heatlab_error, observe=None):
        span = f"{module}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, stack = self._open(span)
            try:
                out = fn(*args, **kwargs)
            except heatlab_error as exc:
                self._error(module, exc)
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                self.observed[span].append(observe(args, kwargs, out))
            return out

        return traced

    def install(self, observers=None):
        """Wrap every public function of every layer."""
        observers = observers or {}
        heatlab_error = importlib.import_module("heatlab.errors").HeatLabError
        modules = [importlib.import_module(f"heatlab.{m}") for m in LAYERS]
        everywhere = [m for name, m in sys.modules.items()
                      if name == "heatlab" or name.startswith("heatlab.")]
        for layer, mod in zip(LAYERS, modules):
            names = set(getattr(mod, "__all__", ())) | set(NAMED[layer])
            for name in sorted(names):
                fn = getattr(mod, name, None)
                if not (inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    continue
                wrapped = self.wrap(layer, name, fn, heatlab_error,
                                    observers.get(f"{layer}.{name}"))
                for other in everywhere:
                    for attr, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, attr, wrapped)
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if inspect.isclass(cls):
                    cls.__init__ = self.wrap(layer, cls_name, cls.__init__,
                                             heatlab_error)

    def summary(self):
        """Per-span-name calls, inclusive and self time, where self time is
        the duration minus the union of the intervals its children cover."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                   "self_s": 0.0})
        for rec in self.spans:
            name, start, end = rec[0], rec[1], rec[2]
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(id(rec), ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += max(0.0, end - start - covered)
        return dict(out)

    def dump(self, path):
        """Write all spans as [name, start, end, parent_index, thread_id]."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[rec[0], rec[1], rec[2],
                 index[id(rec[3])] if rec[3] is not None else -1, rec[4]]
                for rec in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "thread"], "spans": rows}, fh)
