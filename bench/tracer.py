"""Span tracer that wraps logchar's public functions from outside.

``Tracer.install`` replaces every public module-level function of the
traced modules by a wrapper that records a span (name, op id, parent span,
start, end).  Modules bind each other's functions with ``from .fme import
feasible_point``, so the wrapper is written into every logchar module that
holds the original object, not only into the defining module; patching
``logchar.fme`` alone would record no call made from ``logchar.tropical``.
Public and arithmetic methods of the Laurent polynomial, series and cycle
classes get spans too; ``Scalar`` arithmetic is only counted.

Per-op aggregates (calls, total and self time per span name, and each
module's outermost time) are kept in memory and merged into the run totals
only when the op completes, so an op cut by its time budget adds nothing
and counts repeat exactly between runs.  Raw spans are kept in memory up to
``MAX_SPANS`` and written out by ``write`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

MODULES = ("field", "laurent", "series", "fme", "tropical", "cdvf", "cycles",
           "goodmodel", "euler", "modeldoc", "cli")
SPAN_CLASSES = {"laurent": ("LaurentPolynomial",), "series": ("LaurentSeries",),
                "cycles": ("LogCycle", "Direction")}
COUNT_CLASSES = {"field": ("Scalar",)}
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__pow__", "__truediv__", "__rtruediv__")


MAX_SPANS = 200_000   # raw spans kept in memory; aggregates count every span


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, op, parent id, start, end)
        self._next_id = 0
        self.dropped = 0
        self.patches = []        # (owner, attribute, original)
        self.op = None
        self._fme_seq = 0        # feasible_point calls so far, for nested counts
        self._stack = []         # [name, module, start, child time, span id]
        self._op_stats = {}
        self._op_outer = {}
        self._op_extra = {}
        self.stats = {}          # name -> [calls, total s, self s]
        self.outer = {}          # module or span name -> time in its outermost spans
        self.extra = {}          # counters gathered by hooks

    # -- installation --------------------------------------------------------

    def install(self):
        mods = {name: sys.modules[f"logchar.{name}"] for name in MODULES}
        holders = [m for n, m in sys.modules.items()
                   if n == "logchar" or n.startswith("logchar.")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._span(f"{short}.{attr}", short, fn)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, hattr, wrapped)
            for cls_name in SPAN_CLASSES.get(short, ()):
                self._wrap_methods(getattr(mod, cls_name), short, self._span)
            for cls_name in COUNT_CLASSES.get(short, ()):
                self._wrap_methods(getattr(mod, cls_name), short, self._counter)

    def _wrap_methods(self, cls, short, make):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            self._patch(cls, attr, make(f"{short}.{cls.__name__}.{attr}", short, fn))

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, module, fn):
        hook = HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            entry = [name, module, 0.0, 0.0, self._next_id]
            self._next_id += 1
            fme0 = self._fme_seq
            stack.append(entry)
            entry[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack and stack[-1] is entry:
                    stack.pop()
                self._close(entry, parent, end)
            if hook is not None:
                hook(self, args, kwargs, result, self._fme_seq - fme0)
            return result

        return wrapper

    def _counter(self, name, module, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._bump(f"{module}.scalar_ops", 1)
            return fn(*args, **kwargs)

        return wrapper

    def _close(self, entry, parent, end):
        name, module, start, child, _ = entry
        dur = end - start
        st = self._op_stats.get(name)
        if st is None:
            st = self._op_stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if parent is not None:
            parent[3] += dur
        if parent is None or parent[1] != module:
            self._op_outer[module] = self._op_outer.get(module, 0.0) + dur
        if parent is None or parent[0] != name:
            self._op_outer[name] = self._op_outer.get(name, 0.0) + dur
        if len(self.spans) < MAX_SPANS:
            pid = parent[4] if parent is not None else -1
            self.spans.append((entry[4], name, self.op, pid, start, end))
        else:
            self.dropped += 1

    def _bump(self, key, value):
        self._op_extra[key] = self._op_extra.get(key, 0) + value

    def _max(self, key, value):
        self._op_extra[key] = max(self._op_extra.get(key, value), value)

    # -- per-op bookkeeping ------------------------------------------------------

    def begin(self, op_id):
        self.op = op_id
        self._stack.clear()
        self._op_stats, self._op_outer, self._op_extra = {}, {}, {}

    def end(self, completed):
        """Merge the op's aggregates into the run totals if it completed."""
        self._stack.clear()
        if not completed:
            return
        for name, (calls, total, self_s) in self._op_stats.items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for module, t in self._op_outer.items():
            self.outer[module] = self.outer.get(module, 0.0) + t
        for key, value in self._op_extra.items():
            if key.endswith(".max"):
                self.extra[key] = max(self.extra.get(key, value), value)
            else:
                self.extra[key] = self.extra.get(key, 0) + value

    # -- results -----------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, prefix):
        return sum(st[2] for name, st in self.stats.items() if name.startswith(prefix))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "op", "parent", "start", "end"],
                       "dropped": self.dropped, "spans": sorted(self.spans)}, fh,
                      separators=(",", ":"))


# -- hooks: counters read from arguments and results ----------------------------


def _fme_hook(tracer, args, kwargs, result, fme_calls):
    constraints = args[0] if args else kwargs["constraints"]
    tracer._fme_seq += 1
    tracer._bump("fme.feasible", int(result is not None))
    tracer._max("fme.rows_in.max", len(constraints))


def _sorted_profile_hook(tracer, args, kwargs, result, fme_calls):
    # a decision answered on the fast path makes no FME call
    tracer._bump("tropical.fast_path", int(fme_calls == 0))


def _oracle_hook(tracer, args, kwargs, result, fme_calls):
    phi = args[0] if args else kwargs["phi"]
    window = args[1] if len(args) > 1 else kwargs["window"]
    shifts = {e[0] - 1 for e in phi.terms if e[0] != 0} | {-1}
    rows = 2 * window + max(shifts) - min(shifts) + 1
    tracer._bump("euler.oracle.cells", rows * (2 * window + 1))


HOOKS = {"fme.feasible_point": _fme_hook,
         "tropical.sorted_profile_linear": _sorted_profile_hook,
         "euler.derham_oracle_curve": _oracle_hook}
