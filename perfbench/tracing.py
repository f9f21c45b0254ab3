"""Per-layer spans for agbounds, recorded from outside the package.

A Tracer wraps every public function of each agbounds module (the names
in its ``__all__`` that the module defines) plus ``Curve.evaluate_monomial``,
and rebinds each name wherever an agbounds module holds it, including the
module that defines it, so calls between functions of one module are
seen too.  ``uninstall`` puts every original back.  Nothing under
``src/`` is edited.

Spans are kept in memory as parallel arrays (name, parent, start, end);
a layer's self time is its span durations minus the durations of its
direct child spans.  Three counters are taken at the same boundaries:
``rrspace.dim.misses`` (dim() keys seen for the first time),
``codes.weight_enumerator.words`` (q^k per enumeration) and
``bounds.improvement_table.cells``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("field", "curve", "rrspace", "bounds", "codes", "cli")
# Methods traced besides module functions: (layer, class, method).
METHODS = (("curve", "Curve", "evaluate_monomial"),)


def _targets():
    """[(span name, owner class or None, attribute, original callable)]."""
    out, seen = [], set()
    for layer in LAYERS:
        mod = importlib.import_module(f"agbounds.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isclass(obj) or not callable(obj) or id(obj) in seen:
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            seen.add(id(obj))
            out.append((f"{layer}.{attr}", None, attr, obj))
    for layer, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"agbounds.{layer}"), cls_name)
        out.append((f"{layer}.{attr}", cls, attr, cls.__dict__[attr]))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._dim_keys: set = set()
        self._stack: list[int] = []
        self._patches: list = []
        self._make_curve = importlib.import_module("agbounds.curve").make_curve

    # -- counters taken at the boundary -------------------------------------

    def _count_dim(self, args, kwargs, result):
        curve, divisor = args[0], args[1] if len(args) > 1 else kwargs["divisor"]
        key = (curve.name, divisor.inf, divisor.origin, divisor.constraints)
        if key not in self._dim_keys:
            self._dim_keys.add(key)
            self.counts["rrspace.dim.misses"] += 1

    def _count_words(self, args, kwargs, result):
        code = args[0] if args else kwargs["code"]
        if code.k:
            q = self._make_curve(code.curve).field.q
            self.counts["codes.weight_enumerator.words"] += q**code.k

    def _count_cells(self, args, kwargs, result):
        self.counts["bounds.improvement_table.cells"] += len(result["cells"])

    # -- install / uninstall ------------------------------------------------

    def _wrap(self, idx: int, fn, hook):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "rrspace.dim": self._count_dim,
            "codes.weight_enumerator": self._count_words,
            "bounds.improvement_table": self._count_cells,
        }
        wrappers = {}
        for name, owner, attr, fn in _targets():
            if name not in self.names:
                self.names.append(name)
            wrapper = self._wrap(self.names.index(name), fn, hooks.get(name))
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = (fn, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "agbounds" and not modname.startswith("agbounds."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "total_s", "self_s"}} over all spans."""
        n = len(self.span_name)
        child = [0.0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, parent, name, start and duration in s."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tdur_s\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - t0:.7f}\t{self.span_end[i] - self.span_start[i]:.7f}\n"
                )
