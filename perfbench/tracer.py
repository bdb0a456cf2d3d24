"""Spans around the public functions of every quadsum module.

The tracer lives entirely in the benchmark: it replaces each public function
(and the public methods of the classes a module defines) with a wrapper that
records a span, then restores the originals.  A function that other modules
imported by name, such as ``sums.split_spectral``, is rebound at every module
global that holds the same object, found by identity.

Spans are kept in flat arrays (name, start, end, parent, operation id) and
written out by :meth:`Tracer.dump` when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("field", "matrix", "poly", "canonical", "sums", "oracle", "serialize", "cli")

#: Elimination entry points, reported together as ``matrix.elim``.
ELIM = ("matrix.rank", "matrix.rank_and_kernel", "matrix.kernel_matrix",
        "matrix.inverse", "matrix.solve")

#: Arithmetic dunders of the matrix and polynomial value types.  Scalar
#: arithmetic (FieldElement, Field) is not spanned: at millions of calls per
#: second a span would dominate; its time stays in the calling layer, and
#: ``Field.make`` is counted instead.
DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__call__", "__eq__")
UNSPANNED_CLASSES = ("Field", "FieldElement")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.stack = []
        self.counts = Counter()
        self._make_calls = [0]
        self._undo = []
        self.t_begin = self.t_end = 0.0

    # ---- spans -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str):
        return _Span(self, self._name_id(name))

    def _wrap(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ---- installation ------------------------------------------------

    def install(self, package: str = "quadsum"):
        """Wrap every public function of each layer module, at every binding."""
        self.t_begin = perf_counter()
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj) and not attr.startswith("_"):
                    replace[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}",
                                                        self._hook(f"{layer}.{attr}")))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, obj, hit[1])

    def _wrap_class(self, layer, cls):
        if cls.__name__ in UNSPANNED_CLASSES:
            if cls.__name__ == "Field":
                cell = self._make_calls
                make = cls.make

                def counted_make(self_, v):
                    cell[0] += 1
                    return make(self_, v)

                self._set(cls, "make", make, counted_make)
            return
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in DUNDERS
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "_matmul":
                public, name = True, "matrix.matmul"
            if not public:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                self._set(cls, attr, raw, kind(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, raw, self._wrap(raw, name, self._hook(name)))

    def _hook(self, name: str):
        counts = self.counts
        if name == "matrix.matmul":
            def mults(args, _result):
                a, b = args
                counts["matrix.matmul.mults"] += a.rows * a.cols * b.cols
            return mults
        if name == "canonical.invariant_factors_with_transform":
            def factors(_args, result):
                counts["canonical.factors_returned"] += len(result[0])
            return factors
        return None

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        self.t_end = perf_counter()
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # ---- aggregation -------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        start, end = self.start, self.end
        own = array("d", (e - s for s, e in zip(start, end)))
        for i, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= end[i] - start[i]
        return own

    def metrics(self):
        """Per-layer totals: calls and self seconds per function, module and group."""
        own = self.self_times()
        calls = Counter()
        self_s = Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += own[i]
        by_name_calls = Counter()
        by_name_self = Counter()
        for nid, name in enumerate(self.names):
            groups = [name, name.split(".")[0]]
            if name in ELIM:
                groups.append("matrix.elim")
            for g in groups:
                by_name_calls[g] += calls[nid]
                by_name_self[g] += self_s[nid]
        krylov = self._ids.get("poly.krylov_annihilator")
        from_canonical = sum(
            1 for i, nid in enumerate(self.name)
            if nid == krylov and self.parent[i] >= 0
            and self.names[self.name[self.parent[i]]].startswith("canonical."))
        wall = self.t_end - self.t_begin
        roots = sum(self.end[i] - self.start[i] for i in range(len(self.start))
                    if self.parent[i] < 0)
        return {
            "calls": by_name_calls,
            "self_s": by_name_self,
            "counts": {
                "matrix.matmul.mults": self.counts["matrix.matmul.mults"],
                "field.make.calls": self._make_calls[0],
                "canonical.krylov_calls": from_canonical,
                "canonical.factors_returned": self.counts["canonical.factors_returned"],
            },
            "wall_s": wall,
            "gap_s": wall - roots,
            "spans": len(self.start),
        }

    def dump(self, path: str):
        """Write the spans: a JSON header line, then the five raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["name:i", "start:d", "end:d", "parent:i", "op:i"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)


class _Span:
    """A span opened by the benchmark itself (set-up, one operation)."""

    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.start)
        tr.name.append(self.nid)
        tr.parent.append(tr.stack[-1] if tr.stack else -1)
        tr.op.append(tr.op_id)
        tr.end.append(0.0)
        tr.stack.append(self.idx)
        tr.start.append(perf_counter())
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.idx] = perf_counter()
        tr.stack.pop()
        return False
