"""Spans at the boundaries between raagkit modules, recorded from outside.

``Tracer.install`` rebinds, for one run, the functions that each raagkit
module imports from another, plus the public functions each module calls on
itself, so every call across a layer boundary opens a span.  No library file
changes; ``uninstall`` puts every name back.  Two exceptions keep the span
count near the number of layer crossings instead of the number of letters:

- inside ``elements`` and ``presentation`` only the entry points that the
  ``GroupElement`` operators reach (``multiply``, ``invert``, ``power``,
  ``normalize``) are wrapped, not the kernel's calls to its own helpers;
- the per-letter helpers ``letter_code`` and ``code_letter`` are never wrapped.

Spans live in parallel arrays (name, start, end, parent, op id, work) until
the run ends.  A span's self time is its duration minus the durations of its
direct children: calls are nested and single-threaded, so the children cover
disjoint parts of the parent's interval.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import time
from array import array

MODULES = (
    "presentation",
    "elements",
    "order",
    "conjugacy",
    "dynamics",
    "structure",
    "sampling",
    "checks",
    "cli",
)

_OWN_ONLY = {
    "presentation": (),
    "elements": ("multiply", "invert", "power", "normalize"),
}
_NEVER = {"letter_code", "code_letter"}


def _letters(x) -> int:
    return len(x.codes) if hasattr(x, "codes") else len(x)


# Work recorded per span: letters handed to the word kernel, elements
# enumerated by the interval layer.  Each takes (args, result).
WORK = {
    "elements.canon_codes": lambda a, r: len(a[1]),
    "elements.shortlex_codes": lambda a, r: len(a[1]),
    "elements.reduce_codes": lambda a, r: len(a[1]),
    "elements.mul_codes": lambda a, r: len(a[1]) + len(a[2]),
    "elements.inv_codes": lambda a, r: len(a[1]),
    "elements.pow_codes": lambda a, r: len(a[1]) * abs(a[2]),
    "elements.multiply": lambda a, r: _letters(a[0]) + _letters(a[1]),
    "elements.invert": lambda a, r: _letters(a[0]),
    "elements.power": lambda a, r: _letters(a[0]) * abs(a[1]),
    "elements.normalize": lambda a, r: len(a[0]),
    "order.interval_codes": lambda a, r: len(r),
    "conjugacy.cyclically_reduced_conjugates": lambda a, r: len(r),
}

# The calls that compute a canonical form from scratch.
CANON = frozenset(k for k in WORK if k.startswith("elements."))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self.op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call."""
        nid = self._name_id(name)
        measure = WORK.get(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, works, stack = self.start, self.end, self.work, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            works.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if measure is not None:
                works[i] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"raagkit.{short}")
            for attr, obj in list(vars(mod).items()):
                origin = getattr(obj, "__module__", "") or ""
                if attr.startswith("_") or attr in _NEVER or not origin.startswith("raagkit."):
                    continue
                home = origin.rsplit(".", 1)[1]
                if inspect.isclass(obj):
                    # Calling the class is the construction; dynamics itself
                    # tests isinstance against it, so it keeps the class.
                    if attr != "WContext" or short == "dynamics":
                        continue
                elif not inspect.isfunction(obj):
                    continue
                if home == short and short in _OWN_ONLY and attr not in _OWN_ONLY[short]:
                    continue
                w = wrapped.get(id(obj))
                if w is None:
                    w = wrapped[id(obj)] = self.wrap(f"{home}.{obj.__name__}", obj)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, w)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, obj = self._undo.pop()
            setattr(mod, attr, obj)

    def call(self, name: str, op_id: int, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` under a top-level span ``name``."""
        self.op_id = op_id
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.op_id = -1

    def spans(self):
        """Per span: (name, op id, duration, self time, work)."""
        n = len(self.name)
        child = array("d", [0.0]) * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        names = self.names
        for i in range(n):
            dur = self.end[i] - self.start[i]
            yield names[self.name[i]], self.op[i], dur, dur - child[i], self.work[i]

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: one header, then one array per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op", "work"]}) + "\n")
            for i in range(len(self.name)):
                fh.write(
                    f'["{self.names[self.name[i]]}",{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},'
                    f"{self.parent[i]},{self.op[i]},{self.work[i]}]\n"
                )
