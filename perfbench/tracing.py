"""Wrappers installed from outside the library: a select tap and a span tracer.

Library modules import names directly (``search`` does ``from .basis
import design_matrix``), so a function is replaced in every
``knotselect`` module namespace that holds it, and put back afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from time import perf_counter


def rebind(old, new) -> list:
    """Replace every ``knotselect`` module binding of ``old`` by ``new``; returns an undo list."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "knotselect" or modname.startswith("knotselect.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def restore(undo: list) -> None:
    for mod, attr, old in reversed(undo):
        setattr(mod, attr, old)


def _current_select():
    import knotselect.search

    return knotselect.search.select


class SelectTap:
    """Records (xs, y, cfg, model) of every outermost ``select`` call.

    Nested calls (the per-fold searches inside cross-validation) are not
    recorded. The cost is one extra Python call per ``select``.
    """

    def __init__(self):
        self.calls: list[tuple] = []
        self._depth = 0
        self._undo: list = []

    def install(self) -> None:
        inner = _current_select()

        @functools.wraps(inner)
        def tapped(xs, y, cfg):
            self._depth += 1
            try:
                model = inner(xs, y, cfg)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.calls.append((xs, y, cfg, model))
            return model

        self._undo = rebind(inner, tapped)

    def remove(self) -> None:
        restore(self._undo)
        self._undo = []

    def take(self) -> list[tuple]:
        calls, self.calls = self.calls, []
        return calls


def public_functions() -> dict:
    """Layer-qualified name -> function for every public library function, plus ``cli.main``."""
    import knotselect
    import knotselect.cli

    out = {}
    for name in knotselect.__all__:
        fn = getattr(knotselect, name)
        if inspect.isfunction(fn):
            out[f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"] = fn
    out["cli.main"] = knotselect.cli.main
    return out


class Tracer:
    """In-memory spans [id, parent, op, name, start, end] at library boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for name, fn in public_functions().items():
            self._undo += rebind(fn, self._wrap(name, fn))

    def remove(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.op, name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per-layer self time, per-function inclusive time and call counts, in totals.

        Self time is a span's duration minus its direct children's, so the
        self times of all spans add up to the duration of the root spans.
        A function's inclusive time counts only its outermost spans, so
        ``select`` nested inside ``cv_lambda`` inside ``select`` is not
        counted twice.
        """
        child = [0.0] * len(self.spans)
        for sid, parent, _op, _name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for sid, parent, _op, name, t0, t1 in self.spans:
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + (t1 - t0) - child[sid]
            calls[name] = calls.get(name, 0) + 1
            p = parent
            while p >= 0 and self.spans[p][3] != name:
                p = self.spans[p][1]
            if p < 0:
                incl_s[name] = incl_s.get(name, 0.0) + (t1 - t0)
        return {"self_s": self_s, "incl_s": incl_s, "calls": calls}


class SelectAllocProbe:
    """Peak traced allocation (bytes) of each outermost ``select`` call, via tracemalloc."""

    def __init__(self):
        self.peaks: list[int] = []
        self._depth = 0
        self._undo: list = []

    def install(self) -> None:
        inner = _current_select()

        @functools.wraps(inner)
        def probed(xs, y, cfg):
            if self._depth:
                return inner(xs, y, cfg)
            self._depth += 1
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return inner(xs, y, cfg)
            finally:
                self._depth -= 1
                self.peaks.append(tracemalloc.get_traced_memory()[1] - base)

        tracemalloc.start()
        self._undo = rebind(inner, probed)

    def remove(self) -> None:
        restore(self._undo)
        self._undo = []
        tracemalloc.stop()
