"""Outside-in tracing of lckgeo: layer spans and zoo field counters.

Nothing in the package is edited.  :meth:`Tracer.install` rebinds every
public function of each layer module, at every ``lckgeo`` module attribute
that binds it, to a wrapper recording a span; ``Chart.metric`` and
``Chart.metric_jacobian`` are wrapped on the class.  Every zoo entry that
``report.resolve_manifold`` returns gets its ``metric_fn``,
``metric_derivative_fn`` and ``J_fn`` replaced (through ``object.__setattr__``
on the frozen dataclasses) by wrappers that count evaluation points, each
row of a stack of points of shape (..., m) as one.

Spans are aggregated as they close, not stored: per function the call
count, self time (duration minus child spans) and inclusive time, and per
(parent, child) edge the calls and time.  A field evaluated inside another
field's evaluation (the Calabi g+ metric calls g_ell's) is part of the outer
evaluation and is neither counted nor spanned on its own.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("zoo", "charts", "fd", "calculus", "transport", "hermitian",
          "identities", "holonomy", "report")

# Pure array algebra called once per stencil point: a span there would cost
# more than the work it times.
UNTRACED = {
    "charts": {"alt", "wedge", "form_of_endomorphism", "endomorphism_of_form",
               "wedge_endo", "form_norm"},
    "fd": {"partial_derivative", "stencil_extent"},
}

FIELDS = ("metric_fn", "metric_derivative_fn", "J_fn")


class Tracer:
    def __init__(self):
        # name -> [calls, self_s, inclusive_s, *inclusive field evals]
        self.stats = {}
        # (parent name or None, child name) -> [calls, inclusive_s]
        self.edges = {}
        self.distinct = dict.fromkeys(FIELDS, 0)
        self.requests = []          # per-request field counts
        self._stack = []            # open frames: [name, child_s, *field evals]
        self._open = {}             # name -> open frames of that name
        self._in_field = False
        self._seen = {kind: set() for kind in FIELDS}

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, field: str = None):
        """Wrap ``fn`` in a span; ``field`` marks a zoo field evaluation."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0] + [0] * len(FIELDS))
        stack, open_, edges = self._stack, self._open, self.edges
        seen = self._seen[field] if field else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            points = 0
            if field:
                if self._in_field:
                    return fn(*args, **kwargs)
                self._in_field = True
                # A field may take a stack of points, shape (..., m): count
                # and deduplicate points, not calls.
                p = np.asarray(args[0])
                rows = p.reshape(-1, p.shape[-1]) if p.ndim else p.reshape(1, 1)
                points = len(rows)
                seen.update((id(fn), p.dtype.str, row.tobytes()) for row in rows)
            frame = [name, 0.0] + [points if kind == field else 0
                                   for kind in FIELDS]
            stack.append(frame)
            open_[name] = open_.get(name, 0) + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                open_[name] -= 1
                if field:
                    self._in_field = False
                stats[0] += 1
                stats[1] += dur - frame[1]
                if not open_[name]:     # recursion: count inclusive once
                    stats[2] += dur
                    for i in range(len(FIELDS)):
                        stats[3 + i] += frame[2 + i]
                parent = stack[-1] if stack else None
                key = (parent[0] if parent else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
                if parent:
                    parent[1] += dur
                    for i in range(2, len(frame)):
                        parent[i] += frame[i]
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the layer functions of the imported ``lckgeo`` package."""
        for layer in LAYERS:
            module = importlib.import_module(f"lckgeo.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != module.__name__
                        or attr in UNTRACED.get(layer, ())):
                    continue
                _rebind(obj, self.span(f"{layer}.{attr}", obj))
        chart_cls = importlib.import_module("lckgeo.charts").Chart
        for meth in ("metric", "metric_jacobian"):
            setattr(chart_cls, meth,
                    self.span(f"charts.{meth}", getattr(chart_cls, meth)))
        report = importlib.import_module("lckgeo.report")
        resolve = report.resolve_manifold

        def resolve_and_count(selector):
            entry = resolve(selector)
            self.instrument_entry(entry)
            return entry
        _rebind(resolve, functools.wraps(resolve)(resolve_and_count))

    def instrument_entry(self, entry):
        """Swap counting wrappers into every chart and structure of ``entry``."""
        structures = list(entry.structures.values())
        if entry.pair is not None:
            structures += [entry.pair.I, entry.pair.J]
        if entry.average is not None:
            structures.append(entry.average)
        charts = list(entry.charts.values()) + [H.chart for H in structures]
        wrapped = {}    # one wrapper per raw field, however often it is shared

        def counted(kind, fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.span(f"zoo.{kind}", fn, field=kind)
            return wrapped[id(fn)]

        for chart in {id(c): c for c in charts}.values():
            for kind in ("metric_fn", "metric_derivative_fn"):
                fn = getattr(chart, kind)
                if fn is not None:
                    object.__setattr__(chart, kind, counted(kind, fn))
        for H in {id(H): H for H in structures}.values():
            object.__setattr__(H, "J_fn", counted("J_fn", H.J_fn))

    # -- requests and results ----------------------------------------------------

    @contextmanager
    def request(self):
        """Scope of one request: distinct points are counted per request."""
        before = {kind: self.evals(kind) for kind in FIELDS}
        try:
            yield
        finally:
            rec = {}
            for kind in FIELDS:
                distinct = len(self._seen[kind])
                self._seen[kind].clear()
                self.distinct[kind] += distinct
                rec[kind] = {"evals": self.evals(kind) - before[kind],
                             "distinct": distinct}
            self.requests.append(rec)

    def evals(self, kind: str) -> int:
        """Points at which the zoo field ``kind`` was evaluated."""
        rec = self.stats.get(f"zoo.{kind}")
        return rec[3 + FIELDS.index(kind)] if rec else 0

    def value(self, name: str, stat: str) -> float:
        """One statistic of a traced function: calls/evals, self_s,
        self_ms_per_call or (fields only) distinct_share."""
        rec = self.stats.get(name, [0, 0.0, 0.0])
        calls, self_s = rec[0], rec[1]
        if stat == "calls":
            return calls
        if stat == "evals":
            return self.evals(name.split(".", 1)[1])
        if stat == "self_s":
            return self_s
        if stat == "self_ms_per_call":
            return 1e3 * self_s / calls if calls else 0.0
        if stat == "distinct_share":
            kind = name.split(".", 1)[1]
            evals = self.evals(kind)
            return self.distinct[kind] / evals if evals else 0.0
        raise KeyError(f"unknown statistic {stat!r} of {name}")

    def table(self) -> dict:
        """Per-function summary: the layer table with per-call figures."""
        out = {}
        for name, rec in sorted(self.stats.items()):
            calls = rec[0]
            if not calls:
                continue
            row = {"calls": calls, "self_s": rec[1], "inclusive_s": rec[2],
                   "self_ms_per_call": 1e3 * rec[1] / calls,
                   "inclusive_ms_per_call": 1e3 * rec[2] / calls}
            for kind, evals in zip(FIELDS, rec[3:]):
                row[f"{kind}_evals_per_call"] = evals / calls
            out[name] = row
        return out

    def edge_list(self) -> list:
        return [{"parent": p, "child": c, "calls": n, "inclusive_s": t}
                for (p, c), (n, t) in sorted(self.edges.items(),
                                             key=lambda kv: -kv[1][1])]


def _rebind(old, new):
    """Point every ``lckgeo`` module attribute bound to ``old`` at ``new``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "lckgeo" and not mod_name.startswith("lckgeo."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
