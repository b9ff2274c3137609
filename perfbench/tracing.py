"""Span tracing of the library's public functions, installed from outside.

`install` replaces each hooked function at every place it is bound inside the
loaded `cutsparse` modules (a name imported with `from .msf import f` is a
second binding of the same object), so calls through any import site are
recorded.  Modules are looked up in `sys.modules`, because some package
attributes are functions that shadow their module (`cutsparse.sparsify`).

Span hooks record (name, start, end, parent, op) and, optionally, counts
taken from the call's arguments and result.  Counter hooks only count calls,
on methods whose time is not wanted (one per random draw, one per union-find
structure).  Spans stay in memory until `Tracer.save`.

A hook whose module or attribute no longer exists is reported in
`Tracer.missing`; the metrics that depend on it are then absent.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = "cli.main"


def _loaded(args, kwargs, result) -> dict:
    return {"graph.edges_loaded": result.m}


def _saved(args, kwargs, result) -> dict:
    return {"graph.edges_saved": args[0].m}


def _packed(args, kwargs, result) -> dict:
    levels = result.levels
    return {
        "msf.pack_edges": len(levels),
        "msf.pack_forests": int(levels.max()) if len(levels) else 0,
    }


def _min_cut_n(args, kwargs, result) -> dict:
    return {"oracles.min_cut_n": args[0].n}


def _rounds(args, kwargs, result) -> dict:
    reports = result[1]
    return {
        "sparsify.rounds": len(reports),
        "sparsify.early_out_rounds": sum(r.early_out for r in reports),
        "sparsify.levels": sum(len(r.levels) for r in reports),
        "sparsify.set_aside": sum(r.set_aside_count for r in reports),
        "sparsify.report_s": sum(r.timings_ms.get("total", 0.0) for r in reports) / 1e3,
    }


# (span name, module, attribute path, counts taken from the call)
SPAN_HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("graph.load_graph", "cutsparse.graph", "load_graph", _loaded),
    ("graph.save_graph", "cutsparse.graph", "save_graph", _saved),
    ("graph.SparseGraph.from_edges", "cutsparse.graph", "SparseGraph.from_edges", None),
    ("msf.msf_packing_bounded", "cutsparse.msf", "msf_packing_bounded", _packed),
    ("msf.msf_packing_windowed", "cutsparse.msf", "msf_packing_windowed", None),
    ("msf.bottleneck_weights", "cutsparse.msf", "bottleneck_weights", None),
    ("ni.ni_indices", "cutsparse.ni", "ni_indices", None),
    ("ni.ni_preprocess", "cutsparse.ni", "ni_preprocess", None),
    ("sampling.binom_sample", "cutsparse.sampling", "binom_sample", None),
    ("sampling.RngStream.coin_flips", "cutsparse.sampling", "RngStream.coin_flips", None),
    ("oracles.exact_min_cut", "cutsparse.oracles", "exact_min_cut", _min_cut_n),
    ("sparsify.sparsify_with_report", "cutsparse.sparsify", "sparsify_with_report", _rounds),
    ("sparsify.reduce_real_weights", "cutsparse.sparsify", "reduce_real_weights", None),
    ("sparsify.approx_min_cut", "cutsparse.sparsify", "approx_min_cut", None),
)

# (count name, module, attribute path)
COUNT_HOOKS: tuple[tuple[str, str, str], ...] = (
    ("dsu.forests", "cutsparse.dsu", "ForestDsu.__init__"),
    ("sampling.draws", "cutsparse.sampling", "RngStream.uniform_open"),
)


def _resolve(module: str, path: str):
    """(owner, attribute, raw value) for a dotted attribute, or None."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # compact arrays: a traced pass can hold hundreds of thousands of spans
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._current = -1
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name_id: int, func, args, kwargs, counter):
        idx = len(self.span_name)
        parent = self._current
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_op.append(self._op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._current = idx
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._current = parent
            self.span_start[idx] = start
            self.span_end[idx] = end
        if counter is not None:
            counts = self.counts[self._op]
            for key, value in counter(args, kwargs, result).items():
                counts[key] += value
        return result

    def op(self, op_id: int, func, *args):
        """Run one operation as a root span named ROOT."""
        self._op = op_id
        try:
            return self.call(self._name_id(ROOT), func, args, {}, None)
        finally:
            self._op = -1

    # --- patching ---------------------------------------------------------------

    def _replace(self, owner, attr: str, raw, new) -> None:
        """Bind `new` wherever `raw` is bound: on its class, or in every
        loaded cutsparse module for a module-level function."""
        if isinstance(owner, type):
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cutsparse" or mod_name.startswith("cutsparse.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._undo.append((mod, key, raw))
                    setattr(mod, key, new)

    def install(self) -> None:
        self.missing = []
        for name, module, path, counter in SPAN_HOOKS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, raw = found
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = self._span_wrapper(self._name_id(name), func, counter)
            self._replace(owner, attr, raw, staticmethod(new) if isinstance(raw, staticmethod) else new)
        for name, module, path in COUNT_HOOKS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, raw = found
            self._replace(owner, attr, raw, self._count_wrapper(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _span_wrapper(self, name_id: int, func, counter):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name_id, func, args, kwargs, counter)

        wrapper.__wrapped__ = func
        return wrapper

    def _count_wrapper(self, name: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self._op][name] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    # --- output -------------------------------------------------------------------

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


@dataclass(frozen=True)
class Spans:
    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @staticmethod
    def load(path) -> "Spans":
        with np.load(path) as z:
            return Spans(
                [str(x) for x in z["names"]], z["name"], z["parent"], z["op"], z["start"], z["end"]
            )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once, and a child
    running past its parent is clipped to it)."""
    self_t = end - start
    children: dict[int, list[int]] = defaultdict(list)
    for idx, par in enumerate(parent.tolist()):
        if par >= 0:
            children[par].append(idx)
    for par, kids in children.items():
        lo_p, hi_p = start[par], end[par]
        covered = 0.0
        reach = lo_p
        for k in sorted(kids, key=lambda k: start[k]):
            lo = max(start[k], reach)
            hi = min(end[k], hi_p)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_t[par] -= covered
    return self_t
