"""Graph representation, cut evaluation, and file I/O.

Graphs are undirected multigraphs: parallel edges are allowed, self-loops are
not.  Integer weights live in [1, 2**63 - 1] so that one machine word covers
both the polynomial and the practical unbounded weight regime; cut weights are
accumulated in arbitrary-precision integers to rule out overflow.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

MAX_WEIGHT = (1 << 63) - 1


class GraphFormatError(ValueError):
    """Malformed graph file; the message names the offending line."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _column(values, dtype, message: str) -> np.ndarray:
    """A read-only copy of one edge column; `message` is the error for a
    value the cast would change in an int64 column (a fraction, a NaN, or a
    value beyond int64) or cannot hold in a float64 one."""
    src = np.asarray(values)
    try:
        if dtype is np.float64 or src.dtype == dtype:
            return _frozen(src.astype(dtype))
        with np.errstate(invalid="ignore"):  # a float beyond int64 casts to garbage
            column = src.astype(dtype)
    except OverflowError:
        raise ValueError(message) from None
    # any other dtype into int64 (float, uint64, object): compare every value exactly
    if not np.array_equal(column.astype(object), src.astype(object)):
        raise ValueError(message)
    return _frozen(column)


@dataclass(frozen=True, eq=False)
class _Graph:
    """Undirected multigraph on vertices 0..n-1 as three edge columns."""

    n: int
    edge_u: np.ndarray  # int64
    edge_v: np.ndarray  # int64
    edge_w: np.ndarray

    @classmethod
    def from_arrays(cls, n: int, edge_u, edge_v, edge_w) -> _Graph:
        """Validated graph over read-only copies of the given columns: int64
        endpoints, weights of the class's `_weight_dtype`."""
        g = cls(
            n,
            _column(edge_u, np.int64, "edge endpoint out of range"),
            _column(edge_v, np.int64, "edge endpoint out of range"),
            _column(edge_w, cls._weight_dtype, cls._weight_error),
        )
        g._validate()
        return g

    @property
    def m(self) -> int:
        return len(self.edge_u)

    def _validate(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if not (self.edge_u.ndim == 1 and self.edge_u.shape == self.edge_v.shape == self.edge_w.shape):
            raise ValueError("edge columns must be one-dimensional and of equal length")
        if self.m:
            if min(self.edge_u.min(), self.edge_v.min()) < 0:
                raise ValueError("negative vertex id")
            if max(self.edge_u.max(), self.edge_v.max()) >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(self.edge_u == self.edge_v):
                raise ValueError("self-loops are not allowed")
            self._validate_weights()

    def _validate_weights(self) -> None:
        raise NotImplementedError

    def max_weight(self) -> int | float:
        return self.edge_w.max().item() if self.m else 0

    def edges(self) -> list[tuple]:
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist()))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.edge_u, other.edge_u))
            and bool(np.array_equal(self.edge_v, other.edge_v))
            and bool(np.array_equal(self.edge_w, other.edge_w))
        )


@dataclass(frozen=True, eq=False)
class WeightedGraph(_Graph):
    """Integer-weighted multigraph; edge_w is int64, each in [1, MAX_WEIGHT]."""

    _weight_dtype, _weight_error = np.int64, "edge weight outside [1, 2^63-1]"

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int, int]]) -> "WeightedGraph":
        return WeightedGraph.from_arrays(n, *_columns(edges))

    def _validate_weights(self) -> None:
        if self.edge_w.min() < 1:
            raise ValueError("edge weights must be >= 1")

    def subgraph_edges(self, idx: np.ndarray) -> "WeightedGraph":
        """Graph on the same vertex set restricted to the given edge indices."""
        return WeightedGraph(
            self.n,
            _frozen(self.edge_u[idx]),
            _frozen(self.edge_v[idx]),
            _frozen(self.edge_w[idx]),
        )


@dataclass(frozen=True, eq=False)
class SparseGraph(_Graph):
    """Reweighted subgraph; edge_w is float64, strictly positive and finite."""

    _weight_dtype, _weight_error = np.float64, "edge weights must be positive and finite"

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> "SparseGraph":
        return SparseGraph.from_arrays(n, *_columns(edges))

    def _validate_weights(self) -> None:
        if not np.all(np.isfinite(self.edge_w)) or self.edge_w.min() <= 0.0:
            raise ValueError("edge weights must be positive and finite")


def _columns(edges: Iterable[tuple]) -> tuple[tuple, tuple, tuple]:
    """(u, v, w) edge tuples as three columns."""
    edges = list(edges)
    return tuple(zip(*edges)) if edges else ((), (), ())


@dataclass(frozen=True)
class CutSpec:
    """One side of a vertex bipartition, stored as a bitmask over vertex ids."""

    side: int

    def validate(self, n: int) -> None:
        full = (1 << n) - 1
        if self.side & ~full:
            raise ValueError("cut side references vertices outside the graph")
        if self.side == 0 or self.side == full:
            raise ValueError("cut side must be a proper non-empty vertex subset")

    def vertices(self, n: int) -> list[int]:
        return [i for i in range(n) if (self.side >> i) & 1]

    def complement(self, n: int) -> "CutSpec":
        return CutSpec(((1 << n) - 1) ^ self.side)

    @staticmethod
    def from_vertices(vertices: Iterable[int]) -> "CutSpec":
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return CutSpec(mask)


def _side_membership(side: int, n: int) -> np.ndarray:
    raw = side.to_bytes((n + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:n].astype(bool)


def cut_weight(g: WeightedGraph | SparseGraph, cut: CutSpec) -> int | float:
    """Total weight of the edges crossing the cut.

    Integer graphs are accumulated exactly in Python integers; float graphs
    use compensated summation.
    """
    cut.validate(g.n)
    member = _side_membership(cut.side, g.n)
    crossing = member[g.edge_u] != member[g.edge_v]
    selected = g.edge_w[crossing]
    if selected.dtype == np.float64:
        return math.fsum(selected.tolist())
    return sum(selected.tolist())


# --- file formats -----------------------------------------------------------
#
# Edge-list text: first line "n m", then m lines "u v w" with 0-indexed
# endpoints.  DIMACS .gr is the same layout behind line tags: "p <tag> n m",
# then "a u v w" or "e u v w" lines with 1-indexed endpoints, and "c" comment
# lines anywhere.  A first non-blank token c, p, a or e marks DIMACS.  Both
# readers take both formats: load_graph wants weights in [1, 2^63-1],
# load_sparse positive finite reals.  Edge lists are written.


def _read_lines(source: str | Path, data: bytes | None = None) -> list[str]:
    """The file's lines; `data` is its bytes when already read."""
    try:
        return (Path(source).read_bytes() if data is None else data).decode().splitlines()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{source}: {exc}") from None


def _parse_lines(lines: list[str], real: bool) -> WeightedGraph | SparseGraph:
    """Either file format with real or integer weights; every error names
    its line."""
    rows = [(i + 1, ln.split()) for i, ln in enumerate(lines)]
    rows = [(lineno, parts) for lineno, parts in rows if parts]
    dimacs = bool(rows) and rows[0][1][0] in ("c", "p", "a", "e")
    if dimacs:
        rows = [(lineno, parts) for lineno, parts in rows if parts[0] != "c"]
    head, edge, base = ("p <tag> n m", "a u v w", 1) if dimacs else ("n m", "u v w", 0)
    if not rows:
        raise GraphFormatError(f"line 1: missing '{head}' header")
    (lineno, parts), body = rows[0], rows[1:]
    if len(parts) != len(head.split()) or (dimacs and parts[0] != "p"):
        raise GraphFormatError(f"line {lineno}: header must be '{head}'")
    try:
        n, m = int(parts[-2]), int(parts[-1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: header must be two integers") from None
    if n < 1 or m < 0:
        raise GraphFormatError(f"line {lineno}: invalid header values n={n} m={m}")

    edges: list[tuple[int, int, int | float]] = []
    for lineno, parts in body:
        if len(parts) != len(edge.split()) or (dimacs and parts[0] not in ("a", "e")):
            raise GraphFormatError(f"line {lineno}: expected '{edge}'")
        try:
            u, v = int(parts[-3]) - base, int(parts[-2]) - base
        except ValueError:
            raise GraphFormatError(f"line {lineno}: endpoints must be integers") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop on vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: endpoint out of range for n={n}")
        try:
            w = float(parts[-1]) if real else int(parts[-1])
        except ValueError:
            kind = "a number" if real else "an integer"
            raise GraphFormatError(f"line {lineno}: weight {parts[-1]!r} is not {kind}") from None
        if real and not 0 < w < math.inf:
            raise GraphFormatError(f"line {lineno}: weight must be positive and finite")
        if not real and w < 1:
            raise GraphFormatError(f"line {lineno}: weight must be >= 1, got {w}")
        if not real and w > MAX_WEIGHT:
            raise GraphFormatError(f"line {lineno}: weight exceeds 2^63-1")
        edges.append((u, v, w))
    if len(edges) != m:
        raise GraphFormatError(f"header announced {m} edges but file has {len(edges)}")
    return (SparseGraph if real else WeightedGraph).from_edges(n, edges)


def load_graph(source: str | Path) -> WeightedGraph:
    """Read an integer-weighted graph from an edge-list or DIMACS file."""
    data = Path(source).read_bytes()
    g = _load_edgelist_arrays(source, data)
    if g is not None:
        return g
    return _parse_lines(_read_lines(source, data), real=False)


def load_sparse(source: str | Path) -> SparseGraph:
    """Read a real-weighted graph from an edge-list or DIMACS file."""
    return _parse_lines(_read_lines(source), real=True)


# numpy and str.splitlines() agree on where lines and tokens end only for
# these bytes (numpy also splits on \x0c, \x1c and other separators)
_EDGELIST_BYTES = b"0123456789+- \t\r\n"
_NON_BLANK = re.compile(rb"[^ \t\r\n]")
_LINE_END = re.compile(rb"[\r\n]")


def _load_edgelist_arrays(source: str | Path, data: bytes) -> WeightedGraph | None:
    """The edge-list reader's fast path: numpy parses the body and the array
    constructor checks it in bulk.  None wherever it cannot vouch for the
    result (another byte, a bad token, count or value); the line parser then
    decides, and names the offending line."""
    if data.translate(None, _EDGELIST_BYTES):
        return None
    first = _NON_BLANK.search(data)
    if first is None:
        return None
    start = first.start()
    eol = _LINE_END.search(data, start)
    end = eol.start() if eol else len(data)
    header = data[start:end].split()
    if len(header) != 2:
        return None
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        return None
    if n < 1 or m < 0:
        return None
    if _NON_BLANK.search(data, end):
        blank = data[:start]  # the blank lines above the header
        skip = blank.count(b"\n") + blank.count(b"\r") - blank.count(b"\r\n") + 1
        try:
            cols = np.loadtxt(
                source, dtype=np.int64, ndmin=2, comments=None, skiprows=skip, encoding="ascii"
            )
        except (ValueError, OverflowError):
            return None
    else:
        cols = np.zeros((0, 3), dtype=np.int64)
    if cols.shape != (m, 3):
        return None
    try:
        return WeightedGraph.from_arrays(n, *cols.T)
    except ValueError:
        return None


def _weight_column(w: np.ndarray) -> list[str]:
    """Weights as text: integral values as integers, other floats by repr."""
    if w.dtype != np.float64:
        return list(map(str, w.tolist()))
    text = list(map(float.__repr__, w.tolist()))
    integral = np.flatnonzero((np.floor(w) == w) & (np.abs(w) < 2.0**63))
    for i, t in zip(integral.tolist(), map(str, w[integral].astype(np.int64).tolist())):
        text[i] = t
    return text


def save_graph(g: WeightedGraph | SparseGraph, sink: str | Path) -> None:
    """Write a graph as an edge list; edge order is preserved as given."""
    body = map("{} {} {}".format, g.edge_u.tolist(), g.edge_v.tolist(), _weight_column(g.edge_w))
    Path(sink).write_text("\n".join([f"{g.n} {g.m}", *body]) + "\n")
