"""Exact cut machinery: exhaustive cut enumeration for verifying a
sparsifier, and the Stoer-Wagner global minimum cut.

Both are deliberately independent of the sparsifier's packings, so they can
judge its output; with it they share only the component labels of `graph`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import CutSpec, SparseGraph, WeightedGraph, _components

ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class CutReport:
    """Worst-case relative cut error of a sparsifier against its base graph."""

    max_rel_error: float
    worst_cut: CutSpec
    num_cuts: int
    min_cut_value: float

    def to_dict(self) -> dict:
        return {
            "max_rel_error": self.max_rel_error,
            "worst_cut_side": self.worst_cut.side,
            "num_cuts": self.num_cuts,
            "min_cut_value": self.min_cut_value,
        }


def _all_cut_weights(g: WeightedGraph | SparseGraph) -> np.ndarray:
    """Cut weight for every proper bipartition, indexed by the bitmask of the
    side not containing vertex n-1.  Entry 0 (empty side) is unused.

    Parallel edges aggregate per vertex pair first, so the mask sweep runs
    over at most n*(n-1)/2 pairs however dense the multigraph is.
    """
    n = g.n
    size = 1 << (n - 1)
    masks = np.arange(size, dtype=np.int64)
    weights = np.zeros(size, dtype=np.float64)
    agg: dict[tuple[int, int], float] = {}
    for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()):
        key = (u, v) if u < v else (v, u)
        agg[key] = agg.get(key, 0.0) + w
    # every mask is below 2^(n-1), so vertex n-1's bit reads 0
    for (u, v), w in agg.items():
        weights[((masks >> u) & 1) != ((masks >> v) & 1)] += w
    return weights


def check_sparsifier(g: WeightedGraph | SparseGraph, h: WeightedGraph | SparseGraph) -> CutReport:
    """Enumerate all 2**(n-1) - 1 cuts and report max |w_H(C)/w_G(C) - 1|;
    n is at most ENUMERATION_LIMIT."""
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    if g.n > ENUMERATION_LIMIT:
        raise ValueError(f"n={g.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    if g.n < 2:
        raise ValueError("graphs on a single vertex have no cuts")
    wg = _all_cut_weights(g)[1:]
    wh = _all_cut_weights(h)[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(wh / wg - 1.0)
    zero = wg == 0.0
    rel[zero] = np.where(wh[zero] == 0.0, 0.0, np.inf)
    worst = int(np.argmax(rel))
    return CutReport(
        max_rel_error=float(rel[worst]),
        worst_cut=CutSpec(worst + 1),
        num_cuts=len(wg),
        min_cut_value=float(wg.min()),
    )


# --- exact minimum cut --------------------------------------------------------


def exact_min_cut(g: WeightedGraph | SparseGraph) -> tuple[CutSpec, float]:
    """Stoer-Wagner global minimum cut over a dense float64 weight matrix.

    The arithmetic is float64 throughout, so the value is exact while the
    total weight is below 2^53; `oracle_min_cut` in tests/reference.py is
    the integer-exact version, and on float graphs it makes the same
    additions in the same order.  Each phase grows a maximum-adjacency order
    (ties to the smallest vertex id) and merges its last two vertices.
    Disconnected input returns a zero-weight cut isolating vertex 0's
    component.
    """
    n = g.n
    if n < 2:
        raise ValueError("minimum cut needs at least two vertices")

    comp = _components(g)
    if comp.any():  # vertex 0's label is 0
        return CutSpec.from_vertices(np.flatnonzero(comp == 0).tolist()), 0.0

    # each pair sums its edges in id order in the upper triangle; adding the
    # zero lower triangle mirrors it exactly
    weight = np.zeros((n, n), dtype=np.float64)
    np.add.at(
        weight,
        (np.minimum(g.edge_u, g.edge_v), np.maximum(g.edge_u, g.edge_v)),
        g.edge_w.astype(np.float64),
    )
    weight += weight.T

    groups: list[list[int]] = [[x] for x in range(n)]
    active = np.arange(n)
    best_value = math.inf
    best_side: list[int] = []

    while len(active) > 1:
        # vertices already added, or merged away, keep key -inf; a merged
        # vertex's matrix entries go stale but stay finite
        key = np.full(n, -np.inf)
        key[active[1:]] = weight[active[0], active[1:]]
        s = t = int(active[0])
        for _ in range(len(active) - 1):
            s, t = t, int(key.argmax())
            key[t] = -np.inf
            key += weight[t]
        # left to right; the zero diagonal entry adds nothing
        cut_of_phase = sum(weight[t, active].tolist())
        if cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = list(groups[t])
        # merge t into s; the diagonal stays zero
        weight[s] += weight[t]
        weight[s, s] = 0.0
        weight[:, s] = weight[s]
        groups[s].extend(groups[t])
        active = active[active != t]

    return CutSpec.from_vertices(best_side), best_value
