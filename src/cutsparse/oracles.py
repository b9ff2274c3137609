"""Exact cut machinery: exhaustive cut enumeration for verifying a
sparsifier, and the Stoer-Wagner global minimum cut.

Both are deliberately independent of the sparsifier's packings, so they can
judge its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

import numpy as np

from .graph import CutSpec, SparseGraph, WeightedGraph

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
    for (u, v), w in agg.items():
        bu = (masks >> u) & 1 if u < n - 1 else np.zeros(size, dtype=np.int64)
        bv = (masks >> v) & 1 if v < n - 1 else np.zeros(size, dtype=np.int64)
        weights[bu != bv] += w
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


def _components(g: WeightedGraph | SparseGraph) -> list[int]:
    comp = [-1] * g.n
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    for start in range(g.n):
        if comp[start] != -1:
            continue
        comp[start] = start
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if comp[y] == -1:
                    comp[y] = start
                    queue.append(y)
    return comp


def exact_min_cut(g: WeightedGraph | SparseGraph) -> tuple[CutSpec, int | float]:
    """Stoer-Wagner global minimum cut; exact arithmetic on integer graphs.

    Disconnected input returns a zero-weight cut isolating one component.
    """
    n = g.n
    if n < 2:
        raise ValueError("minimum cut needs at least two vertices")

    comp = _components(g)
    if len(set(comp)) > 1:
        side = [x for x in range(n) if comp[x] == comp[0]]
        zero = 0.0 if isinstance(g, SparseGraph) else 0
        return CutSpec.from_vertices(side), zero

    weight: list[list] = [[0] * n for _ in range(n)]
    for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()):
        weight[u][v] += w
        weight[v][u] += w

    groups: list[list[int]] = [[x] for x in range(n)]
    active = list(range(n))
    best_value = None
    best_side: list[int] = []

    while len(active) > 1:
        s = t = active[0]
        # in ascending vertex order, so max() breaks ties to the smallest id
        key = {x: weight[t][x] for x in active[1:]}
        while key:
            s, t = t, max(key, key=key.__getitem__)
            del key[t]
            wt = weight[t]
            for x in key:
                key[x] += wt[x]
        cut_of_phase = sum(weight[t][x] for x in active if x != t)
        if best_value is None or cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = list(groups[t])
        # merge t into s
        for x in active:
            if x != s and x != t:
                weight[s][x] += weight[t][x]
                weight[x][s] = weight[s][x]
        groups[s].extend(groups[t])
        active.remove(t)

    return CutSpec.from_vertices(best_side), best_value
