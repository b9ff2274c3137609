"""Partial maximum-spanning-forest packings and bottleneck weights.

A packing assigns each edge the index of the first forest whose endpoints it
can join when edges are inserted in descending weight order; edges whose
endpoints are already connected in every forest up to the requested bound get
the explicit OVER sentinel.  The exact packing is one first-fit kernel over
list-backed union-find forests, allocated as the packing first reaches them.
Each edge probes the highest forest it could join, then the one under it,
and bisects further down only when both fail to join its endpoints.  The
kernel reads the edges in processing order one block at a time, and at each
block start drops in numpy the edges whose endpoints its top forest already
joins: they are OVER and move no singleton level, so once the top forest
spans, no later edge is converted to Python ints.  The bottleneck
weights take the maximum spanning forest from a vectorized Borůvka, build a
union-by-size forest that keeps the order of its unions from only its
edges, and climb every edge through it in numpy.  The unbounded regime's
packing is the exact packing of the covered edges, those with
n*w(e) > d(e); that test is the one place the unbounded regime's set-aside
rule lives.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

import numpy as np

from .dsu import ForestDsu
from .graph import WeightedGraph, _roots

# Sentinel for "endpoints connected in every forest up to M"; kept distinct
# from any valid level so arithmetic on it fails loudly.
OVER = -1

# Smallest block of the processing order that the packing filters and
# converts to Python ints at a time; a block holds at least n edges, so the
# O(n) root snapshot of the filter costs O(1) per edge.
_BLOCK = 1 << 11


@dataclass(frozen=True)
class MsfPacking:
    """Per-edge forest index: 1-based, OVER beyond the M forests asked for."""

    levels: np.ndarray  # int64 per edge; 1..M or OVER


@dataclass(frozen=True)
class EstimatedMsfPacking:
    """The unbounded regime's packing: levels are only meaningful where
    covered is True, and there they are the exact packing of the covered
    edges.  The uncovered edges (n*w(e) <= d(e)) are the ones to set aside."""

    levels: np.ndarray  # int64 per edge; 1..M or OVER where covered
    covered: np.ndarray  # bool per edge; the estimator's domain
    d: np.ndarray  # int64 per edge; bottleneck weights in the graph estimated


def _descending_order(w: np.ndarray) -> np.ndarray:
    """Edge ids by weight descending, ties by ascending edge id.

    Each edge gets the key (hi - w) * m + id, hi the largest weight: a key
    orders by weight descending, then by id, and no two keys are equal, so
    any sort kind gives this order.  While (hi - lo + 1) * m <= 2**63, lo
    the smallest weight, every key fits int64; the keys are built, sorted
    and reduced back to ids `key % m` in one array.  Wider ranges fall back
    to the stable argsort of -w, which cannot overflow for weights in
    [1, 2**63 - 1].
    """
    m = len(w)
    if not m:
        return np.arange(0)
    hi = w.max()
    if (int(hi) - int(w.min()) + 1) * m > 2**63:
        return np.argsort(-w, kind="stable")
    key = np.subtract(hi, w)
    key *= m
    key += np.arange(m)
    key.sort()
    return np.remainder(key, m, out=key)


def msf_packing_bounded(g: WeightedGraph, M: int) -> MsfPacking:
    """M-partial packing: greedy first-fit in `_descending_order` (weight
    descending, edge id ascending) over disjoint-set forests.  M = 0 is the
    empty set of forests: every edge is OVER.

    Forest connectivity is nested (endpoints joined in forest j are joined in
    every forest below it).  So with s(x) the lowest forest where x is still
    a singleton, 1 + the highest level at x, each edge first probes its top
    candidate, forest top = min(s(u), s(v), M + 1) - 1.  If that joins its
    endpoints, the edge lands at min(s(u), s(v)), where an endpoint is still
    a singleton, or is OVER beyond M.  Otherwise a binary search over forests
    1 .. top - 1 finds the first forest that does not join them; it probes
    top - 1 first, because nearly every such edge lands at top itself, and
    that probe settles it.  An edge that goes lower pays at most one probe
    more than a plain bisection, so the search stays O(log M) finds.  Forest
    j is allocated when a singleton level first reaches it; `find` runs
    inline on its parent list.

    The ids and endpoints are read in `_descending_order`, converted to
    Python ints max(`_BLOCK`, n) edges at a time, and the levels are kept in
    a typed array that becomes the int64 result through the buffer protocol.

    Once the top forest exists, each block first drops, in numpy, every edge
    whose endpoints share a root in it.  Forests only grow, so those
    endpoints are still joined when the edge comes up; by nesting both then
    have s > M, the edge's top is the top forest, and the loop would mark it
    OVER and change nothing.  After the top forest spans, every later block
    filters to empty.
    """
    if M < 0:
        raise ValueError(f"forest count must be >= 0, got {M}")
    n, m = g.n, g.m
    levels = array("q", [OVER]) * m
    m_eff = min(M, m)  # a level index can never exceed the edge count
    if not m_eff:
        return MsfPacking(np.array(levels, dtype=np.int64))
    s = [1] * n
    parents: list[list[int]] = [[]]  # 1-based
    forests = 0  # allocated so far: len(parents) - 1

    order = _descending_order(g.edge_w)
    step = max(_BLOCK, n)
    for start in range(0, m, step):
        ids = order[start : start + step]
        us, vs = g.edge_u[ids], g.edge_v[ids]
        if forests == m_eff:
            root = _roots(np.array(parents[m_eff]))
            keep = root[us] != root[vs]
            ids, us, vs = ids[keep], us[keep], vs[keep]
        for eid, u, v in zip(ids.tolist(), us.tolist(), vs.tolist()):
            su = s[u]
            sv = s[v]
            smin = level = su if su < sv else sv
            top = smin - 1 if smin <= m_eff else m_eff
            if top:
                p = parents[top]
                ru = u
                while p[ru] != ru:
                    p[ru] = ru = p[p[ru]]
                rv = v
                while p[rv] != rv:
                    p[rv] = rv = p[p[rv]]
                if ru != rv:
                    level = top
                    lo = 1
                    mid = hi = top - 1
                    while lo <= hi:
                        q = parents[mid]
                        a = u
                        while q[a] != a:
                            q[a] = a = q[q[a]]
                        b = v
                        while q[b] != b:
                            q[b] = b = q[q[b]]
                        if a == b:
                            lo = mid + 1
                        else:
                            hi = mid - 1
                            level, p, ru, rv = mid, q, a, b
                        mid = (lo + hi) >> 1
                    p[ru] = rv
                elif smin > m_eff:
                    continue
            if level == smin:
                if smin > forests:
                    parents.append(ForestDsu(n).parent)
                    forests = smin
                # an endpoint at s == smin is a singleton there: hang it on the other
                if su == smin:
                    parents[smin][u] = v
                    s[u] = smin + 1
                else:
                    parents[smin][v] = u
                if sv == smin:
                    s[v] = smin + 1
            levels[eid] = level

    return MsfPacking(np.array(levels, dtype=np.int64))


# --- bottleneck weights ------------------------------------------------------


def _forest_positions(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Order positions of the maximum spanning forest, ascending, for the
    edges eu[i]-ev[i] listed in order (position 0 heaviest).

    Vectorized Borůvka: positions are distinct keys, so each component's
    smallest incident position (`np.minimum.at`) is a forest edge by the cut
    property.  Every component hooks across its edge; two components that
    picked the same edge hook each other, and the one with the smaller id
    stays the root.  Pointer jumping relabels the endpoints, and the edges
    that became internal drop out.
    """
    live = np.arange(len(eu))
    cu, cv = eu, ev
    picked = []
    while live.size:
        best = np.full(n, live.size)
        idx = np.arange(live.size)
        np.minimum.at(best, cu, idx)
        np.minimum.at(best, cv, idx)
        comp = np.flatnonzero(best < live.size)
        e = best[comp]
        other = np.where(cu[e] == comp, cv[e], cu[e])
        label = np.arange(n)
        label[comp] = other
        root = (label[other] == comp) & (comp < other)
        label[comp[root]] = comp[root]
        picked.append(live[e[~root]])
        label = _roots(label)
        cu, cv = label[cu], label[cv]
        keep = cu != cv
        live, cu, cv = live[keep], cu[keep], cv[keep]
    return np.sort(np.concatenate(picked)) if picked else live


def _attachments(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parent, attaching order position (m at a root) and attaching weight
    of every vertex in the union-by-size forest built from the maximum
    spanning forest's edges in `_descending_order`."""
    n, m = g.n, g.m
    order = _descending_order(g.edge_w)
    eu, ev = g.edge_u[order], g.edge_v[order]
    forest = _forest_positions(n, eu, ev)
    us, vs = eu[forest].tolist(), ev[forest].tolist()
    ws = g.edge_w[order[forest]].tolist()
    parent = list(range(n))
    size = [1] * n
    when = [m] * n
    via = [0] * n
    for pos, x, y, w in zip(forest.tolist(), us, vs, ws):
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if size[x] < size[y]:
            x, y = y, x
        parent[y] = x
        size[x] += size[y]
        when[y] = pos
        via[y] = w
    return (
        np.array(parent, dtype=np.int64),
        np.array(when, dtype=np.int64),
        np.array(via, dtype=np.int64),
    )


def bottleneck_weights(g: WeightedGraph) -> np.ndarray:
    """d(e): minimum edge weight on the path between e's endpoints in the
    maximum spanning forest that Kruskal builds in `_descending_order`; for
    forest edges d(e) = w(e).  d(e) is the largest over all e-paths of the
    path's lightest weight, the same in every maximum spanning forest.

    Three steps.  `_forest_positions` finds the forest by Borůvka in numpy.
    `_attachments` then builds a union-by-size forest without path
    compression (depth at most log2 n) from only those n - c(G) edges, in
    order; each attached root keeps the order position and weight of the
    edge that attached it, and positions rise along every path to a root.
    Last, every edge climbs both endpoints at once in numpy, always stepping
    the one attached earlier, until they meet: the last attachment climbed
    is the union that first joined them, and its weight is d(e).  That
    takes at most 2 log2 n steps.
    """
    parent, when, via = _attachments(g)
    d = np.zeros(g.m, dtype=np.int64)
    live = np.arange(g.m)
    x, y = g.edge_u, g.edge_v
    while live.size:
        first = when[x] < when[y]
        z = np.where(first, x, y)
        d[live] = via[z]
        up = parent[z]
        x = np.where(first, up, x)
        y = np.where(first, y, up)
        keep = x != y
        live, x, y = live[keep], x[keep], y[keep]
    return d


# --- the unbounded regime's estimate ------------------------------------------


def msf_packing_windowed(
    g: WeightedGraph, M: int, *, timings_ms: dict[str, float] | None = None
) -> EstimatedMsfPacking:
    """MSF indices for the covered edges, those with w(e) > d(e)/n: the
    exact M-partial packing of the covered edges alone, written back to
    their ids, so a covered index k certifies k edge-disjoint paths among
    edges at least as heavy as w(e).  d is taken in `g` itself: for the
    working set of a later level it differs from the whole input's d, so it
    cannot be computed once and passed down.  An uncovered edge is never a
    Kruskal forest edge (those have d = w), so dropping the uncovered edges
    changes no other edge's d or level.  The time of the d pass is added in
    ms into `timings_ms["bottleneck"]` when a dict is given.
    """
    t0 = time.perf_counter()
    d = bottleneck_weights(g)
    if timings_ms is not None:
        ms = (time.perf_counter() - t0) * 1e3
        timings_ms["bottleneck"] = timings_ms.get("bottleneck", 0.0) + ms

    # For positive integers k*x > y exactly when x > y // k, so the test
    # stays in int64 without overflow.
    covered = g.edge_w > d // g.n
    levels = np.zeros(g.m, dtype=np.int64)
    levels[covered] = msf_packing_bounded(g.subgraph_edges(np.flatnonzero(covered)), M).levels
    return EstimatedMsfPacking(levels=levels, covered=covered, d=d)
