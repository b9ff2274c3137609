"""Partial maximum-spanning-forest packings and bottleneck weights.

A packing assigns each edge the index of the first forest whose endpoints it
can join when edges are inserted in descending weight order; edges whose
endpoints are already connected in every forest up to the requested bound get
the explicit OVER sentinel.  The exact packing is one first-fit kernel over
list-backed union-find forests, allocated as the packing first reaches them.
The kernel stops once its top forest spans the graph: every later edge then
has its endpoints joined in all M forests, so it is OVER and moves no
singleton level, and the levels are those of the full pass.  The bottleneck
weights come from their own descending Kruskal pass over a union-by-size
forest that keeps the order of its unions.  A windowed estimator rescales
extreme weight ranges into polynomial bands and reads exact packings there;
its domain, the edges with n*w(e) > d(e), is the one place the unbounded
regime's set-aside rule lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsu import ForestDsu
from .graph import WeightedGraph
from .oracles import _components

# Sentinel for "endpoints connected in every forest up to M"; kept distinct
# from any valid level so arithmetic on it fails loudly.
OVER = -1


@dataclass(frozen=True)
class MsfPacking:
    """Per-edge forest index (1-based, OVER beyond M) plus the per-vertex
    smallest level at which the vertex is still a singleton."""

    M: int
    levels: np.ndarray  # int64 per edge; 1..M or OVER
    singleton_level: np.ndarray  # int64 per vertex


@dataclass(frozen=True)
class EstimatedMsfPacking:
    """Windowed estimate: levels are only meaningful where covered is True.
    The uncovered edges (n*w(e) <= d(e)) are the ones to set aside."""

    M: int
    levels: np.ndarray  # int64 per edge; 1..M or OVER where covered
    covered: np.ndarray  # bool per edge; the estimator's domain
    d: np.ndarray  # int64 per edge; bottleneck weights in the graph estimated


def _descending_order(w: np.ndarray) -> list[int]:
    """Edge ids by weight descending, ties by ascending edge id.

    Weights lie in [1, 2**63 - 1], so negating them cannot overflow int64,
    and the stable sort keeps tied edges in id order.
    """
    return np.argsort(-w, kind="stable").tolist()


def msf_packing_bounded(g: WeightedGraph, M: int) -> MsfPacking:
    """M-partial packing: greedy first-fit in `_descending_order` (weight
    descending, edge id ascending) over disjoint-set forests.  M = 0 is the
    empty set of forests: every edge is OVER and every singleton level is 1.

    Forest connectivity is nested (endpoints joined in forest j are joined in
    every forest below it), so each edge first probes its top candidate,
    forest min(s(u), s(v), M + 1) - 1.  If that joins its endpoints, the edge
    lands at min(s(u), s(v)), where an endpoint is still a singleton, or is
    OVER beyond M; otherwise a binary search below the top finds the first
    forest that does not join them.  Forest j is allocated when a singleton
    level first reaches it; `find` runs inline on its parent list.

    The loop stops once the top forest spans, holding n - c(G) edges for the
    c(G) components of `g`: every later edge then has its endpoints joined
    in the top forest, hence in all M, so it is OVER and moves no singleton
    level.  The top forest never holds more edges than forest 1, so c(G) is
    counted only when its count first catches up with forest 1's, and at
    most once.
    """
    if M < 0:
        raise ValueError(f"forest count must be >= 0, got {M}")
    n, m = g.n, g.m
    edge_u = g.edge_u.tolist()
    edge_v = g.edge_v.tolist()
    levels = [OVER] * m
    s = [1] * n
    m_eff = min(M, m)  # a level index can never exceed the edge count
    if not m_eff:
        return MsfPacking(M, np.array(levels, dtype=np.int64), np.array(s, dtype=np.int64))
    parents: list[list[int]] = [[]]  # 1-based
    placed = [0] * (m_eff + 1)  # edges per forest
    need = -1  # n - c(G), once counted

    for eid in _descending_order(g.edge_w):
        u = edge_u[eid]
        v = edge_v[eid]
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
                hi = top - 1
                while lo <= hi:
                    mid = (lo + hi) >> 1
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
                p[ru] = rv
            elif smin > m_eff:
                continue
        if level == smin:
            if smin == len(parents):
                parents.append(ForestDsu(n).parent)
            # an endpoint at s == smin is a singleton there: hang it on the other
            if su == smin:
                parents[smin][u] = v
                s[u] = smin + 1
            else:
                parents[smin][v] = u
            if sv == smin:
                s[v] = smin + 1
        levels[eid] = level
        placed[level] += 1
        if level == m_eff and placed[level] == placed[1]:
            if need < 0:
                need = n - int(np.count_nonzero(_components(g) == np.arange(n)))
            if placed[level] == need:
                break

    return MsfPacking(M, np.array(levels, dtype=np.int64), np.array(s, dtype=np.int64))


# --- bottleneck weights ------------------------------------------------------


def bottleneck_weights(g: WeightedGraph) -> np.ndarray:
    """d(e): minimum edge weight on the path between e's endpoints in the
    maximum spanning forest that Kruskal builds in `_descending_order`; for
    forest edges d(e) = w(e).

    One descending pass over a union-by-size forest without path compression
    (depth at most log2 n).  Each attached root keeps the order position and
    weight of the edge that attached it, and positions rise along every path
    to a root.  A non-forest edge climbs both endpoints, always stepping the
    one attached earlier, until they meet: the last attachment climbed is the
    union that first joined them, and its weight is d(e).
    """
    n, m = g.n, g.m
    us = g.edge_u.tolist()
    vs = g.edge_v.tolist()
    ws = g.edge_w.tolist()
    d = [0] * m
    parent = list(range(n))
    size = [1] * n
    when = [m] * n  # order position of the edge that attached x; m at a root
    via = [0] * n  # weight of that edge
    for pos, eid in enumerate(_descending_order(g.edge_w)):
        x = us[eid]
        y = vs[eid]
        while x != y:
            if when[x] < when[y]:
                d[eid] = via[x]
                x = parent[x]
            elif when[y] < when[x]:
                d[eid] = via[y]
                y = parent[y]
            else:  # two roots: e joins their trees
                if size[x] < size[y]:
                    x, y = y, x
                parent[y] = x
                size[x] += size[y]
                when[y] = pos
                via[y] = d[eid] = ws[eid]
                break
    return np.array(d, dtype=np.int64)


# --- windowed estimation ------------------------------------------------------


def msf_packing_windowed(g: WeightedGraph, M: int) -> EstimatedMsfPacking:
    """Estimated MSF indices for the covered edges, those with w(e) > d(e)/n.

    Coverage is decided once, up front, and windows pack covered edges only.
    Windows are processed from the largest d(e) not yet reached downward.
    Window D drops edges not heavier than D/n**2, rescales weights in
    (D/n**2, D] by n**3/D (round half up), caps everything heavier than D at
    n**3 + 1, and reads the exact packing of that rescaled graph.  Each
    covered edge takes its level from the first window whose (D/n, D]
    interval contains its d(e); at M = 0 no window is packed and every
    covered edge is OVER.  d is taken in `g` itself: for the working set of
    a later level it differs from the whole input's d, so it cannot be
    computed once and passed down.  An uncovered edge is never a Kruskal
    forest edge (those have d = w), so dropping the uncovered edges changes
    no other edge's d, level or window.

    Capping (rather than contracting) the heavy edges keeps their
    multiplicities honest: the window's forests are genuine subgraphs of the
    input, so a covered index k certifies k edge-disjoint connecting paths
    among edges of weight at least (1 - 1/n) w(e).  Contraction would let a
    single heavy edge impersonate arbitrarily many disjoint routes through a
    merged blob and overstate the index.
    """
    if M < 0:
        raise ValueError(f"forest count must be >= 0, got {M}")
    n = g.n
    w = g.edge_w
    d = bottleneck_weights(g)
    cap = n**3 + 1  # sorts above every rescaled in-window weight, stays < n**4

    # For positive integers k*x > y exactly when x > y // k, so the weight
    # tests below stay in int64 without overflow.
    covered = w > d // n
    levels = np.where(covered, OVER, 0)
    pending = covered.copy()
    while M and pending.any():
        D = int(d[pending].max())
        batch = pending & (d > D // n)
        pending &= ~batch

        window = covered & (w > D // (n * n))
        assert window[batch].all(), "covered edge must survive into its window"
        idx = np.flatnonzero(window)
        # n**3 * x / D rounded half up, as (2 n**3 x + D) // 2D in Python ints
        k, two_D = 2 * n**3, 2 * D
        window_graph = WeightedGraph.from_arrays(
            g.n,
            g.edge_u[idx],
            g.edge_v[idx],
            [cap if x > D else (k * x + D) // two_D for x in w[idx].tolist()],
        )
        packing = msf_packing_bounded(window_graph, M)
        levels[batch] = packing.levels[np.searchsorted(idx, np.flatnonzero(batch))]

    return EstimatedMsfPacking(M=M, levels=levels, covered=covered, d=d)
