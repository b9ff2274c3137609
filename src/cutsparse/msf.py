"""Partial maximum-spanning-forest packings and bottleneck weights.

A packing assigns each edge the index of the first forest whose endpoints it
can join when edges are inserted in descending weight order; edges whose
endpoints are already connected in every forest up to the requested bound get
the explicit OVER sentinel.  The exact packing is one first-fit kernel over
list-backed union-find forests, allocated as the packing first reaches them;
its first forest is also the maximum spanning forest behind the bottleneck
weights.  A windowed estimator rescales extreme weight ranges into
polynomial bands and reads exact packings there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsu import ForestDsu
from .graph import WeightedGraph

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
    """Windowed estimate: levels are only meaningful where covered is True."""

    M: int
    levels: np.ndarray  # int64 per edge; 1..M or OVER where covered
    covered: np.ndarray  # bool per edge; the estimator's domain


def _descending_order(w: np.ndarray) -> list[int]:
    """Edge ids by weight descending, ties by ascending edge id.

    Weights lie in [1, 2**63 - 1], so negating them cannot overflow int64,
    and the stable sort keeps tied edges in id order.
    """
    return np.argsort(-w, kind="stable").tolist()


def _pack_levels(
    n: int,
    edge_u: list[int],
    edge_v: list[int],
    order: list[int],
    M: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy first-fit packing over a fixed edge order.

    Forest connectivity is nested (endpoints joined in forest j are joined in
    every forest below it), so each edge first probes its top candidate,
    forest min(s(u), s(v), M + 1) - 1.  If that joins its endpoints, the edge
    lands at min(s(u), s(v)), where an endpoint is still a singleton, or is
    OVER beyond M; otherwise a binary search below the top finds the first
    forest that does not join them.  Forest j is allocated when a singleton
    level first reaches it; `find` runs inline on its parent list.
    """
    m = len(edge_u)
    levels = [OVER] * m
    m_eff = min(M, m)  # a level index can never exceed the edge count
    parents: list[list[int]] = [[]]  # 1-based
    s = [1] * n

    for eid in order:
        u = edge_u[eid]
        v = edge_v[eid]
        su = s[u]
        sv = s[v]
        smin = su if su < sv else sv
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
                levels[eid] = level
                continue
        if smin <= m_eff:
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
            levels[eid] = smin

    return np.array(levels, dtype=np.int64), np.array(s, dtype=np.int64)


def msf_packing_bounded(g: WeightedGraph, M: int) -> MsfPacking:
    """M-partial packing: first-fit in (weight descending, edge id ascending)
    order over disjoint-set forests."""
    if M < 1:
        raise ValueError(f"forest count must be >= 1, got {M}")
    levels, s = _pack_levels(
        g.n, g.edge_u.tolist(), g.edge_v.tolist(), _descending_order(g.edge_w), M
    )
    return MsfPacking(M=M, levels=levels, singleton_level=s)


# --- bottleneck weights ------------------------------------------------------

_UNREACHABLE = (1 << 63) - 1  # sentinel min; cannot be undercut by any weight


def bottleneck_weights(g: WeightedGraph) -> np.ndarray:
    """d(e): minimum edge weight on the path between e's endpoints in one
    maximum spanning forest (the packing's first forest); for forest edges
    d(e) = w(e).

    Path minima are answered with binary-lifting ancestor tables over the
    rooted forest.  Every edge of the graph has both endpoints inside one
    forest component, so the +inf sentinel is unreachable (asserted).
    """
    n, m = g.n, g.m
    d = np.zeros(m, dtype=np.int64)
    if m == 0:
        return d

    us = g.edge_u.tolist()
    vs = g.edge_v.tolist()
    ws = g.edge_w.tolist()
    order = _descending_order(g.edge_w)

    in_tree = (_pack_levels(n, us, vs, order, 1)[0] == 1).tolist()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid in order:
        if in_tree[eid]:
            adj[us[eid]].append((vs[eid], ws[eid]))
            adj[vs[eid]].append((us[eid], ws[eid]))

    # Root every tree; record parent, depth, and the weight up to the parent.
    parent = [-1] * n
    pweight = [0] * n
    depth = [0] * n
    comp = [-1] * n
    for root in range(n):
        if comp[root] != -1:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            x = stack.pop()
            for y, wxy in adj[x]:
                if comp[y] == -1:
                    comp[y] = root
                    parent[y] = x
                    pweight[y] = wxy
                    depth[y] = depth[x] + 1
                    stack.append(y)

    levels = max(1, max(depth).bit_length())
    up = [parent[:]]
    mn = [[pw if par != -1 else _UNREACHABLE for pw, par in zip(pweight, parent)]]
    for x in range(n):
        if up[0][x] == -1:
            up[0][x] = x
    for k in range(1, levels):
        prev_up, prev_mn = up[k - 1], mn[k - 1]
        up.append([prev_up[prev_up[x]] for x in range(n)])
        mn.append([min(prev_mn[x], prev_mn[prev_up[x]]) for x in range(n)])

    def path_min(u: int, v: int) -> int:
        best = _UNREACHABLE
        if depth[u] < depth[v]:
            u, v = v, u
        diff = depth[u] - depth[v]
        k = 0
        while diff:
            if diff & 1:
                if mn[k][u] < best:
                    best = mn[k][u]
                u = up[k][u]
            diff >>= 1
            k += 1
        if u == v:
            return best
        for k in range(levels - 1, -1, -1):
            if up[k][u] != up[k][v]:
                best = min(best, mn[k][u], mn[k][v])
                u = up[k][u]
                v = up[k][v]
        return min(best, mn[0][u], mn[0][v])

    for eid in range(m):
        if in_tree[eid]:
            d[eid] = ws[eid]
        else:
            assert comp[us[eid]] == comp[vs[eid]], "forest must span each component"
            d[eid] = path_min(us[eid], vs[eid])
    return d


# --- windowed estimation ------------------------------------------------------


def _round_half_up(num: int, den: int) -> int:
    return (2 * num + den) // (2 * den)


def msf_packing_windowed(g: WeightedGraph, M: int) -> EstimatedMsfPacking:
    """Estimated MSF indices for the edges with w(e) > d(e)/n.

    Windows are processed from the largest uncovered d(e) downward.  Window D
    drops edges not heavier than D/n**2, rescales weights in (D/n**2, D] by
    n**3/D (round half up), caps everything heavier than D at n**3 + 1, and
    reads the exact packing of that rescaled graph.  Each edge is covered by
    the first window whose (D/n, D] interval contains its d(e).

    Capping (rather than contracting) the heavy edges keeps their
    multiplicities honest: the window's forests are genuine subgraphs of the
    input, so a covered index k certifies k edge-disjoint connecting paths
    among edges of weight at least (1 - 1/n) w(e).  Contraction would let a
    single heavy edge impersonate arbitrarily many disjoint routes through a
    merged blob and overstate the index.
    """
    if M < 1:
        raise ValueError(f"forest count must be >= 1, got {M}")
    n, m = g.n, g.m
    levels = np.zeros(m, dtype=np.int64)
    covered = np.zeros(m, dtype=bool)
    if m == 0:
        return EstimatedMsfPacking(M=M, levels=levels, covered=covered)

    ws = g.edge_w.tolist()
    d = bottleneck_weights(g)
    ds = d.tolist()
    us = g.edge_u.tolist()
    vs = g.edge_v.tolist()
    cap = n**3 + 1  # sorts above every rescaled in-window weight, stays < n**4

    pending = [e for e in _descending_order(d) if n * ws[e] > ds[e]]

    pos = 0
    while pos < len(pending):
        D = ds[pending[pos]]
        batch = []
        while pos < len(pending) and n * ds[pending[pos]] > D:
            batch.append(pending[pos])
            pos += 1

        window_ids = [e for e in range(m) if n * n * ws[e] > D]
        window_graph = WeightedGraph.from_edges(
            g.n,
            [
                (
                    us[e],
                    vs[e],
                    cap if ws[e] > D else _round_half_up(n**3 * ws[e], D),
                )
                for e in window_ids
            ],
        )
        packing = msf_packing_bounded(window_graph, M)
        local = {e: i for i, e in enumerate(window_ids)}
        for e in batch:
            assert e in local, "covered edge must survive into its window"
            levels[e] = packing.levels[local[e]]
            covered[e] = True

    return EstimatedMsfPacking(M=M, levels=levels, covered=covered)
