"""Forest-index connectivity estimates via maximum-adjacency ordering, and
the linear-time preprocessing sparsifier built on them.

A weight-w edge occupies w contiguous forests of the packing; the stored
index l_e is the last of them.  Indices are computed by scanning vertices in
decreasing attachment order with a binary heap, which matches the classic
forest-packing semantics without materializing Theta(sum of weights) forests.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .graph import SparseGraph, WeightedGraph
from .sampling import RngStream, compress

# Fixed constant of the preprocessing sampler; scaled only by the shared
# practical-mode knob.
PREPROCESS_RHO_CONSTANT = 224.0 / 0.38


def ni_indices(g: WeightedGraph) -> list[int]:
    """Last occupied forest index per edge, from a maximum-adjacency scan
    (Python ints: sums of weights may exceed 64 bits).

    Vertices leave a max-heap keyed by their attachment r(v); scanning vertex
    x assigns every edge to a still-queued neighbor y the range
    (r(y), r(y) + w], i.e. l_e = r(y) + w(e), then raises r(y).
    """
    n, m = g.n, g.m
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for eid, (u, v, w) in enumerate(
        zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist())
    ):
        adj[u].append((v, w, eid))
        adj[v].append((u, w, eid))

    levels = [0] * m
    r = [0] * n
    visited = [False] * n
    heap: list[tuple[int, int]] = [(0, x) for x in range(n)]
    heapq.heapify(heap)
    while heap:
        neg_r, x = heapq.heappop(heap)
        if visited[x] or -neg_r != r[x]:
            continue
        visited[x] = True
        for y, w, eid in adj[x]:
            if not visited[y]:
                levels[eid] = r[y] + w
                r[y] += w
                heapq.heappush(heap, (-r[y], y))
    return levels


def preprocess_rho(n: int, epsilon: float, rho_scale: float = 1.0) -> float:
    return rho_scale * PREPROCESS_RHO_CONSTANT * math.log(n) / epsilon**2


def ni_preprocess(g: WeightedGraph, rho: float, seed: int) -> tuple[SparseGraph, bool]:
    """Compress every edge with p_e = min(1, rho / l_e); also return whether
    it kept every edge (every l_e <= rho, so every p_e = 1 and the output is
    the input)."""
    indices = ni_indices(g)
    kept, weights = compress(
        range(g.m),
        g.edge_w.tolist(),
        (min(1.0, rho / l) for l in indices),
        RngStream(seed).child("ni-compress"),
    )
    ids = np.array(kept, dtype=np.int64)
    h = SparseGraph.from_arrays(g.n, g.edge_u[ids], g.edge_v[ids], weights)
    return h, all(l <= rho for l in indices)
