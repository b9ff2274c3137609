"""Forest-index connectivity estimates via maximum-adjacency ordering, and
the linear-time preprocessing sparsifier built on them.

A weight-w edge occupies w contiguous forests of the packing; the stored
index l_e is the last of them.  Indices come from one maximum-adjacency scan
over vertex pairs: vertices leave a max-heap keyed by their attachment r(v),
and scanning x gives each pair (x, y) to a still-queued y the base r(y), then
raises r(y) by the pair's total weight.  An edge's index is its pair's base
plus the prefix sum of the pair's weights up to it, in edge-id order, so
parallel edges fill consecutive forests without materializing Theta(sum of
weights) forests.  Bases and prefix sums are Python ints: they can pass 2^64.
"""

from __future__ import annotations

import heapq
import math
import time
from itertools import accumulate

import numpy as np

from .graph import SparseGraph, WeightedGraph
from .sampling import RngStream, compress

# Fixed constant of the preprocessing sampler; scaled only by the shared
# practical-mode knob.
PREPROCESS_RHO_CONSTANT = 224.0 / 0.38


def ni_indices(g: WeightedGraph) -> list[int]:
    """Last occupied forest index per edge, from a maximum-adjacency scan
    over vertex pairs (Python ints: sums of weights may exceed 64 bits).

    Vertices leave a max-heap keyed by their attachment r(v), ties to the
    smallest id; scanning vertex x gives each pair (x, y) to a still-queued
    neighbor y the range (r(y), r(y) + W], W the pair's total weight, then
    raises r(y) by W.  Within the range the pair's edges follow in id order,
    each ending at r(y) plus the weights of its pair up to and including it.
    """
    n, m = g.n, g.m
    if m == 0:
        return []
    lo = np.minimum(g.edge_u, g.edge_v)
    hi = np.maximum(g.edge_u, g.edge_v)
    order = np.lexsort((np.arange(m), hi, lo))
    lo, hi = lo[order], hi[order]
    starts = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    prefix = list(accumulate(g.edge_w[order].tolist()))
    # per pair: the prefix sum before its first edge, and its total weight
    before = [0] + [prefix[i - 1] for i in starts[1:].tolist()]
    total = [b - a for a, b in zip(before, before[1:] + [prefix[-1]])]

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for p, (a, b) in enumerate(zip(lo[starts].tolist(), hi[starts].tolist())):
        adj[a].append((b, p))
        adj[b].append((a, p))

    base = [0] * len(before)
    r = [0] * n
    visited = [False] * n
    heap: list[tuple[int, int]] = [(0, x) for x in range(n)]
    heapq.heapify(heap)
    while heap:
        neg_r, x = heapq.heappop(heap)
        if visited[x] or -neg_r != r[x]:
            continue
        visited[x] = True
        for y, p in adj[x]:
            if not visited[y]:
                base[p] = r[y]
                r[y] += total[p]
                heapq.heappush(heap, (-r[y], y))

    shift = np.array(base, dtype=object) - np.array(before, dtype=object)
    levels = np.repeat(shift, np.diff(np.r_[starts, m])) + np.array(prefix, dtype=object)
    out = np.empty(m, dtype=object)
    out[order] = levels
    return out.tolist()


def preprocess_rho(n: int, epsilon: float, rho_scale: float = 1.0) -> float:
    return rho_scale * PREPROCESS_RHO_CONSTANT * math.log(n) / epsilon**2


def ni_preprocess(
    g: WeightedGraph, rho: float, seed: int, *, timings_ms: dict[str, float] | None = None
) -> tuple[SparseGraph, bool]:
    """Compress every edge with p_e = min(1, rho / l_e); also return whether
    it kept every edge (every l_e <= rho, so every p_e = 1 and the output is
    the input).  Stage times in ms, `indices` and `compression`, go into
    `timings_ms` when one is given."""
    t0 = time.perf_counter()
    indices = ni_indices(g)
    t1 = time.perf_counter()
    probs = np.minimum(1.0, rho / np.array(indices, dtype=np.float64))
    kept, weights = compress(
        range(g.m), g.edge_w.tolist(), probs.tolist(), RngStream(seed).child("ni-compress")
    )
    ids = np.array(kept, dtype=np.int64)
    h = SparseGraph.from_arrays(g.n, g.edge_u[ids], g.edge_v[ids], weights)
    if timings_ms is not None:
        timings_ms["indices"] = (t1 - t0) * 1e3
        timings_ms["compression"] = (time.perf_counter() - t1) * 1e3
    return h, max(indices, default=0) <= rho
