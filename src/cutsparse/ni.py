"""Forest-index connectivity estimates via maximum-adjacency ordering, and
the linear-time preprocessing sparsifier built on them.

A weight-w edge occupies w contiguous forests of the packing; the stored
index l_e is the last of them.  Indices come from one maximum-adjacency scan
over vertex pairs: the next vertex x is the unscanned one of largest
attachment r(v), ties to the smallest id, and scanning x gives each pair
(x, y) to an unscanned y the base r(y), then raises r(y) by the pair's total
weight.  An edge's index is its pair's base plus the prefix sum of the pair's
weights up to it, in edge-id order, so parallel edges fill consecutive
forests without materializing Theta(sum of weights) forests.

Every attachment, base and index is at most the total weight, so all of them
are int64 when that total fits in 63 bits, and Python ints in object arrays
when it does not: sums past 2^64 stay exact.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .graph import MAX_WEIGHT, SparseGraph, WeightedGraph
from .sampling import RngStream, compress

# Fixed constant of the preprocessing sampler, scaled by rho_scale in theory
# mode; a practical-mode NI pass runs at rho = PRACTICAL_NI_RHO instead.
PREPROCESS_RHO_CONSTANT = 224.0 / 0.38


def ni_indices(g: WeightedGraph) -> np.ndarray:
    """Last occupied forest index per edge, from a maximum-adjacency scan
    over vertex pairs; int64 when the total weight fits in 63 bits, else an
    object array of Python ints.

    The attachments r(v) sit in one array cut into ceil(sqrt(n)) blocks with
    one maximum per block: the next vertex x is the first maximum of the
    first maximal block, which is the smallest id of largest r.  Scanning x
    gives each pair (x, y) to an unscanned neighbor y the range
    (r(y), r(y) + W], W the pair's total weight, raises r(y) by W, marks x
    scanned with r(x) = -1 and refreshes the maxima of the blocks it touched.
    Within the range the pair's edges follow in id order, each ending at r(y)
    plus the weights of its pair up to and including it.
    """
    n, m = g.n, g.m
    w = g.edge_w
    # exact total weight from the 32-bit halves, whose sums cannot overflow
    total_weight = (int((w >> 32).sum()) << 32) + int((w & 0xFFFFFFFF).sum())
    dtype = np.int64 if total_weight <= MAX_WEIGHT else object
    if m == 0:
        return np.zeros(0, dtype=dtype)

    lo = np.minimum(g.edge_u, g.edge_v)
    hi = np.maximum(g.edge_u, g.edge_v)
    # by pair, then by edge id; numpy's stable sort is a radix sort on keys of
    # up to 16 bits, which the narrowest dtype gives for n <= 256
    key = (lo * n + hi).astype(np.min_scalar_type(n * n))
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sizes = np.diff(np.r_[starts, m])
    ws = w[order].astype(dtype, copy=False)
    prefix = np.cumsum(ws)
    # per pair: the prefix sum before its first edge, and its total weight
    before = prefix[starts] - ws[starts]
    total = prefix[starts + sizes - 1] - before

    # both orientations of every pair, grouped by their first vertex
    pairs = len(starts)
    first = order[starts]
    a, b = lo[first], hi[first]
    src = np.r_[a, b]
    by_src = np.argsort(src, kind="stable")
    nbr = np.r_[b, a][by_src]
    pid = np.tile(np.arange(pairs), 2)[by_src]
    indptr = np.r_[0, np.cumsum(np.bincount(src, minlength=n))].tolist()

    size = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) vertices per block
    r = np.full(-(-n // size) * size, -1, dtype=dtype)
    r[:n] = 0
    blocks = r.reshape(-1, size)
    block_max = blocks.max(axis=1)
    base = np.zeros(pairs, dtype=dtype)
    for _ in range(n):
        k = int(block_max.argmax())
        x = k * size + int(blocks[k].argmax())
        ys, ps = nbr[indptr[x] : indptr[x + 1]], pid[indptr[x] : indptr[x + 1]]
        ry = r[ys]
        open_ = ry >= 0
        if open_.any():
            ys, ps, ry = ys[open_], ps[open_], ry[open_]
            base[ps] = ry
            ry = ry + total[ps]
            r[ys] = ry
            np.maximum.at(block_max, ys // size, ry)
        r[x] = -1
        block_max[k] = blocks[k].max()

    out = np.empty(m, dtype=dtype)
    out[order] = np.repeat(base - before, sizes) + prefix
    return out


def preprocess_rho(n: int, epsilon: float, rho_scale: float = 1.0) -> float:
    return rho_scale * PREPROCESS_RHO_CONSTANT * math.log(n) / epsilon**2


def ni_preprocess(
    g: WeightedGraph, rho: float, seed: int, *, timings_ms: dict[str, float] | None = None
) -> WeightedGraph | SparseGraph:
    """Compress every edge with p_e = min(1, rho / l_e).  When every
    l_e <= rho, every p_e is 1: nothing is drawn and the output is `g`
    itself.  Stage times in ms, `indices` and `compression`, go into
    `timings_ms` when one is given."""
    t0 = time.perf_counter()
    indices = ni_indices(g)
    t1 = time.perf_counter()
    h = g
    # a Python int against rho compares exactly; int64 against float64 rounds
    if (int(indices.max()) if g.m else 0) > rho:
        probs = np.minimum(1.0, rho / indices.astype(np.float64))
        kept, weights = compress(
            g.edge_w.astype(np.float64), probs, RngStream(seed).child("ni-compress")
        )
        h = SparseGraph.from_arrays(g.n, g.edge_u[kept], g.edge_v[kept], weights)
    if timings_ms is not None:
        timings_ms["indices"] = (t1 - t0) * 1e3
        timings_ms["compression"] = (time.perf_counter() - t1) * 1e3
    return h
