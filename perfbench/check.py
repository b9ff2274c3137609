"""Correctness checks on the program's outputs, written independently of the
library: an edge-list reader, connectivity, a fixed cut family and a dense
Stoer-Wagner minimum cut (Stoer & Wagner 1997) in numpy.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from workloads import Graph

BIPARTITIONS = 64  # random bipartitions in the cut family, one bit each


def read_edgelist(path: Path) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, u, v, w) of an "n m" + "u v w" file; raises ValueError if malformed."""
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise ValueError("missing 'n m' header")
    n, m = int(tokens[0]), int(tokens[1])
    body = np.array(tokens[2:], dtype=np.float64)
    if len(body) != 3 * m:
        raise ValueError(f"header announces {m} edges, file has {len(body) / 3:g}")
    body = body.reshape(m, 3)
    u = body[:, 0].astype(np.int64)
    v = body[:, 1].astype(np.int64)
    w = body[:, 2]
    if m and (u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n or np.any(u == v)):
        raise ValueError("endpoint out of range or self-loop")
    if m and not (np.all(np.isfinite(w)) and w.min() > 0):
        raise ValueError("weights must be positive and finite")
    return n, u, v, w


def components(n: int, u: np.ndarray, v: np.ndarray) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def random_sides(n: int, seed: int) -> np.ndarray:
    """Per-vertex uint64 whose bit b says which side of bipartition b the
    vertex is on."""
    rng = np.random.default_rng([seed, 0xC075])
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


def family_cut_values(n, u, v, w, sides: np.ndarray) -> np.ndarray:
    """Weights of the cut family: the n singleton cuts, then one cut per bit
    of `sides`."""
    w = np.asarray(w, dtype=np.float64)
    singles = np.bincount(u, weights=w, minlength=n) + np.bincount(v, weights=w, minlength=n)
    crossing = sides[u] ^ sides[v]
    parts = [
        w[((crossing >> np.uint64(b)) & np.uint64(1)).astype(bool)].sum()
        for b in range(BIPARTITIONS)
    ]
    return np.concatenate([singles, np.array(parts)])


def rel_errors(g: Graph, n_h, u_h, v_h, w_h, seed: int) -> np.ndarray:
    """|w_H(C)/w_G(C) - 1| over the family (0 where both cuts are empty, inf
    where only G's is)."""
    sides = random_sides(g.n, seed)
    wg = family_cut_values(g.n, g.u, g.v, g.w, sides)
    wh = family_cut_values(n_h, u_h, v_h, w_h, sides)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(wh / wg - 1.0)
    err[wg == 0] = np.where(wh[wg == 0] == 0, 0.0, np.inf)
    return err


def cut_weight(u, v, w, side: np.ndarray) -> float:
    """Weight crossing the vertex subset `side` (a boolean mask)."""
    return float(np.asarray(w, dtype=np.float64)[side[u] != side[v]].sum())


def stoer_wagner(n: int, u, v, w) -> float:
    """Exact global minimum cut weight of a connected graph, dense O(n^3)."""
    adj = np.zeros((n, n), dtype=np.float64)
    np.add.at(adj, (u, v), w)
    adj += adj.T
    active = list(range(n))
    best = float("inf")
    while len(active) > 1:
        idx = np.array(active)
        sub = adj[np.ix_(idx, idx)]
        k = len(idx)
        key = sub[0].copy()
        added = np.zeros(k, dtype=bool)
        added[0] = True
        prev, last = 0, 0
        for _ in range(k - 1):
            z = int(np.argmax(np.where(added, -np.inf, key)))
            added[z] = True
            prev, last = last, z
            key += sub[z]
        best = min(best, float(sub[last].sum()))
        s, t = idx[prev], idx[last]
        adj[s] += adj[t]
        adj[:, s] += adj[:, t]
        adj[s, s] = 0.0
        active.remove(int(t))
    return best
