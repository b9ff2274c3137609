"""Reference implementations the test suites compare against.

Everything here is deliberately independent of the library's fast paths:
the packing oracle repeats standalone Kruskal passes over its own
descending sort, the bottleneck oracle climbs every edge through a
union-by-size forest as the edge arrives in one descending pass, edge
connectivity enumerates every cut (only up to ENUMERATION_LIMIT vertices),
the NI oracle scans every edge with its own heap push, the components
oracle searches adjacency lists breadth first, the min-cut oracle runs
Stoer-Wagner on Python numbers (exact on integer graphs), the binomial
oracle inverts each uniform with exact rational pmfs, the edge-list oracle
formats the file line by line with Python's str and repr, and the packing
validators re-check forests edge by edge.  `single_round` is the exception:
it runs the library's own round of Algorithm 1 at the config's full
epsilon, the harness the single-round tests need.  `rho_scale_for` pins
such a round at a rho other than practical mode's.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import deque
from fractions import Fraction
from functools import lru_cache

import numpy as np

from cutsparse import CutSpec, SparseGraph, WeightedGraph
from cutsparse.msf import OVER, MsfPacking
from cutsparse.oracles import ENUMERATION_LIMIT, _all_cut_weights
from cutsparse.sampling import RngStream
from cutsparse.sparsify import RunReport, SparsifyConfig, _algorithm_one, rho


def single_round(
    g: WeightedGraph, cfg: SparsifyConfig, *, unbounded: bool = False, capture_levels: bool = False
) -> tuple[WeightedGraph | SparseGraph, RunReport]:
    """One round of Algorithm 1 at cfg.epsilon on the stream RngStream(cfg.seed),
    in the polynomial regime, or in the unbounded one, which sets its
    uncovered edges aside at level 0; the round takes an integral input, so
    it rescales nothing."""
    h, report, _ = _algorithm_one(
        g, cfg, cfg.epsilon, RngStream(cfg.seed), unbounded=unbounded, capture_levels=capture_levels
    )
    return h, report


def rho_scale_for(n: int, epsilon: float, target: float) -> float:
    """Theory-mode rho_scale that puts a round run at precision `epsilon` at
    rho = target (practical mode computes its scale the same way, at 8)."""
    return target / rho(n, epsilon)


def oracle_msf_packing(g: WeightedGraph, M: int) -> MsfPacking:
    """Literal definition of a packing: M standalone descending-Kruskal
    rounds, each removing its forest before the next round starts."""
    if M < 0:
        raise ValueError(f"forest count must be >= 0, got {M}")
    m = g.m
    us = g.edge_u.tolist()
    vs = g.edge_v.tolist()
    ws = g.edge_w.tolist()
    levels = np.full(m, OVER, dtype=np.int64)
    remaining = sorted(range(m), key=lambda e: (-ws[e], e))
    for level in range(1, M + 1):
        if not remaining:
            break
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        leftover = []
        for eid in remaining:
            ru, rv = find(us[eid]), find(vs[eid])
            if ru != rv:
                parent[ru] = rv
                levels[eid] = level
            else:
                leftover.append(eid)
        remaining = leftover

    singleton = np.ones(g.n, dtype=np.int64)
    for eid in range(m):
        lev = levels[eid]
        if lev != OVER:
            for x in (us[eid], vs[eid]):
                if singleton[x] <= lev:
                    singleton[x] = lev + 1
    return MsfPacking(M=M, levels=levels, singleton_level=singleton)


def oracle_bottleneck_weights(g: WeightedGraph) -> np.ndarray:
    """d(e) by one descending pass over a union-by-size forest without path
    compression: each attached root keeps the order position and weight of
    the edge that attached it.  An edge climbs both endpoints, always
    stepping the one attached earlier, until they meet (the last attachment
    climbed is the union that first joined them, and its weight is d(e)) or
    reach two roots, which the edge then joins (d(e) = w(e))."""
    n, m = g.n, g.m
    us = g.edge_u.tolist()
    vs = g.edge_v.tolist()
    ws = g.edge_w.tolist()
    d = [0] * m
    parent = list(range(n))
    size = [1] * n
    when = [m] * n  # order position of the edge that attached x; m at a root
    via = [0] * n  # weight of that edge
    for pos, eid in enumerate(sorted(range(m), key=lambda e: (-ws[e], e))):
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


# --- edge connectivity --------------------------------------------------------


def edge_connectivity(g: WeightedGraph | SparseGraph, u: int, v: int) -> int | float:
    """Minimum weight over all cuts separating u and v, by enumerating every
    cut; graphs over ENUMERATION_LIMIT vertices raise ValueError."""
    if u == v:
        raise ValueError("endpoints must differ")
    if g.n > ENUMERATION_LIMIT:
        raise ValueError(f"n={g.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    n = g.n
    size = 1 << (n - 1)
    masks = np.arange(size, dtype=np.int64)
    bu = (masks >> u) & 1 if u < n - 1 else np.zeros(size, dtype=np.int64)
    bv = (masks >> v) & 1 if v < n - 1 else np.zeros(size, dtype=np.int64)
    separating = bu != bv
    weights = _all_cut_weights(g)
    best = float(weights[separating].min())
    if isinstance(g, WeightedGraph):
        # recompute the winning cut exactly to avoid float rounding
        idx = int(np.flatnonzero(separating)[np.argmin(weights[separating])])
        member = [(idx >> x) & 1 if x < n - 1 else 0 for x in range(n)]
        exact = sum(
            w
            for uu, vv, w in zip(
                g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()
            )
            if member[uu] != member[vv]
        )
        return exact
    return best


def oracle_ni_indices(g: WeightedGraph) -> list[int]:
    """NI indices edge by edge: scanning x gives each edge to a still-queued
    neighbor y, in edge-id order, l_e = r(y) + w(e), raises r(y) by w(e) and
    pushes y again."""
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


def oracle_components(g: WeightedGraph | SparseGraph) -> list[int]:
    """Component label per vertex by breadth-first search over adjacency
    lists: the smallest vertex id in its component, since the searches start
    at each still unlabelled vertex in id order."""
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


def oracle_min_cut(g: WeightedGraph | SparseGraph) -> tuple[CutSpec, int | float]:
    """Stoer-Wagner on nested lists of Python numbers: exact on integer
    graphs, and on float graphs the same additions in the same order as the
    library's matrix version.  Ties in the maximum-adjacency order go to the
    smallest vertex id; disconnected input isolates vertex 0's component."""
    n = g.n
    comp = oracle_components(g)
    if len(set(comp)) > 1:
        side = [x for x in range(n) if comp[x] == comp[0]]
        return CutSpec.from_vertices(side), 0.0 if isinstance(g, SparseGraph) else 0

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
        for x in active:
            if x != s and x != t:
                weight[s][x] += weight[t][x]
                weight[x][s] = weight[s][x]
        groups[s].extend(groups[t])
        active.remove(t)
    return CutSpec.from_vertices(best_side), best_value


def _weight_text(w: int | float) -> str:
    """An int weight, and an integral float below 2^63, as an integer; any
    other float by repr."""
    if isinstance(w, int) or (w.is_integer() and abs(w) < 2**63):
        return str(int(w))
    return repr(w)


def oracle_edge_list_text(g: WeightedGraph | SparseGraph) -> str:
    """The edge-list file `save_graph` writes for g, one line at a time."""
    lines = [f"{g.n} {g.m}"] + [f"{u} {v} {_weight_text(w)}" for u, v, w in g.edges()]
    return "\n".join(lines) + "\n"


def binomial_pmf(n: int, p: float, k: int) -> float:
    """Binomial point mass via log-gamma; exact short-circuits at p in {0,1}."""
    if n < 0 or not (0.0 <= p <= 1.0):
        raise ValueError("need n >= 0 and p in [0, 1]")
    if k < 0 or k > n:
        return 0.0
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return math.exp(log_pmf)


@lru_cache(maxsize=None)
def _exact_inversion_table(n: int, p: float) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """The support of Binomial(n, p), 0 < p < 1, in the order mode, mode + 1,
    mode - 1, mode + 2, ... (the mode as floats give it, floor((n + 1.0) * p),
    like the library), with the exact running sums of its pmf."""
    mode = min(math.floor((n + 1.0) * p), n)
    order = [mode]
    for step in range(1, n + 1):
        order += [k for k in (mode + step, mode - step) if 0 <= k <= n]
    pf = Fraction(p)
    total = Fraction(0)
    sums = []
    for k in order:
        total += math.comb(n, k) * pf**k * (1 - pf) ** (n - k)
        sums.append(total)
    return tuple(order), tuple(sums)


def oracle_binomial_draws(trials: list[int], probs: list[float], seed: int) -> list[int]:
    """Binomial(trials[i], probs[i]) draws by exact inversion, one uniform per
    entry in order: uniform i is ((x >> 12) + 1/2) / 2^52, x the i-th
    little-endian 64-bit word of SHAKE-128 over the seed's 8 little-endian
    bytes.  p = 1 gives n and p = 0 gives 0, each still taking its uniform."""
    raw = hashlib.shake_128(seed.to_bytes(8, "little")).digest(8 * len(trials))
    out = []
    for i, (n, p) in enumerate(zip(trials, probs)):
        x = int.from_bytes(raw[8 * i : 8 * i + 8], "little")
        u = Fraction(2 * (x >> 12) + 1, 1 << 53)
        if p == 1.0 or n == 0 or p == 0.0:
            out.append(n if p == 1.0 else 0)
            continue
        order, sums = _exact_inversion_table(n, p)
        out.append(next(k for k, s in zip(order, sums) if s >= u))
    return out


# --- packing validators (used by invariant tests) ------------------------------


def validate_msf_packing_forests(g: WeightedGraph, packing: MsfPacking) -> None:
    """Check each level's edge set is acyclic and levels stay within 1..M."""
    levels = packing.levels
    if len(levels) != g.m:
        raise AssertionError("level array does not match edge count")
    for level in sorted(set(levels.tolist()) - {OVER}):
        if not (1 <= level <= packing.M):
            raise AssertionError(f"level {level} outside 1..{packing.M}")
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for eid in np.flatnonzero(levels == level).tolist():
            ru, rv = find(int(g.edge_u[eid])), find(int(g.edge_v[eid]))
            if ru == rv:
                raise AssertionError(f"cycle in forest {level}")
            parent[ru] = rv


def validate_msf_packing_heaviness(g: WeightedGraph, packing: MsfPacking) -> None:
    """For each OVER edge, its endpoints must be connected inside every level
    using only edges at least as heavy (per-level BFS check)."""
    levels = packing.levels.tolist()
    us = g.edge_u.tolist()
    vs = g.edge_v.tolist()
    ws = g.edge_w.tolist()
    max_level = max((lv for lv in levels if lv != OVER), default=0)
    if max_level < packing.M and any(lv == OVER for lv in levels):
        raise AssertionError("OVER edge although some forest stayed empty")
    by_level: dict[int, list[int]] = {}
    for eid, lv in enumerate(levels):
        if lv != OVER:
            by_level.setdefault(lv, []).append(eid)
    for eid, lv in enumerate(levels):
        if lv != OVER:
            continue
        threshold = ws[eid]
        for level in range(1, packing.M + 1):
            adj: dict[int, list[int]] = {}
            for fid in by_level.get(level, []):
                if ws[fid] >= threshold:
                    adj.setdefault(us[fid], []).append(vs[fid])
                    adj.setdefault(vs[fid], []).append(us[fid])
            start, goal = us[eid], vs[eid]
            seen = {start}
            queue = deque([start])
            found = False
            while queue:
                x = queue.popleft()
                if x == goal:
                    found = True
                    break
                for y in adj.get(x, []):
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            if not found:
                raise AssertionError(
                    f"edge {eid} is OVER but not heavy in forest {level}"
                )


def validate_ni_indices(g: WeightedGraph, levels: list[int]) -> None:
    """Reconstruct the occupied forests: edge e occupies l_e - w(e) + 1 .. l_e
    and every occupied forest must be acyclic."""
    if len(levels) != g.m:
        raise AssertionError("index list does not match edge count")
    us = g.edge_u.tolist()
    vs = g.edge_v.tolist()
    ws = g.edge_w.tolist()
    for eid in range(g.m):
        if levels[eid] < ws[eid]:
            raise AssertionError("edge cannot occupy nonpositive forest indices")
    top = max(levels, default=0)
    for forest in range(1, top + 1):
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for eid in range(g.m):
            if levels[eid] - ws[eid] + 1 <= forest <= levels[eid]:
                ru, rv = find(us[eid]), find(vs[eid])
                if ru == rv:
                    raise AssertionError(f"cycle in occupied forest {forest}")
                parent[ru] = rv
