"""Shared generators for the test suite: seeded random graphs, including the
parallel-edge-heavy multigraphs that keep small-n runs above the early-out
threshold, a hypothesis strategy for small multigraphs, and a fixture that
forces the level guard to trip."""

from __future__ import annotations

import random
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from cutsparse import MAX_WEIGHT, OVER, WeightedGraph
from cutsparse.sampling import RngStream


def random_graph(
    n: int,
    m: int,
    w_max: int,
    seed: int,
    connected: bool = True,
) -> WeightedGraph:
    """Random multigraph with m edges and weights in [1, w_max]."""
    rng = random.Random(seed)
    edges: list[tuple[int, int, int]] = []
    if connected and n >= 2:
        verts = list(range(n))
        rng.shuffle(verts)
        for a, b in zip(verts, verts[1:]):
            edges.append((a, b, rng.randint(1, w_max)))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.randint(1, w_max)))
    return WeightedGraph.from_edges(n, edges[:m])


def complete_graph(n: int, weight: int = 1) -> WeightedGraph:
    edges = [(u, v, weight) for u in range(n) for v in range(u + 1, n)]
    return WeightedGraph.from_edges(n, edges)


def multi_complete_graph(n: int, copies: int, w_max: int, seed: int) -> WeightedGraph:
    """Complete graph with `copies` parallel edges per pair, random weights."""
    rng = random.Random(seed)
    edges = [
        (u, v, rng.randint(1, w_max))
        for u in range(n)
        for v in range(u + 1, n)
        for _ in range(copies)
    ]
    return WeightedGraph.from_edges(n, edges)


def dumbbell_graph(clique: int, bridge_weight: int = 1, copies: int = 1) -> WeightedGraph:
    """Two cliques joined by a single bridge edge; `copies` parallels the
    clique edges (never the bridge), keeping the bridge the unique min cut."""
    edges = []
    for u in range(clique):
        for v in range(u + 1, clique):
            for _ in range(copies):
                edges.append((u, v, 1))
                edges.append((clique + u, clique + v, 1))
    edges.append((0, clique, bridge_weight))
    return WeightedGraph.from_edges(2 * clique, edges)


def wide_range_graph() -> WeightedGraph:
    """Weights 1 and 2^63 - 1 on a triangle's two edges, with 40 unit
    parallels: once a round has run, its output no longer rounds into 63
    bits at the next round's precision."""
    return WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, (1 << 63) - 1)] + [(0, 1, 1)] * 40)


def topology_gallery() -> list[tuple[str, WeightedGraph]]:
    """Ten fixed 12-vertex multigraph topologies, all dense enough to clear
    the practical-mode (rho = 8) early-out threshold."""
    out = []
    out.append(("multi-k12-light", multi_complete_graph(12, 30, 8, seed=101)))
    out.append(("multi-k12-heavy", multi_complete_graph(12, 20, 100, seed=102)))
    out.append(("random-dense-smallw", random_graph(12, 2000, 5, seed=103)))
    out.append(("random-dense-midw", random_graph(12, 1500, 50, seed=104)))

    rng = random.Random(105)
    edges = []
    for u in range(6):
        for v in range(u + 1, 6):
            for _ in range(48):
                edges.append((u, v, rng.randint(1, 20)))
                edges.append((6 + u, 6 + v, rng.randint(1, 20)))
    for _ in range(8):
        edges.append((0, 6, rng.randint(1, 20)))
    out.append(("double-clique-bridged", WeightedGraph.from_edges(12, edges)))

    rng = random.Random(106)
    edges = [
        (u, 6 + v, rng.randint(1, 30))
        for u in range(6)
        for v in range(6)
        for _ in range(50)
    ]
    out.append(("bipartite", WeightedGraph.from_edges(12, edges)))

    rng = random.Random(107)
    edges = []
    for i in range(12):
        for _ in range(110):
            edges.append((i, (i + 1) % 12, rng.randint(1, 10)))
    for _ in range(60):
        u, v = rng.sample(range(12), 2)
        edges.append((u, v, rng.randint(1, 10)))
    out.append(("ring-bundles", WeightedGraph.from_edges(12, edges)))

    rng = random.Random(108)
    edges = []
    for i in range(1, 12):
        for _ in range(80):
            edges.append((0, i, rng.randint(1, 15)))
    for u in range(1, 12):
        for v in range(u + 1, 12):
            for _ in range(8):
                edges.append((u, v, rng.randint(1, 15)))
    out.append(("hub-and-shell", WeightedGraph.from_edges(12, edges)))

    rng = random.Random(109)
    edges = []
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    for rank, (u, v) in enumerate(pairs, start=1):
        for _ in range(max(1, 260 // rank)):
            edges.append((u, v, rng.randint(1, 40)))
    out.append(("zipf-multiplicity", WeightedGraph.from_edges(12, edges)))

    out.append(("random-very-dense", random_graph(12, 2600, 1000, seed=110)))
    return out


@st.composite
def multigraphs(draw, max_n: int = 12, max_edges: int = 30, min_edges: int = 0) -> WeightedGraph:
    """Multigraphs on n >= 2 vertices whose edges use only the first k of
    them (vertices past k stay isolated), with weight ties at the extremes
    and repeated edges."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(2, n))
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 2)).map(
        lambda p: (p[0], p[1] + (p[1] >= p[0]))
    )
    weight = st.one_of(
        st.sampled_from([1, 2, MAX_WEIGHT - 1, MAX_WEIGHT]), st.integers(1, MAX_WEIGHT)
    )
    edges = draw(st.lists(st.tuples(pair, weight), min_size=min_edges, max_size=max_edges))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=max_edges // 3))
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in edges])


@pytest.fixture
def levels_never_shrink(monkeypatch):
    """Every packing leaves every edge over and every coin comes up heads, so
    a sampled run's leftover never shrinks and its level guard must trip."""
    module = sys.modules["cutsparse.sparsify"]  # the package attribute is the function
    monkeypatch.setattr(
        module,
        "msf_packing_bounded",
        lambda sub, forests: SimpleNamespace(levels=np.full(sub.m, OVER, dtype=np.int64)),
    )
    monkeypatch.setattr(RngStream, "coin_flips", lambda self, count: np.ones(count, dtype=np.uint8))
