import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutsparse import MAX_WEIGHT, WeightedGraph, msf_packing_bounded
import cutsparse.msf as msf
from cutsparse.msf import (
    OVER,
    _descending_order,
    bottleneck_weights,
    msf_packing_windowed,
)

from conftest import complete_graph, multigraphs, random_graph
from reference import (
    oracle_bottleneck_weights,
    oracle_msf_packing,
    validate_msf_packing_forests,
    validate_msf_packing_heaviness,
)

PACKERS = [msf_packing_bounded, oracle_msf_packing]


@st.composite
def disjoint_unions(draw) -> WeightedGraph:
    """Two or three multigraphs side by side plus up to two isolated vertices:
    the top forest of a small packing often spans them partway through the
    order, and after that the kernel's block filter drops every later edge."""
    parts = draw(st.lists(multigraphs(max_n=6, max_edges=20), min_size=2, max_size=3))
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset, w) for u, v, w in part.edges()]
        offset += part.n
    return WeightedGraph.from_edges(offset + draw(st.integers(0, 2)), edges)


@st.composite
def tied_multigraphs(draw) -> WeightedGraph:
    """`multigraphs` reweighted from a pool of one to five values, the
    extremes 1 and 2^63 - 1 among its choices: long runs of tied weights,
    where only the edge-id order tells Borůvka's picks apart."""
    g = draw(multigraphs(max_n=24, max_edges=60))
    pool = draw(st.lists(st.sampled_from([1, 2, 3, MAX_WEIGHT - 1, MAX_WEIGHT]), min_size=1, max_size=3))
    pool += draw(st.lists(st.integers(1, MAX_WEIGHT), max_size=2))
    w = draw(st.lists(st.sampled_from(pool), min_size=g.m, max_size=g.m))
    return WeightedGraph.from_arrays(g.n, g.edge_u, g.edge_v, w)


def two_paths_graph(n: int, m: int, seed: int) -> WeightedGraph:
    """Two spanning paths on shuffled vertices, the first heavier than the
    second, then light random edges up to m in all, listed in random order:
    the first 2n - 2 edges of the processing order fill forests 1 and 2."""
    rng = random.Random(seed)
    edges = []
    for band in (3, 2):
        verts = list(range(n))
        rng.shuffle(verts)
        edges += [(a, b, rng.randrange(band << 20, (band + 1) << 20)) for a, b in zip(verts, verts[1:])]
    while len(edges) < m:
        edges.append((*rng.sample(range(n), 2), rng.randrange(1, 2 << 20)))
    rng.shuffle(edges)
    return WeightedGraph.from_edges(n, edges)


def triangle():
    return WeightedGraph.from_edges(3, [(0, 1, 5), (1, 2, 3), (0, 2, 4)])


def brute_force_maximin(g: WeightedGraph, s: int, t: int) -> int:
    """Max over s-t paths of the path's minimum edge weight (DFS over all
    simple paths; the independent bottleneck oracle)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, w in g.edges():
        adj[u].append((v, w))
        adj[v].append((u, w))
    best = 0
    visited = [False] * g.n

    def dfs(x: int, cur_min: int) -> None:
        nonlocal best
        if x == t:
            best = max(best, cur_min)
            return
        visited[x] = True
        for y, w in adj[x]:
            if not visited[y]:
                dfs(y, min(cur_min, w))
        visited[x] = False

    dfs(s, 1 << 63)
    return best


class TestPackingExamples:
    @pytest.mark.parametrize("packer", PACKERS)
    def test_weighted_triangle(self, packer):
        packing = packer(triangle(), 2)
        assert packing.levels.tolist() == [1, 2, 1]

    @pytest.mark.parametrize("packer", PACKERS)
    def test_unit_k3_one_forest(self, packer):
        packing = packer(complete_graph(3), 1)
        assert sorted(packing.levels.tolist()) == [OVER, 1, 1]

    @pytest.mark.parametrize("packer", PACKERS)
    def test_spanning_tree_all_level_one(self, packer):
        g = WeightedGraph.from_edges(5, [(0, 1, 3), (1, 2, 8), (2, 3, 1), (3, 4, 8)])
        assert packer(g, 1).levels.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("packer", PACKERS)
    def test_huge_weight_triangle(self, packer):
        g = WeightedGraph.from_edges(
            3, [(0, 1, 1 << 62), (1, 2, (1 << 62) - 1), (0, 2, 1)]
        )
        assert sorted(packer(g, 2).levels.tolist()) == [1, 1, 2]

    @pytest.mark.parametrize("packer", PACKERS)
    def test_empty_graph(self, packer):
        g = WeightedGraph.from_edges(4, [])
        packing = packer(g, 3)
        assert packing.levels.tolist() == []
        assert packing.singleton_level.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("packer", PACKERS)
    def test_parallel_edges_stack_levels(self, packer):
        g = WeightedGraph.from_edges(2, [(0, 1, 4), (0, 1, 4), (0, 1, 9)])
        # descending weight, ties by edge id: 9 first, then the two 4s
        assert packer(g, 3).levels.tolist() == [2, 3, 1]

    @pytest.mark.parametrize("packer", PACKERS + [msf_packing_windowed])
    def test_rejects_nonpositive_m(self, packer):
        with pytest.raises(ValueError, match="forest count must be >= 0"):
            packer(triangle(), -1)


def assert_matches_oracle(g: WeightedGraph, blocks: tuple[int, ...]) -> None:
    """The kernel at each `_BLOCK` in `blocks` against one oracle call per M."""
    for M in sorted({0, 1, 2, 3, g.m, g.m + 5}):
        oracle = oracle_msf_packing(g, M)
        for block in blocks:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(msf, "_BLOCK", block)
                fast = msf_packing_bounded(g, M)
            assert fast.levels.tolist() == oracle.levels.tolist()
            assert fast.singleton_level.tolist() == oracle.singleton_level.tolist()


class TestPackingAgreement:
    """The kernel against the literal definition at the real block size;
    `TestBlockFilter` runs the same families at blocks of n edges."""

    @settings(max_examples=300, deadline=None)
    @given(g=multigraphs())
    # weights far above n**4 keep the same output contract
    @example(g=WeightedGraph.from_edges(4, [(0, 1, 1 << 60), (1, 2, 3), (2, 3, 1 << 59), (0, 3, 2), (0, 2, 5)]))
    def test_matches_oracle_on_random_multigraphs(self, g):
        assert_matches_oracle(g, (msf._BLOCK,))

    @settings(max_examples=300, deadline=None)
    @given(g=disjoint_unions())
    def test_matches_oracle_when_top_forest_spans_early(self, g):
        assert_matches_oracle(g, (msf._BLOCK,))

    def test_heavy_component_spanned_first_does_not_stop_the_packing(self):
        # {0, 1} is spanned in both forests, as often as forest 1 is, before
        # the first edge of the lighter {2, 3} arrives; vertex 4 is isolated
        g = WeightedGraph.from_edges(5, [(0, 1, 9)] * 3 + [(2, 3, 1)] * 2)
        for packer in PACKERS:
            packing = packer(g, 2)
            assert packing.levels.tolist() == [1, 2, OVER, 1, 2]
            assert packing.singleton_level.tolist() == [3, 3, 3, 3, 1]

    def test_singleton_level_consistency(self):
        # s(v) - 1 must equal the highest level of any edge incident to v
        for trial in range(8):
            g = random_graph(10, 35, 20, seed=400 + trial)
            packing = msf_packing_bounded(g, 5)
            highest = [0] * g.n
            for eid, (u, v, _) in enumerate(g.edges()):
                lev = int(packing.levels[eid])
                if lev != OVER:
                    highest[u] = max(highest[u], lev)
                    highest[v] = max(highest[v], lev)
            assert packing.singleton_level.tolist() == [h + 1 for h in highest]

    def test_invariants_hold(self):
        for trial in range(6):
            g = random_graph(9, 40, 12, seed=500 + trial)
            for M in (1, 3):
                packing = msf_packing_bounded(g, M)
                validate_msf_packing_forests(g, packing)
                validate_msf_packing_heaviness(g, packing)


def reference_order(w: list[int]) -> list[int]:
    return sorted(range(len(w)), key=lambda e: (-w[e], e))


@st.composite
def weight_lists(draw) -> list[int]:
    """Weights from one narrow band anywhere in [1, 2^63 - 1], with many
    ties, or from a band reaching 2^63 - 1, which may pass the key bound."""
    lo = draw(st.integers(1, MAX_WEIGHT))
    hi = draw(st.sampled_from([lo, min(lo + 4, MAX_WEIGHT), MAX_WEIGHT]))
    return draw(st.lists(st.integers(lo, hi), max_size=64))


class TestDescendingOrder:
    """The processing order against the (-w, id) sort, on both sides of
    the int64 key bound (hi - lo + 1) * m <= 2^63."""

    @settings(max_examples=300, deadline=None)
    @given(w=weight_lists())
    @example(w=[])
    @example(w=[7])
    @example(w=[5] * 6)
    @example(w=[MAX_WEIGHT] * 6)
    @example(w=[3, 9, 3, 1, 9])
    @example(w=[1, MAX_WEIGHT, 1, MAX_WEIGHT])
    def test_matches_reference(self, w):
        assert _descending_order(np.array(w, dtype=np.int64)).tolist() == reference_order(w)

    @pytest.mark.parametrize("top, fallback", [(1 << 62, False), ((1 << 62) + 1, True)])
    def test_key_bound(self, monkeypatch, top, fallback):
        # at m = 2 the largest key is (top - 1) * 2 + 1: 2^63 - 1 at top = 2^62
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(a) or argsort(*a, **k))
        for w in ([1, top], [top, 1]):
            assert _descending_order(np.array(w, dtype=np.int64)).tolist() == reference_order(w)
        assert bool(calls) == fallback


class TestPackingKernel:
    """The kernel's search order and its block-by-block reads of the
    processing order, against the literal definition."""

    @staticmethod
    def assert_matches_oracle(g: WeightedGraph, M: int) -> np.ndarray:
        fast = msf_packing_bounded(g, M)
        oracle = oracle_msf_packing(g, M)
        assert fast.levels.tolist() == oracle.levels.tolist()
        assert fast.singleton_level.tolist() == oracle.singleton_level.tolist()
        return fast.levels

    def test_bisects_after_a_failed_probe_under_the_top(self):
        # Edge 2 comes last, with both endpoints at s = 4, so its top is
        # forest 3.  Forests 3 and 2 both split {0, 2} from {1, 3}: the probe
        # of forest 2 fails, and the bisection goes on down to forest 1.
        g = WeightedGraph.from_edges(
            4, [(1, 3, 2), (3, 1, 7), (3, 2, 1), (2, 0, 5), (3, 1, 2), (2, 0, 2), (0, 2, 3)]
        )
        levels = self.assert_matches_oracle(g, 3)
        assert levels.tolist() == [2, 1, 1, 1, 3, 3, 2]

    def test_filter_empties_every_block_after_the_top_forest_spans(self, monkeypatch):
        # blocks of n edges: two heavy spanning paths fill forests 1 and 2 in
        # the first 2n - 2 edges, so the top forest spans in the second block
        # and the third filters to empty
        monkeypatch.setattr(msf, "_BLOCK", 1)
        g = two_paths_graph(500, 3 * 500 - 100, seed=7)
        levels = self.assert_matches_oracle(g, 2)[_descending_order(g.edge_w)]
        top = np.flatnonzero(levels == 2)
        assert len(top) == g.n - 1
        assert top[-1] // g.n == 1
        assert (levels[top[-1] + 1 :] == OVER).all()

    def test_filter_reads_every_block_while_the_top_forest_does_not_span(self, monkeypatch):
        monkeypatch.setattr(msf, "_BLOCK", 1)
        g = random_graph(300, 3 * 300 - 100, 10**6, seed=7)
        degree = np.bincount(np.concatenate([g.edge_u, g.edge_v]), minlength=g.n)
        # a vertex of degree d lies in at most d forests, so forest d + 1
        # never spans, and the last block still has edges for the loop to place
        M = int(degree.min()) + 1
        levels = self.assert_matches_oracle(g, M)
        assert np.count_nonzero(levels == M) < g.n - 1
        assert (levels[_descending_order(g.edge_w)][2 * g.n :] != OVER).any()

    def test_filter_at_the_real_block_size(self):
        # eight blocks of 2^11 edges; the 16th forest starts in the fourth
        # block and spans in the fifth, so the filter reads a partial and
        # then a spanning top forest
        rng = np.random.default_rng(29)
        n, m = 500, 16_000
        u = rng.integers(0, n, m)
        v = (u + rng.integers(1, n, m)) % n
        g = WeightedGraph.from_arrays(n, u, v, rng.integers(1, 10**6, m, endpoint=True))
        block = max(msf._BLOCK, n)
        levels = self.assert_matches_oracle(g, 16)[_descending_order(g.edge_w)]
        top = np.flatnonzero(levels == 16)
        assert -(-m // block) == 8
        assert len(top) == n - 1
        assert (top[0] // block, top[-1] // block) == (3, 4)


def top_forest_joined(g: WeightedGraph, levels: np.ndarray, M: int) -> list[bool]:
    """Per edge, whether the level-M edges before it in `_descending_order`
    join its endpoints."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    joined = [False] * g.m
    for eid in _descending_order(g.edge_w).tolist():
        ru, rv = find(int(g.edge_u[eid])), find(int(g.edge_v[eid]))
        joined[eid] = ru == rv
        if levels[eid] == M:
            parent[ru] = rv
    return joined


class TestBlockFilter:
    """The kernel against the literal definition at blocks of n edges
    (`_BLOCK` = 1), so that small graphs also reach several block starts,
    where the kernel drops the edges its top forest joins."""

    @settings(max_examples=300, deadline=None)
    @given(g=multigraphs())
    def test_matches_oracle_on_random_multigraphs(self, g):
        assert_matches_oracle(g, (1,))

    @settings(max_examples=300, deadline=None)
    @given(g=disjoint_unions())
    def test_matches_oracle_on_disjoint_unions(self, g):
        assert_matches_oracle(g, (1,))

    @settings(max_examples=300, deadline=None)
    @given(g=tied_multigraphs())
    def test_matches_oracle_on_tied_multigraphs(self, g):
        # no test of `TestPackingAgreement` draws ties, so this one also
        # runs the real block size
        assert_matches_oracle(g, (msf._BLOCK, 1))

    @settings(max_examples=300, deadline=None)
    @given(g=st.one_of(multigraphs(), tied_multigraphs()), M=st.sampled_from([1, 2, 3]))
    def test_over_exactly_where_the_top_forest_joins(self, g, M):
        # the fact the filter rests on, in the literal definition and the kernel
        for packer in PACKERS:
            levels = packer(g, M).levels
            assert (levels == OVER).tolist() == top_forest_joined(g, levels, M)


class TestBottleneckWeights:
    def test_triangle(self):
        assert bottleneck_weights(triangle()).tolist() == [5, 4, 4]

    def test_star_tree_edges(self):
        g = WeightedGraph.from_edges(5, [(0, i, i + 2) for i in range(1, 5)])
        assert bottleneck_weights(g).tolist() == [3, 4, 5, 6]

    def test_path_graph(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 9), (1, 2, 2)])
        assert bottleneck_weights(g).tolist() == [9, 2]

    def test_parallel_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 3), (0, 1, 8)])
        assert bottleneck_weights(g).tolist() == [8, 8]

    def test_disconnected_components(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 5), (2, 3, 7)])
        assert bottleneck_weights(g).tolist() == [5, 7]

    @settings(max_examples=300, deadline=None)
    @given(g=multigraphs(max_n=8, max_edges=15))
    def test_matches_brute_force_on_random_multigraphs(self, g):
        expected = [brute_force_maximin(g, u, v) for u, v, _ in g.edges()]
        assert bottleneck_weights(g).tolist() == expected


    @settings(max_examples=300, deadline=None)
    @given(g=tied_multigraphs())
    @example(g=WeightedGraph.from_edges(5, []))
    @example(g=WeightedGraph.from_edges(4, [(0, 1, MAX_WEIGHT)] * 3 + [(1, 2, 1)] * 2 + [(0, 2, 1)]))
    def test_matches_oracle_on_tied_multigraphs(self, g):
        assert bottleneck_weights(g).tolist() == oracle_bottleneck_weights(g).tolist()

    def test_matches_oracle_on_larger_forests(self):
        # several Borůvka rounds, several components and isolated vertices
        rng = random.Random(11)
        for trial in range(12):
            n = rng.randint(200, 1500)
            parts = [random_graph(k, rng.randint(k - 1, 6 * k), rng.choice([3, 1 << 40, MAX_WEIGHT]),
                                  seed=1000 + 10 * trial + j)
                     for j, k in enumerate((n // 2, n // 3))]
            edges = [(u, v, w) for u, v, w in parts[0].edges()]
            edges += [(u + n // 2, v + n // 2, w) for u, v, w in parts[1].edges()]
            g = WeightedGraph.from_edges(n, edges)  # the last n // 6 vertices isolated
            assert bottleneck_weights(g).tolist() == oracle_bottleneck_weights(g).tolist()


@st.composite
def unbounded_graphs(draw) -> WeightedGraph:
    """`multigraphs` shapes reweighted from a small pool, so that weights tie,
    at values where the coverage test n*w(e) > d(e) turns: the extremes,
    four consecutive powers of n plus or minus one (weight ratios near n,
    n^2 and n^3), and spreads over 2^0..2^62."""
    g = draw(multigraphs(max_n=8, max_edges=40, min_edges=10))
    n = g.n
    top = 1
    while n ** (top + 1) < MAX_WEIGHT:
        top += 1
    k = draw(st.integers(0, top - 3))
    near_power = st.builds(
        lambda j, s: max(1, n ** (k + j) + s), st.integers(0, 3), st.sampled_from([-1, 0, 1])
    )
    other = st.one_of(
        st.sampled_from([1, 2, MAX_WEIGHT - 1, MAX_WEIGHT]),
        st.integers(0, 62).flatmap(lambda e: st.integers(1 << e, (2 << e) - 1)),
    )
    pool = draw(st.lists(near_power, min_size=3, max_size=8))
    pool += draw(st.lists(other, max_size=2))
    w = draw(st.lists(st.sampled_from(pool), min_size=g.m, max_size=g.m))
    return WeightedGraph.from_arrays(n, g.edge_u, g.edge_v, w)


def assert_packs_covered_edges(g: WeightedGraph, M: int) -> None:
    """The estimate's d is the oracle's, and its covered levels are the
    oracle packing of the covered edges alone."""
    est = msf_packing_windowed(g, M)
    d = oracle_bottleneck_weights(g)
    assert est.d.tolist() == d.tolist()
    assert est.covered.tolist() == [g.n * w > x for w, x in zip(g.edge_w.tolist(), d.tolist())]
    ids = np.flatnonzero(est.covered)
    expected = oracle_msf_packing(g.subgraph_edges(ids), M).levels
    assert est.levels[ids].tolist() == expected.tolist()


TWO_HEAVY_TRIANGLES = [(0, 1, 1000), (1, 2, 1000), (0, 2, 1000), (3, 4, 1000), (4, 5, 1000), (3, 5, 1000)]


class TestUnboundedOracle:
    @settings(max_examples=400, deadline=None)
    @given(g=unbounded_graphs())
    @example(
        g=WeightedGraph.from_edges(
            4, [(2, 0, 1024), (0, 3, 16385), (1, 2, 1025), (1, 2, 4096), (0, 1, 1025), (1, 0, 4097)]
        )
    )
    @example(g=WeightedGraph.from_edges(1, []))
    @example(g=WeightedGraph.from_edges(3, []))
    @example(g=random_graph(8, 25, 1, seed=700))  # all weights 1: every edge covered
    # the light bridge is a forest edge, d = w, so n*w > d covers it; a light
    # chord across a heavy triangle is not covered
    @example(g=WeightedGraph.from_edges(6, TWO_HEAVY_TRIANGLES + [(0, 3, 1)]))
    @example(g=WeightedGraph.from_edges(6, TWO_HEAVY_TRIANGLES + [(0, 3, 1), (1, 2, 1)]))
    # d(chord) = 2^60 and 3*4 <= 2^60: the chord is not covered, and at M = 0
    # both covered edges are OVER
    @example(g=WeightedGraph.from_edges(3, [(0, 1, 1 << 60), (1, 2, 1 << 60), (0, 2, 4)]))
    def test_packs_covered_edges_exactly(self, g):
        for M in (0, 1, 2, max(1, g.m), g.m + 5):
            assert_packs_covered_edges(g, M)


@st.composite
def banded_graphs(draw) -> WeightedGraph:
    """Connected graphs on n in [200, 2000] with 2n to 3n edges whose weights
    fall in four to six bands, band j of multiplicative width n^2 starting
    at a random power of two: edges on both sides of the coverage test, and
    enough edges that the packing reads them in several blocks."""
    n = draw(st.integers(200, 2000))
    top = 62 - 2 * n.bit_length()
    bases = draw(st.lists(st.integers(0, top), min_size=4, max_size=6))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    span = n * n
    order = list(range(n))
    rng.shuffle(order)
    pairs = list(zip(order, order[1:]))
    m = rng.randint(2 * n, 3 * n)
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.append((u, v))
    edges = []
    for u, v in pairs:
        lo = 1 << rng.choice(bases)
        edges.append((u, v, rng.randint(lo, lo * span - 1)))
    return WeightedGraph.from_edges(n, edges)


class TestUnboundedOracleAtScale:
    @settings(max_examples=25, deadline=None)
    @given(g=banded_graphs())
    def test_packs_covered_edges_exactly(self, g):
        for M in (0, 1, 3):
            assert_packs_covered_edges(g, M)


class TestEstimatorDomain:
    @settings(max_examples=200, deadline=None)
    @given(g=unbounded_graphs())
    # a packing that also took in the uncovered edges 2, 4 and 5 would give
    # the covered edges levels [1, 1, -1, 2] at M = 2, not [1, 1, 2, 2]
    @example(
        g=WeightedGraph.from_edges(
            3, [(0, 1, 2), (1, 2, 1000), (2, 1, 5), (0, 1, 1), (1, 2, 1), (2, 1, 9), (2, 0, 2)]
        )
    )
    def test_uncovered_edges_change_nothing(self, g):
        # the set-aside of the unbounded regime: dropping the uncovered edges
        # leaves every covered level and d as they are
        for M in (0, 1, 2, g.m):
            est = msf_packing_windowed(g, M)
            ids = np.flatnonzero(est.covered)
            sub = msf_packing_windowed(g.subgraph_edges(ids), M)
            assert bool(sub.covered.all())
            assert est.levels[ids].tolist() == sub.levels.tolist()
            assert est.d[ids].tolist() == sub.d.tolist()
