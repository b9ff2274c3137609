import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutsparse import (
    MAX_WEIGHT,
    WeightedGraph,
    bottleneck_weights,
    msf_packing_bounded,
    msf_packing_windowed,
)
from cutsparse.msf import OVER

from conftest import complete_graph, multigraphs, random_graph
from reference import (
    edge_connectivity,
    oracle_msf_packing,
    validate_msf_packing_forests,
    validate_msf_packing_heaviness,
    windowed_loop_msf_packing,
)

PACKERS = [msf_packing_bounded, oracle_msf_packing]


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

    @pytest.mark.parametrize("packer", PACKERS)
    def test_rejects_nonpositive_m(self, packer):
        with pytest.raises(ValueError):
            packer(triangle(), 0)


class TestPackingAgreement:
    @settings(max_examples=300, deadline=None)
    @given(g=multigraphs())
    def test_matches_oracle_on_random_multigraphs(self, g):
        for M in (1, 2, max(1, g.m), g.m + 5):
            fast = msf_packing_bounded(g, M)
            oracle = oracle_msf_packing(g, M)
            assert fast.levels.tolist() == oracle.levels.tolist()
            assert fast.singleton_level.tolist() == oracle.singleton_level.tolist()

    def test_bounded_oracle_identical(self):
        rng = random.Random(42)
        for trial in range(25):
            n = rng.randint(2, 24)
            m = rng.randint(0, 80)
            bound = rng.choice([3, 10, n**4])
            seed = rng.randrange(1 << 30)
            # the same shape again with weights up to 2**63 - 1: every third
            # edge tied at the top, and some one below it, which a float64
            # sort key could not tell apart
            heavy = random_graph(n, m, MAX_WEIGHT, seed=seed, connected=False)
            w = heavy.edge_w.copy()
            w[::3] = MAX_WEIGHT
            w[1::6] = MAX_WEIGHT - 1
            for g in (
                random_graph(n, m, bound, seed=seed, connected=False),
                WeightedGraph.from_edges(n, zip(heavy.edge_u.tolist(), heavy.edge_v.tolist(), w.tolist())),
            ):
                for M in (1, 2, 7):
                    a = msf_packing_bounded(g, M).levels
                    c = oracle_msf_packing(g, M).levels
                    assert a.tolist() == c.tolist()

    def test_per_level_forest_weight_matches_oracle(self):
        rng = random.Random(9)
        for trial in range(10):
            g = random_graph(12, 60, 50, seed=300 + trial)
            M = rng.randint(1, 8)
            fast = msf_packing_bounded(g, M)
            oracle = oracle_msf_packing(g, M)
            w = g.edge_w.tolist()
            for level in range(1, M + 1):
                fw = sum(w[e] for e in np.flatnonzero(fast.levels == level).tolist())
                ow = sum(w[e] for e in np.flatnonzero(oracle.levels == level).tolist())
                assert fw == ow

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

    def test_matches_brute_force_maximin(self):
        for trial in range(14):
            # the last two inputs draw weights far above n**4
            bound = 30 if trial < 12 else MAX_WEIGHT
            g = random_graph(8, 18, bound, seed=600 + trial)
            d = bottleneck_weights(g).tolist()
            for eid, (u, v, _) in enumerate(g.edges()):
                assert d[eid] == brute_force_maximin(g, u, v)

    def test_disconnected_components(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 5), (2, 3, 7)])
        assert bottleneck_weights(g).tolist() == [5, 7]

    @settings(max_examples=300, deadline=None)
    @given(g=multigraphs(max_n=8, max_edges=15))
    def test_matches_brute_force_on_random_multigraphs(self, g):
        expected = [brute_force_maximin(g, u, v) for u, v, _ in g.edges()]
        assert bottleneck_weights(g).tolist() == expected


class TestWindowedPacking:
    def test_uniform_weights_single_window_equals_exact(self):
        g = random_graph(8, 25, 1, seed=700)  # all weights 1
        est = msf_packing_windowed(g, 4)
        exact = msf_packing_bounded(g, 4)
        assert bool(est.covered.all())
        assert est.levels.tolist() == exact.levels.tolist()

    def test_light_bridge_excluded(self):
        # two unit triangles joined by one much-lighter bridge
        edges = [(0, 1, 1000), (1, 2, 1000), (0, 2, 1000),
                 (3, 4, 1000), (4, 5, 1000), (3, 5, 1000),
                 (0, 3, 1)]
        g = WeightedGraph.from_edges(6, edges)
        est = msf_packing_windowed(g, 3)
        # bridge is a tree edge: d = w, so n*w > d keeps it covered
        assert bool(est.covered[6])
        # a light chord across the heavy triangle is what gets excluded
        edges.append((1, 2, 1))
        g2 = WeightedGraph.from_edges(6, edges)
        est2 = msf_packing_windowed(g2, 3)
        assert not bool(est2.covered[7])

    def test_huge_weight_triangle_exclusion(self):
        g = WeightedGraph.from_edges(
            3, [(0, 1, 1 << 60), (1, 2, 1 << 60), (0, 2, 4)]
        )
        est = msf_packing_windowed(g, 2)
        # d(chord) = 2^60 and 3*4 <= 2^60: not in the estimator's domain
        assert est.covered.tolist() == [True, True, False]

    def test_wide_weight_range_guarantee(self):
        # weights spanning 1 .. 2^60; every covered level k certifies k
        # edge-disjoint paths among nearly-as-heavy edges
        rng = random.Random(8)
        for trial in range(6):
            n = 8
            edges = []
            for _ in range(24):
                u, v = rng.sample(range(n), 2)
                edges.append((u, v, rng.choice([1, 7, 1 << 20, (1 << 60) - 3, 1 << 60])))
            g = WeightedGraph.from_edges(n, edges)
            M = 4
            est = msf_packing_windowed(g, M)
            ws = g.edge_w.tolist()
            for eid, (u, v, w) in enumerate(g.edges()):
                if not est.covered[eid]:
                    continue
                level = int(est.levels[eid])
                required = M + 1 if level == OVER else level
                qualifying = [
                    (uu, vv, 1)
                    for uu, vv, ww in g.edges()
                    if n * ww >= (n - 1) * w
                ]
                unit = WeightedGraph.from_edges(n, qualifying)
                assert edge_connectivity(unit, u, v) >= required

    def test_windows_partition_coverage(self, monkeypatch):
        # wide weight spreads produce several windows; every estimator-domain
        # edge is covered by exactly one of them, and the first window sees
        # no capped weights (the heaviest edge is always a forest edge)
        import cutsparse.msf as msf_mod

        window_maxima = []
        real = msf_mod.msf_packing_bounded

        def spy(graph, M):
            window_maxima.append(graph.max_weight())
            return real(graph, M)

        monkeypatch.setattr(msf_mod, "msf_packing_bounded", spy)
        rng = random.Random(3)
        edges = []
        for _ in range(30):
            u, v = rng.sample(range(9), 2)
            edges.append((u, v, rng.choice([1, 50, 5000, 1 << 30, 1 << 55])))
        g = WeightedGraph.from_edges(9, edges)
        est = msf_packing_windowed(g, 3)
        assert len(window_maxima) >= 2, "weight spread must produce several windows"
        cap = g.n**3 + 1
        assert window_maxima[0] <= g.n**3
        assert all(mx <= cap for mx in window_maxima)
        in_domain = [g.n * w > d for (_, _, w), d in
                     zip(g.edges(), bottleneck_weights(g).tolist())]
        assert est.covered.tolist() == in_domain


@st.composite
def window_graphs(draw) -> WeightedGraph:
    """`multigraphs` shapes reweighted from a small pool, so that weights tie,
    at values where the window tests turn: the extremes, four consecutive
    powers of n plus or minus one (weight ratios near n, n^2 and n^3), and
    spreads over 2^0..2^62."""
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


class TestWindowedOracle:
    @settings(max_examples=400, deadline=None)
    @given(g=window_graphs())
    # a pending d exactly D/n belongs to a later window, not to D's batch
    @example(g=WeightedGraph.from_edges(3, [(0, 1, 243), (0, 2, 26), (0, 2, 28), (0, 2, 81)]))
    # a weight exactly D/n^2 stays out of window D
    @example(
        g=WeightedGraph.from_edges(
            4, [(3, 2, 16384), (3, 1, 262144), (3, 2, 16385), (2, 1, 65537)]
        )
    )
    @example(
        g=WeightedGraph.from_edges(
            4, [(2, 0, 1024), (0, 3, 16385), (1, 2, 1025), (1, 2, 4096), (0, 1, 1025), (1, 0, 4097)]
        )
    )
    def test_matches_windowed_loop(self, g):
        for M in (1, 2, max(1, g.m), g.m + 5):
            fast = msf_packing_windowed(g, M)
            loop = windowed_loop_msf_packing(g, M)
            assert fast.levels.tolist() == loop.levels.tolist()
            assert fast.covered.tolist() == loop.covered.tolist()


class TestRegimeGate:
    def test_bounded_handles_superpolynomial_weights(self):
        # weights far above n**4 keep the same output contract
        g = WeightedGraph.from_edges(
            4, [(0, 1, 1 << 60), (1, 2, 3), (2, 3, 1 << 59), (0, 3, 2), (0, 2, 5)]
        )
        a = msf_packing_bounded(g, 2).levels.tolist()
        c = oracle_msf_packing(g, 2).levels.tolist()
        assert a == c
