import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutsparse import (
    CutSpec,
    SparseGraph,
    SparsifyConfig,
    WeightedGraph,
    check_sparsifier,
    cut_weight,
    exact_min_cut,
    sparsify,
)
from cutsparse.msf import OVER
from cutsparse.graph import _components

from conftest import complete_graph, dumbbell_graph, multi_complete_graph, random_graph
from reference import (
    binomial_pmf,
    edge_connectivity,
    oracle_components,
    oracle_min_cut,
    oracle_msf_packing,
    validate_msf_packing_forests,
    validate_msf_packing_heaviness,
)


def triangle():
    return WeightedGraph.from_edges(3, [(0, 1, 5), (1, 2, 3), (0, 2, 4)])


class TestCheckSparsifier:
    def test_identity_has_zero_error(self):
        g = random_graph(8, 20, 30, seed=1)
        rep = check_sparsifier(g, g)
        assert rep.max_rel_error == 0.0
        assert rep.num_cuts == 2 ** (g.n - 1) - 1

    def test_doubled_weights_error_one(self):
        g = random_graph(7, 15, 9, seed=2)
        doubled = WeightedGraph.from_edges(g.n, [(u, v, 2 * w) for u, v, w in g.edges()])
        rep = check_sparsifier(g, doubled)
        assert rep.max_rel_error == pytest.approx(1.0)

    def test_missing_edge_of_k4(self):
        g = complete_graph(4)
        h = WeightedGraph.from_edges(4, g.edges()[1:])
        rep = check_sparsifier(g, h)
        # direct enumeration oracle
        worst = 0.0
        for side in range(1, 2 ** (g.n - 1) - 1 + 1):
            cut = CutSpec(side)
            worst = max(worst, abs(cut_weight(h, cut) / cut_weight(g, cut) - 1))
        assert rep.max_rel_error == pytest.approx(worst)
        assert rep.min_cut_value == 3.0

    def test_worst_cut_attains_reported_error(self):
        g = random_graph(9, 25, 12, seed=3)
        h = WeightedGraph.from_edges(g.n, g.edges()[: g.m - 3])
        rep = check_sparsifier(g, h)
        ratio = cut_weight(h, rep.worst_cut) / cut_weight(g, rep.worst_cut)
        assert abs(ratio - 1) == pytest.approx(rep.max_rel_error)

    def test_rejects_oversized_graphs(self):
        g = random_graph(25, 30, 5, seed=4, connected=False)
        with pytest.raises(ValueError):
            check_sparsifier(g, g)


class TestOracleMsfPacking:
    def test_triangle_levels(self):
        packing = oracle_msf_packing(triangle(), 2)
        assert packing.levels.tolist() == [1, 2, 1]

    def test_forest_input_all_level_one(self):
        g = WeightedGraph.from_edges(5, [(0, 1, 9), (1, 2, 2), (3, 4, 5)])
        for M in (1, 3):
            assert oracle_msf_packing(g, M).levels.tolist() == [1, 1, 1]

    def test_unit_k4_multiset(self):
        packing = oracle_msf_packing(complete_graph(4), 3)
        assert sorted(packing.levels.tolist()) == [1, 1, 1, 2, 2, 3]

    def test_over_marker(self):
        packing = oracle_msf_packing(complete_graph(3), 1)
        assert sorted(packing.levels.tolist()) == [OVER, 1, 1]

    def test_oracle_satisfies_packing_invariants(self):

        for seed in range(5):
            g = random_graph(9, 35, 15, seed=700 + seed)
            for M in (1, 4):
                packing = oracle_msf_packing(g, M)
                validate_msf_packing_forests(g, packing, M)
                validate_msf_packing_heaviness(g, packing, M)


class TestExactMinCut:
    def test_unit_k5(self):
        cut, value = exact_min_cut(complete_graph(5))
        assert value == 4
        assert len(cut.vertices(5)) in (1, 4)

    def test_unit_k4_tie_goes_to_the_last_vertex(self):
        # every singleton cut weighs 3; the first phase already finds one,
        # and ties in the maximum-adjacency order go to the smallest id
        cut, value = exact_min_cut(complete_graph(4))
        assert (cut.vertices(4), value) == ([3], 3)

    def test_dumbbell_bridge(self):
        g = dumbbell_graph(6)
        cut, value = exact_min_cut(g)
        assert value == 1
        side = set(cut.vertices(g.n))
        assert side in ({0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11})

    def test_matches_enumeration_on_random_graphs(self):
        for seed in range(8):
            g = random_graph(9, 22, 40, seed=100 + seed)
            cut, value = exact_min_cut(g)
            assert cut_weight(g, cut) == value
            best = min(
                cut_weight(g, CutSpec(side)) for side in range(1, 2 ** (g.n - 1))
            )
            assert value == best

    def test_disconnected_returns_zero(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 3), (2, 3, 5)])
        cut, value = exact_min_cut(g)
        assert value == 0
        assert set(cut.vertices(4)) in ({0, 1}, {2, 3})

    def test_float_graph(self):
        h = SparseGraph.from_edges(3, [(0, 1, 1.5), (1, 2, 2.5), (0, 2, 0.25)])
        cut, value = exact_min_cut(h)
        assert value == pytest.approx(1.75)


@st.composite
def min_cut_graphs(draw, graph_type, weight) -> WeightedGraph | SparseGraph:
    """Multigraphs on 2..9 vertices with edges over all of them, so mostly
    connected, parallel edges in both orientations, and often one weight on
    every edge, which gives several minimum cuts."""
    n = draw(st.integers(2, 9))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
        lambda p: (p[0], p[1] + (p[1] >= p[0]))
    )
    if draw(st.booleans()):
        weight = st.just(draw(weight))
    edges = draw(st.lists(st.tuples(pair, weight), max_size=30))
    edges += draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    return graph_type.from_edges(n, [(u, v, w) for (u, v), w in edges])


# small values that repeat, so the maximum-adjacency order has ties
FLOAT_WEIGHTS = st.one_of(
    st.sampled_from([0.1, 0.25, 1.0, 3.0]),
    st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
)
# at most 40 edges below 2^46 each: the total stays below 2^53
INT_WEIGHTS = st.one_of(st.integers(1, 3), st.integers(1, 1 << 46))


class TestExactMinCutMatchesOracle:
    @staticmethod
    def assert_bit_identical(h):
        cut, value = exact_min_cut(h)
        want_cut, want_value = oracle_min_cut(h)
        assert cut == want_cut
        assert value.hex() == float(want_value).hex()

    @settings(max_examples=300, deadline=None)
    @given(h=min_cut_graphs(SparseGraph, FLOAT_WEIGHTS))
    def test_float_graphs_bit_identical(self, h):
        self.assert_bit_identical(h)

    @pytest.mark.parametrize("n, copies", [(12, 30), (40, 6)])
    def test_sparsifier_outputs_bit_identical(self, n, copies):
        g = multi_complete_graph(n, copies, 8, seed=n)
        h, _ = sparsify(g, SparsifyConfig(epsilon=0.5, seed=n, mode="practical"))
        assert h.m < g.m
        self.assert_bit_identical(h)

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_random_float_graphs(self, seed):
        # a phase over more than 8 vertices tells a left-to-right cut sum
        # from numpy's pairwise one
        rng = random.Random(seed)
        edges = [(u, v, rng.uniform(0.01, 100.0)) for u in range(40) for v in range(u + 1, 40)]
        self.assert_bit_identical(SparseGraph.from_edges(40, edges))

    @settings(max_examples=300, deadline=None)
    @given(g=min_cut_graphs(WeightedGraph, INT_WEIGHTS))
    def test_integer_graphs_below_2_53(self, g):
        cut, value = exact_min_cut(g)
        assert (cut, value) == oracle_min_cut(g)


@st.composite
def scattered_multigraphs(draw) -> WeightedGraph:
    """Multigraphs on 1..30 vertices with edges between any ids, repeated
    pairs in both orientations, and isolated vertices anywhere."""
    n = draw(st.integers(1, 30))
    if n == 1:
        return WeightedGraph.from_edges(1, [])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
        lambda p: (p[0], p[1] + (p[1] >= p[0]))
    )
    pairs = draw(st.lists(pair, max_size=3 * n))
    pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=n))] if pairs else []
    return WeightedGraph.from_edges(n, [(u, v, 1) for u, v in pairs])


class TestComponents:
    @settings(max_examples=400, deadline=None)
    @given(g=scattered_multigraphs())
    def test_matches_breadth_first_search(self, g):
        assert _components(g).tolist() == oracle_components(g)

    @pytest.mark.parametrize(
        "n, edges, labels",
        [
            (1, [], [0]),
            (2, [], [0, 1]),
            (2, [(1, 0, 3)], [0, 0]),
            (5, [], [0, 1, 2, 3, 4]),
            # a path whose ids climb and fall needs more than one hooking round
            (6, [(5, 1, 1), (1, 4, 1), (4, 0, 1), (3, 2, 1)], [0, 0, 2, 2, 0, 0]),
        ],
    )
    def test_small_cases(self, n, edges, labels):
        g = WeightedGraph.from_edges(n, edges)
        assert _components(g).tolist() == labels == oracle_components(g)

    def test_edges_span_several_blocks(self):
        # a shuffled path over shuffled ids, cut into three pieces, each edge
        # listed in both orientations: 60k edges, so hooks cross blocks
        rng = np.random.default_rng(5)
        n = 30_000
        ids = rng.permutation(n)
        keep = np.ones(n - 1, dtype=bool)
        keep[[9_999, 19_999]] = False
        u, v = ids[:-1][keep], ids[1:][keep]
        order = rng.permutation(2 * len(u))
        tails, heads = np.concatenate([u, v])[order], np.concatenate([v, u])[order]
        g = WeightedGraph(n, tails, heads, np.ones(len(order), dtype=np.int64))
        assert g.m > 1 << 15
        labels = _components(g)
        assert labels.tolist() == oracle_components(g)
        assert len(np.unique(labels)) == 3


class TestEdgeConnectivity:
    def test_single_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 7)])
        assert edge_connectivity(g, 0, 1) == 7

    def test_unit_k4(self):
        g = complete_graph(4)
        for u, v, _ in g.edges():
            assert edge_connectivity(g, u, v) == 3

    def test_triangle_weighted(self):
        assert edge_connectivity(triangle(), 1, 2) == 7

    def test_at_least_edge_weight(self):
        g = random_graph(8, 20, 25, seed=5)
        for u, v, w in g.edges():
            assert edge_connectivity(g, u, v) >= w


class TestBinomialPmf:
    def test_zero_successes(self):
        for n, p in [(4, 0.3), (10, 0.9), (64, 0.05)]:
            assert binomial_pmf(n, p, 0) == pytest.approx((1 - p) ** n)

    def test_known_value(self):
        assert binomial_pmf(4, 0.5, 2) == pytest.approx(0.375)

    def test_out_of_range_is_zero(self):
        assert binomial_pmf(5, 0.4, -1) == 0.0
        assert binomial_pmf(5, 0.4, 6) == 0.0

    def test_normalization_on_grid(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 64)
            p = rng.uniform(0.01, 0.99)
            total = math.fsum(binomial_pmf(n, p, k) for k in range(n + 1))
            assert abs(total - 1.0) < 1e-12

    def test_p_edge_cases(self):
        assert binomial_pmf(5, 0.0, 0) == 1.0
        assert binomial_pmf(5, 0.0, 1) == 0.0
        assert binomial_pmf(5, 1.0, 5) == 1.0
        assert binomial_pmf(5, 1.0, 4) == 0.0
