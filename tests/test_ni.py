import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutsparse import MAX_WEIGHT, SparsifyConfig, WeightedGraph, sparsify
from cutsparse.ni import ni_indices, ni_preprocess, preprocess_rho

from conftest import complete_graph, multi_complete_graph, random_graph
from reference import oracle_ni_indices, validate_ni_indices


@st.composite
def ni_graphs(draw) -> WeightedGraph:
    """Multigraphs on 1..10 vertices, optionally split into two parts with no
    edge between them (isolated vertices come free), with extreme weights
    and a flood of parallel edges on one pair written in both orientations."""
    n = draw(st.integers(1, 10))
    cut = draw(st.integers(1, n))  # edges stay within [0, cut) or [cut, n)
    parts = [(lo, hi) for lo, hi in ((0, cut), (cut, n)) if hi - lo >= 2]
    if not parts:
        return WeightedGraph.from_edges(n, [])
    weight = st.one_of(
        st.sampled_from([1, 2, MAX_WEIGHT - 1, MAX_WEIGHT]), st.integers(1, MAX_WEIGHT)
    )

    def pair():
        lo, hi = draw(st.sampled_from(parts))
        a = draw(st.integers(lo, hi - 1))
        b = draw(st.integers(lo, hi - 2))
        return a, b + (b >= a)

    edges = [(*pair(), draw(weight)) for _ in range(draw(st.integers(0, 25)))]
    a, b = pair()
    for forward in draw(st.lists(st.booleans(), max_size=40)):
        edges.append((a, b, draw(weight)) if forward else (b, a, draw(weight)))
    return WeightedGraph.from_edges(n, draw(st.permutations(edges)))


def repeated_bfs_forest_levels(g: WeightedGraph) -> list[int]:
    """Repeatedly peel a scan-first spanning forest off the unit-expanded
    multigraph; per original edge, report the level of its last copy.
    Only usable when the total weight is small."""
    remaining = {eid: w for eid, (_, _, w) in enumerate(g.edges())}
    last_level = [0] * g.m
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v, _) in enumerate(g.edges()):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    level = 0
    while any(remaining.values()):
        level += 1
        seen = [False] * g.n
        for root in range(g.n):
            if seen[root]:
                continue
            seen[root] = True
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for y, eid in adj[x]:
                    if not seen[y] and remaining[eid] > 0:
                        remaining[eid] -= 1
                        last_level[eid] = level
                        seen[y] = True
                        queue.append(y)
    return last_level


class TestNiIndices:
    def test_single_weighted_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 3)])
        assert ni_indices(g).tolist() == [3]

    def test_unit_k3_multiset(self):
        levels = ni_indices(complete_graph(3)).tolist()
        assert sorted(levels) == [1, 1, 2]
        assert sorted(repeated_bfs_forest_levels(complete_graph(3))) == [1, 1, 2]

    def test_unit_k4_multiset(self):
        levels = ni_indices(complete_graph(4)).tolist()
        assert sorted(levels) == [1, 1, 1, 2, 2, 3]
        assert sorted(repeated_bfs_forest_levels(complete_graph(4))) == [1, 1, 1, 2, 2, 3]

    def test_reconstruction_invariant_random(self):
        for trial in range(10):
            g = random_graph(
                random.Random(trial).randint(2, 30), 40, 5, seed=800 + trial, connected=False
            )
            validate_ni_indices(g, ni_indices(g).tolist())

    def test_weighted_occupancy(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 4), (1, 2, 2), (0, 2, 3)])
        levels = ni_indices(g).tolist()
        validate_ni_indices(g, levels)
        # every edge must occupy w(e) contiguous forests ending at l_e >= w(e)
        for (u, v, w), l in zip(g.edges(), levels):
            assert l >= w

    def test_index_bounded_by_weighted_degree(self):
        for trial in range(8):
            g = random_graph(12, 40, 30, seed=900 + trial)
            wdeg = [0] * g.n
            for u, v, w in g.edges():
                wdeg[u] += w
                wdeg[v] += w
            for (u, v, w), l in zip(g.edges(), ni_indices(g).tolist()):
                assert l <= min(wdeg[u], wdeg[v])

    def test_empty_and_isolated(self):
        g = WeightedGraph.from_edges(4, [])
        assert ni_indices(g).tolist() == []

    def test_parallel_sums_pass_64_bits(self):
        # vertex 0 is scanned first and hands every parallel edge to vertex 1
        g = WeightedGraph.from_edges(2, [(0, 1, MAX_WEIGHT), (1, 0, MAX_WEIGHT), (0, 1, 5)])
        assert ni_indices(g).tolist() == [MAX_WEIGHT, 2 * MAX_WEIGHT, 2 * MAX_WEIGHT + 5]

    @settings(max_examples=400, deadline=None)
    @given(g=ni_graphs())
    @example(g=WeightedGraph.from_edges(1, []))
    @example(g=WeightedGraph.from_edges(3, [(2, 1, MAX_WEIGHT)] * 3 + [(1, 2, 7), (0, 1, 1)]))
    def test_matches_per_edge_scan(self, g):
        assert ni_indices(g).tolist() == oracle_ni_indices(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_edge_scan_across_blocks(self, seed):
        # 30..300 vertices make 5..17 scan blocks; weights 1 and 2 on sparse
        # parts leave many vertices tied in r(v), so the smallest-id rule
        # decides across blocks.  Two parts with no edge between them, their
        # vertices shuffled over the id range, and isolated vertices.
        rng = random.Random(seed)
        n = rng.randint(30, 300)
        verts = rng.sample(range(n), n)
        isolated = rng.randint(1, n // 4)
        cut = rng.randint(2, n - isolated - 2)
        edges = []
        for part in (verts[:cut], verts[cut : n - isolated]):
            for _ in range(rng.randint(0, 4 * len(part))):
                edges.append((*rng.sample(part, 2), rng.choice([1, 2])))
        g = WeightedGraph.from_edges(n, edges)
        assert ni_indices(g).tolist() == oracle_ni_indices(g)

    def test_dtype_follows_total_weight(self):
        # int64 while the total weight fits in 63 bits, Python ints past it
        narrow = ni_indices(WeightedGraph.from_edges(3, [(0, 1, MAX_WEIGHT - 1), (1, 2, 1)]))
        assert narrow.dtype == np.int64 and narrow.tolist() == [MAX_WEIGHT - 1, 1]
        wide = ni_indices(WeightedGraph.from_edges(3, [(0, 1, MAX_WEIGHT), (1, 2, 1)]))
        assert wide.dtype == object and wide.tolist() == [MAX_WEIGHT, 1]


def ni_sparsify(g, epsilon, seed=0, rho_scale=1.0):
    """The preprocessing sampler alone, through the one entry point."""
    cfg = SparsifyConfig(epsilon, seed=seed, rho_scale=rho_scale, method="ni")
    return sparsify(g, cfg)[0]


class TestFhhpPreprocess:
    def test_epsilon_range_enforced(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            ni_sparsify(g, 1.5)
        with pytest.raises(ValueError):
            ni_sparsify(g, 0.0)

    def test_kept_all_compares_exactly(self):
        # the index 2^53 + 1 rounds to 2^53 in float64, so p_e = 1 and the
        # edge is kept, but the index is above rho: not every l_e <= rho
        g = WeightedGraph.from_edges(2, [(0, 1, 2**53 + 1)])
        h = ni_preprocess(g, float(2**53), seed=0)
        assert h.m == 1 and h is not g
        h = ni_preprocess(g, float(2**53 + 2), seed=0)
        assert h is g

    def test_kept_all_on_edgeless_graph(self):
        g = WeightedGraph.from_edges(3, [])
        h = ni_preprocess(g, 1.0, seed=0)
        assert h is g

    def test_kept_all_draws_nothing_and_times_both_stages(self, monkeypatch):
        # every p_e = 1: the pass returns its input without a draw
        monkeypatch.setattr("cutsparse.ni.compress", None)
        g = random_graph(8, 20, 9, seed=1)
        timings = {}
        h = ni_preprocess(g, 1e9, seed=0, timings_ms=timings)
        assert h is g
        assert set(timings) == {"indices", "compression"}

    def test_keeps_low_index_edges_exact(self):
        from collections import Counter

        g = random_graph(10, 120, 6, seed=3)
        scale = 20.0 / preprocess_rho(g.n, 0.5)
        h = ni_sparsify(g, 0.5, seed=5, rho_scale=scale)
        levels = ni_indices(g).tolist()
        rho = preprocess_rho(g.n, 0.5, scale)
        exact = Counter(
            (u, v, float(w))
            for (u, v, w), l in zip(g.edges(), levels)
            if rho / l >= 1.0
        )
        assert exact, "test graph must exercise the p=1 branch"
        assert len(exact) < g.m, "test graph must exercise the p<1 branch too"
        out = Counter(h.edges())
        # every p_e = 1 edge survives with its exact weight
        assert not (exact - out)

    def test_cut_preservation_practical_mode(self):
        # exhaustive cuts within (1 +/- eps) for at least 95% of 200 seeds
        import numpy as np

        from cutsparse.oracles import _all_cut_weights

        eps = 0.5
        g = multi_complete_graph(12, 30, 8, seed=101)
        base = _all_cut_weights(g)[1:]
        scale = 25.0 / preprocess_rho(g.n, eps)
        within = 0
        for seed in range(200):
            h = ni_sparsify(g, eps, seed=seed, rho_scale=scale)
            err = float(np.abs(_all_cut_weights(h)[1:] / base - 1.0).max())
            within += err <= eps
        assert within >= 0.95 * 200, within
