import random

import numpy as np
import pytest

from cutsparse import (
    CutSpec,
    GraphFormatError,
    SparseGraph,
    WeightedGraph,
    cut_weight,
    load_graph,
    load_sparse,
    save_graph,
)

from conftest import random_graph


def triangle():
    return WeightedGraph.from_edges(3, [(0, 1, 5), (1, 2, 3), (0, 2, 4)])


class TestWeightedGraph:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 0, 1)])
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 1, 0)])
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 2, 1)])
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(0, [])
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 1, 1 << 63)])

    def test_max_weight_boundary_accepted(self):
        g = WeightedGraph.from_edges(2, [(0, 1, (1 << 63) - 1)])
        assert g.max_weight() == (1 << 63) - 1

    def test_subgraph_keeps_vertex_count(self):
        g = triangle()
        sub = g.subgraph_edges(np.array([0, 2]))
        assert sub.n == 3
        assert sub.edges() == [(0, 1, 5), (0, 2, 4)]


class TestCutWeight:
    def test_unit_triangle_singleton(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert cut_weight(g, CutSpec.from_vertices([0])) == 2

    def test_single_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 7)])
        assert cut_weight(g, CutSpec.from_vertices([0])) == 7

    def test_triangle_middle_vertex(self):
        # hand-check: edges (0,1,5) and (1,2,3) cross the {1} side
        assert cut_weight(triangle(), CutSpec.from_vertices([1])) == 8

    def test_invalid_cuts_rejected(self):
        g = triangle()
        with pytest.raises(ValueError):
            cut_weight(g, CutSpec(0))
        with pytest.raises(ValueError):
            cut_weight(g, CutSpec(0b111))
        with pytest.raises(ValueError):
            cut_weight(g, CutSpec(0b1000))

    def test_complement_symmetry(self):
        g = random_graph(9, 40, 50, seed=1)
        rng = random.Random(2)
        for _ in range(25):
            side = rng.randrange(1, (1 << g.n) - 1)
            cut = CutSpec(side)
            assert cut_weight(g, cut) == cut_weight(g, cut.complement(g.n))

    def test_additive_over_edge_disjoint_union(self):
        a = random_graph(7, 15, 30, seed=3)
        b = random_graph(7, 12, 30, seed=4)
        union = WeightedGraph.from_edges(7, a.edges() + b.edges())
        cut = CutSpec.from_vertices([0, 3, 5])
        assert cut_weight(union, cut) == cut_weight(a, cut) + cut_weight(b, cut)

    def test_no_overflow_on_huge_weights(self):
        w = (1 << 63) - 1
        g = WeightedGraph.from_edges(2, [(0, 1, w)] * 4)
        assert cut_weight(g, CutSpec.from_vertices([0])) == 4 * w

    def test_sparse_graph_compensated_sum(self):
        h = SparseGraph.from_edges(2, [(0, 1, 1e16), (0, 1, 1.0), (0, 1, 1.0)])
        assert cut_weight(h, CutSpec.from_vertices([0])) == 1e16 + 2.0


class TestFileFormats:
    def test_edgelist_round_trip_example(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 3\n0 1 5\n1 2 3\n0 2 4\n")
        g = load_graph(p)
        assert g.edges() == [(0, 1, 5), (1, 2, 3), (0, 2, 4)]

    def test_zero_weight_rejected_with_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 1\n0 1 0\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(p)

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 1\n1 1 4\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(p)

    def test_out_of_range_endpoint_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 1\n0 5 4\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(p)

    def test_edge_count_mismatch_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 2\n0 1 1\n")
        with pytest.raises(GraphFormatError, match="announced 2"):
            load_graph(p)

    def test_round_trip_random_graph(self, tmp_path):
        g = random_graph(20, 50, 100, seed=7)
        p = tmp_path / "g.txt"
        save_graph(g, p)
        back = load_graph(p)
        assert sorted(back.edges()) == sorted(g.edges())

    def test_dimacs_round_trip(self, tmp_path):
        g = random_graph(12, 30, 60, seed=8)
        p = tmp_path / "g.gr"
        save_graph(g, p, fmt="dimacs")
        back = load_graph(p)
        assert back.n == g.n
        assert sorted(back.edges()) == sorted(g.edges())

    def test_dimacs_parses_comments_and_e_lines(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("c a comment\np sp 3 2\ne 1 2 5\na 2 3 7\n")
        g = load_graph(p)
        assert g.edges() == [(0, 1, 5), (1, 2, 7)]

    def test_sparse_round_trip(self, tmp_path):
        h = SparseGraph.from_edges(3, [(0, 1, 2.5), (1, 2, 7.0)])
        p = tmp_path / "h.txt"
        save_graph(h, p)
        back = load_sparse(p)
        assert back.edges() == h.edges()
        # integral weights serialize without a decimal point
        assert "7\n" in p.read_text()
