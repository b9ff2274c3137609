import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cutsparse import (
    MAX_WEIGHT,
    CutSpec,
    GraphFormatError,
    SparseGraph,
    WeightedGraph,
    cut_weight,
    load_graph,
    load_sparse,
    save_graph,
)
from cutsparse.graph import (
    _EDGELIST_BYTES,
    _SAVE_BLOCK,
    _load_edgelist_arrays,
    _parse_lines,
    _read_lines,
)

from conftest import multigraphs, random_graph
from reference import oracle_edge_list_text


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
            other = ((1 << g.n) - 1) ^ side
            assert cut_weight(g, CutSpec(side)) == cut_weight(g, CutSpec(other))

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


class TestCutSpec:
    @pytest.mark.parametrize("n", [1, 8, 9, 1000])
    def test_round_trip(self, n):
        rng = random.Random(n)
        for side in ([], [0], [n - 1], list(range(n)), sorted(rng.sample(range(n), n // 2))):
            cut = CutSpec.from_vertices(reversed(side + side))
            assert cut.side == sum(1 << v for v in side)
            assert cut.vertices(n) == side
            # bits past n - 1 name no vertex of an n-vertex graph
            assert CutSpec(cut.side | 1 << n).vertices(n) == side

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            CutSpec.from_vertices([2, -1])


class TestFileFormats:
    def test_dimacs_parses_comments_and_e_lines(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("c a comment\np sp 3 2\ne 1 2 5\na 2 3 7\n")
        g = load_graph(p)
        assert g.edges() == [(0, 1, 5), (1, 2, 7)]

    @settings(max_examples=100, deadline=None)
    @given(g=multigraphs())
    def test_both_formats_load_alike(self, g, tmp_path_factory):
        folder = tmp_path_factory.mktemp("formats")
        edgelist, dimacs = folder / "g.txt", folder / "g.gr"
        save_graph(g, edgelist)
        arcs = "".join(f"a {u + 1} {v + 1} {w}\n" for u, v, w in g.edges())
        dimacs.write_text(f"c one graph, two formats\np sp {g.n} {g.m}\n{arcs}")
        assert load_graph(edgelist) == load_graph(dimacs) == g
        real = SparseGraph.from_arrays(g.n, g.edge_u, g.edge_v, g.edge_w)
        assert load_sparse(edgelist) == load_sparse(dimacs) == real


class TestArrayConstructor:
    @pytest.mark.parametrize(
        "n, u, v, w",
        [
            (0, [], [], []),
            (2, [0], [2], [1]),
            (2, [-1], [1], [1]),
            (2, [0], [1 << 63], [1]),
            (2, [1], [1], [1]),
            (2, [0], [1], [0]),
            (2, [0], [1], [-5]),
            (2, [0, 1], [1], [1]),
        ],
        ids=["n0", "endpoint-n", "endpoint-neg", "endpoint-2^63", "self-loop",
             "w0", "w-neg", "ragged"],
    )
    @pytest.mark.parametrize("cls", [WeightedGraph, SparseGraph])
    def test_rejects_what_from_edges_rejects(self, cls, n, u, v, w):
        with pytest.raises(ValueError):
            cls.from_arrays(n, u, v, w)
        if len(u) == len(v) == len(w):
            with pytest.raises(ValueError):
                cls.from_edges(n, zip(u, v, w))

    def test_integer_weights_stop_at_2_63_minus_1(self):
        with pytest.raises(ValueError, match=r"outside \[1, 2\^63-1\]"):
            WeightedGraph.from_arrays(2, [0], [1], [1 << 63])
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 1, 1 << 63)])

    @pytest.mark.parametrize(
        "w",
        [np.array([2.5]), [1.5], np.array([1e19]), np.array([1 << 63], dtype=np.uint64), [math.nan]],
        ids=["fraction", "list-fraction", "float-1e19", "uint64-2^63", "nan"],
    )
    def test_weights_the_int64_cast_would_change(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the cast must not warn either
            with pytest.raises(ValueError, match=r"outside \[1, 2\^63-1\]"):
                WeightedGraph.from_arrays(2, [0], [1], w)

    @pytest.mark.parametrize(
        "u, v",
        [([0.5], [1.9]), (np.array([0.0]), np.array([1.5])),
         (np.array([0], dtype=np.uint64), np.array([1 << 63], dtype=np.uint64))],
        ids=["list-fraction", "float-fraction", "uint64-2^63"],
    )
    @pytest.mark.parametrize("cls", [WeightedGraph, SparseGraph])
    def test_endpoints_the_int64_cast_would_change(self, cls, u, v):
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            cls.from_arrays(3, u, v, [1])

    def test_integral_columns_of_other_dtypes_are_kept(self):
        u, v = np.array([0.0, 1.0]), np.array([1, 2], dtype=np.uint64)
        g = WeightedGraph.from_arrays(3, u, v, np.array([2.0, 2.0**62]))
        assert g.edges() == [(0, 1, 2), (1, 2, 1 << 62)]

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, 0.0, -0.5, 10**400])
    def test_sparse_rejects_non_finite_or_non_positive(self, w):
        with pytest.raises(ValueError):
            SparseGraph.from_arrays(2, [0], [1], [w])
        with pytest.raises(ValueError):
            SparseGraph.from_edges(2, [(0, 1, w)])

    @pytest.mark.parametrize("w", [0, -1, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls", [WeightedGraph, SparseGraph])
    def test_weight_rule_raises_the_class_error(self, cls, w):
        with pytest.raises(ValueError, match=f"^{re.escape(cls._weight_error)}$"):
            cls.from_arrays(2, [0], [1], [w])

    # each type's weight range is closed at both ends
    @pytest.mark.parametrize(
        "cls, w",
        [(WeightedGraph, 7), (SparseGraph, 0.5), (WeightedGraph, 1), (WeightedGraph, MAX_WEIGHT),
         (SparseGraph, 5e-324), (SparseGraph, 1e308)],
    )
    def test_read_only_copies(self, cls, w):
        u, v, ws = np.array([0, 1]), np.array([1, 2]), np.array([w, w])
        g = cls.from_arrays(3, u, v, ws)
        for col in (g.edge_u, g.edge_v, g.edge_w):
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1
        u[0] = 2  # the caller's arrays stay the caller's
        assert g.edge_u.tolist() == [0, 1]
        assert g == cls.from_edges(3, [(0, 1, w), (1, 2, w)])

    def test_dtypes(self):
        g = WeightedGraph.from_arrays(3, (0, 1), (1, 2), ((1 << 63) - 1, 1))
        assert g.edge_u.dtype == g.edge_v.dtype == g.edge_w.dtype == np.int64
        h = SparseGraph.from_arrays(3, (0, 1), (1, 2), (2, 0.5))
        assert h.edge_w.dtype == np.float64
        assert g != h and h != g


# --- the edge-list fast path against the line parser ---------------------------

# separators numpy and str.split() disagree on, a non-UTF-8 byte
# (surrogate-escaped until encoding) and a comment marker
_ODD = ["\x0b", "\x0c", "\x1c", "\xa0", "\udcff", "#"]
_SEPARATORS = [" ", "  ", "\t", " \t "]
_JUNK = ["+", "-", "--1", "+-1", "1-2", "x", "1.0", "1e3", "#1"] + _ODD
_EXTREMES = [-1, 0, (1 << 63) - 1, 1 << 63, 10**20]


@st.composite
def _token(draw, value: int, junk: bool) -> str:
    style = draw(st.integers(0, 9))
    if junk and style == 0:
        return draw(st.sampled_from(_JUNK))
    if value >= 0 and style in (1, 2):
        return ("+", "00")[style - 1] + str(value)
    if value == 0 and style == 3:
        return "-0"
    return str(value)


@st.composite
def edge_list_texts(draw) -> bytes:
    """Mostly valid edge-list files, some with one kind of fault: odd
    separators or bytes, junk tokens, extreme values, a 4-token line followed
    by a 2-token line, or a wrong edge count."""
    n = draw(st.integers(1, 5))
    odd, junk, extreme, shifted, miscount = (draw(st.integers(0, 7)) == 0 for _ in range(5))
    vertex = st.integers(0, n - 1) | st.sampled_from([n, -1]) if extreme else st.integers(0, n - 1)
    weight = st.integers(1, 9) | st.sampled_from(_EXTREMES) if extreme else st.integers(0, 9)
    rows = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=6))
    if not extreme:  # self-loops only among the faults
        rows = [(u, (u + 1) % n if u == v else v, w) for u, v, w in rows]
    m = draw(st.integers(-1, 7)) if miscount else len(rows)
    lines = [[draw(_token(x, junk)) for x in row] for row in [(n, m), *rows]]
    if shifted and len(lines) > 2:
        # one line of 4 tokens, then one of 2: the total count still adds up
        i = draw(st.integers(1, len(lines) - 2))
        lines[i].append(lines[i + 1].pop(0))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([[], [""], [" \t"]])))
    separators = st.sampled_from(_SEPARATORS + _ODD if odd else _SEPARATORS)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(draw(separators).join(line) + ending for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8", "surrogateescape")


def _outcome(load, path):
    try:
        g = load(path)
    except GraphFormatError as exc:
        return str(exc)
    return g.n, g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()


class TestEdgeListFastPath:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=edge_list_texts())
    def test_same_arrays_or_same_error_as_the_line_parser(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("edgelist") / "g.txt"
        path.write_bytes(data)
        expected = _outcome(lambda p: _parse_lines(_read_lines(p), real=False), path)
        assert _outcome(load_graph, path) == expected
        if not isinstance(expected, str) and not data.translate(None, _EDGELIST_BYTES):
            # a valid file of the guarded bytes never needs the line parser
            assert _load_edgelist_arrays(path, data) is not None

    @pytest.mark.parametrize(
        "text, edges",
        [
            ("\n3 2\r\n\r\n0 1 +5\r\n  \t\r\n1 2 007\r\n", [(0, 1, 5), (1, 2, 7)]),
            ("3 1\r-0 2 1\r", [(0, 2, 1)]),
            ("2 1\n0 1 9223372036854775807", [(0, 1, (1 << 63) - 1)]),
            ("3 3\n0 1 5\n1 2 3\n0 2 4\n", [(0, 1, 5), (1, 2, 3), (0, 2, 4)]),
        ],
    )
    def test_valid_files_take_the_fast_path(self, tmp_path, text, edges):
        path = tmp_path / "g.txt"
        path.write_text(text, newline="")
        g = _load_edgelist_arrays(path, path.read_bytes())
        assert g is not None and g.edges() == edges

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 1\n0 1 9223372036854775808\n", "line 2: weight exceeds 2^63-1"),
            ("3 2\n0 1 5 1\n2 3\n", "line 2: expected 'u v w'"),
            ("3 1\n0\x0c1 3\n", "line 2: expected 'u v w'"),
            ("3 1\n0 1 -0\n", "line 2: weight must be >= 1, got 0"),
            ("3 1\n0 1 5\n1 2 3\n", "header announced 1 edges but file has 2"),
            ("2 1\n0 1 0\n", "line 2: weight must be >= 1, got 0"),
            ("2 1\n1 1 4\n", "line 2: self-loop on vertex 1"),
            ("2 1\n0 5 4\n", "line 2: endpoint out of range for n=2"),
            ("3 2\n0 1 1\n", "header announced 2 edges but file has 1"),
        ],
    )
    def test_line_parser_errors(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(GraphFormatError) as info:
            load_graph(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["5 0\n", "5 0", "\n5 0\n\n \t\n", "5 0\r\n\r\n"])
    def test_no_edges_loads_quietly(self, tmp_path, capfd, text):
        path = tmp_path / "g.txt"
        path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_graph(path)
        assert (g.n, g.m) == (5, 0)
        assert capfd.readouterr().err == ""


_INT_WEIGHTS = st.one_of(
    st.sampled_from([1, 9, 10, 99, 100, 10**18, 2**63 - 1]), st.integers(1, 2**63 - 1)
)
_REAL_WEIGHTS = st.one_of(
    st.sampled_from([2.0**63, 2.0**63 - 1024, 5e-324, 1e308, 0.5, 1.0, 9.0, 10.0, 99.0]),
    st.floats(min_value=5e-324, max_value=1e308),
    st.integers(1, 1 << 64).map(float),
)


@st.composite
def saved_graphs(draw) -> WeightedGraph | SparseGraph:
    """Graphs with endpoints of 1 to 7 digits and 0, a few or 2 blocks + 3
    edges; each block of the writer, the ragged last one too, draws its own
    endpoint bound and weight pool, so field widths change between blocks."""
    digits = draw(st.integers(1, 7))
    n = draw(st.integers(10 ** (digits - 1), 10**digits))
    m = 0 if n == 1 else draw(st.sampled_from([0, 1, 5, 2 * _SAVE_BLOCK + 3]))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    w = [np.empty(0, dtype=np.float64 if real else np.int64)]
    for start in range(0, m, _SAVE_BLOCK):
        k = min(_SAVE_BLOCK, m - start)
        bound = draw(st.integers(2, n))
        pool = draw(st.lists(_REAL_WEIGHTS if real else _INT_WEIGHTS, min_size=1, max_size=8))
        u.append(rng.integers(0, bound, k))
        v.append((u[-1] + rng.integers(1, bound, k)) % bound)
        w.append(rng.choice(np.array(pool), k))
    cls = SparseGraph if real else WeightedGraph
    return cls.from_arrays(n, *map(np.concatenate, (u, v, w)))


def _assert_same_text(got: str, want: str) -> None:
    """Equal texts, or a failure that names the first line that differs
    (the texts run to 2 blocks of lines, too long for pytest's diff)."""
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        pairs = enumerate(zip(got_lines, want_lines))
        i = next((i for i, (a, b) in pairs if a != b), min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {i + 1}: wrote {got_lines[i:i + 1]}, expected {want_lines[i:i + 1]}")


class TestSaveColumns:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(
                st.floats(min_value=5e-324, max_value=1e308, allow_nan=False),
                st.integers(1, 1 << 64).map(float),
                st.sampled_from([2.0**63, 2.0**63 - 1024, 2.0**53 + 2, 0.5, 1.0]),
            ),
            max_size=20,
        )
    )
    def test_sparse_weights_match_per_edge_formatting(self, weights, tmp_path_factory):
        h = SparseGraph.from_arrays(2, [0] * len(weights), [1] * len(weights), weights)
        path = tmp_path_factory.mktemp("save") / "h.txt"
        save_graph(h, path)
        assert path.read_text() == oracle_edge_list_text(h)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(g=saved_graphs())
    def test_matches_line_by_line_oracle(self, g, tmp_path_factory):
        path = tmp_path_factory.mktemp("save") / "g.txt"
        save_graph(g, path)
        _assert_same_text(path.read_text(), oracle_edge_list_text(g))

    @pytest.mark.parametrize(
        "tail_weights", [[2**63 - 1, 10**18, 100], [2.0**63 - 1024, 5e-324, 0.1]]
    )
    def test_ragged_last_block_wider_than_the_first(self, tail_weights, tmp_path):
        """Every field of the last block is wider than in the blocks before
        it, whose lines are all "0 1 1"."""
        m = 2 * _SAVE_BLOCK + 3
        u, v = np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)
        w = np.ones(m, dtype=type(tail_weights[-1]))
        u[-3:], v[-3:] = [9_999_998, 9_999_999, 1_234_567], [9_999_999, 0, 7_654_321]
        w[-3:] = tail_weights
        cls = SparseGraph if w.dtype == np.float64 else WeightedGraph
        g = cls.from_arrays(10**7, u, v, w)
        path = tmp_path / "g.txt"
        save_graph(g, path)
        _assert_same_text(path.read_text(), oracle_edge_list_text(g))

