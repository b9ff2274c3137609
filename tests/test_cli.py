import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calibration as cal
from cutsparse import MAX_WEIGHT, WeightedGraph, check_sparsifier, load_graph, load_sparse, save_graph
from cutsparse.cli import main
from cutsparse.msf import OVER
from cutsparse.graph import _components

from conftest import (
    complete_graph,
    dumbbell_graph,
    multi_complete_graph,
    multigraphs,
    random_graph,
    topology_gallery,
    wide_range_graph,
)
from reference import oracle_msf_packing


@pytest.fixture
def tiny_graph_file(tmp_path):
    path = tmp_path / "g.txt"
    save_graph(random_graph(8, 20, 9, seed=1), path)
    return path


@pytest.fixture
def multigraph_file(tmp_path):
    path = tmp_path / "mg.txt"
    save_graph(multi_complete_graph(10, 30, 8, seed=2), path)
    return path


@pytest.fixture
def heavy_graph_file(tmp_path):
    # weights in [2^59, 2^60): dense enough for two sampled rounds at
    # --rho-scale 1e-7, whose second round must cap its rescale exponent to
    # stay within 2^63 - 1.
    g = random_graph(20, 800, 1 << 59, seed=3)
    path = tmp_path / "heavy.txt"
    save_graph(WeightedGraph.from_edges(g.n, [(u, v, w + (1 << 59) - 1) for u, v, w in g.edges()]), path)
    return path


def heavy_theory_graph() -> WeightedGraph:
    """40 vertices, 20,000 edges at weights in [2^53, 2^62): at eps 0.5 in
    theory mode all four rounds take the early out, and the last three round
    their input first."""
    g = random_graph(40, 20_000, 2**62 - 2**53, seed=4)
    return WeightedGraph.from_arrays(g.n, g.edge_u, g.edge_v, g.edge_w + (2**53 - 1))


class TestSparsifyCommand:
    def test_theory_mode_identity_bytes(self, tiny_graph_file, tmp_path, capsys):
        out = tmp_path / "h.txt"
        rc = main(
            ["sparsify", "--input", str(tiny_graph_file), "--output", str(out),
             "--epsilon", "0.5", "--seed", "7", "--mode", "theory"]
        )
        assert rc == 0
        assert out.read_text() == tiny_graph_file.read_text()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("warning: every round took the early out (m=20 <= threshold ")

    @pytest.mark.parametrize(
        "graph, rounds",
        [
            (lambda: WeightedGraph.from_edges(3, [(0, 1, MAX_WEIGHT), (1, 2, 2**53 + 1), (0, 2, 5)]), 1),
            (
                lambda: WeightedGraph.from_edges(
                    12, [(2 * i, 2 * i + 1, w) for i, w in enumerate([1, 9, 10, 99, 2**53 + 1, MAX_WEIGHT])]
                ),
                1,
            ),
            (heavy_theory_graph, 4),
        ],
        ids=["triangle", "twelve-vertices", "heavy-theory"],
    )
    def test_early_out_output_is_its_input(self, tmp_path, capsys, graph, rounds):
        """A run whose every round took the early out writes its input back
        byte for byte, at any weight, and that output reads back in.  The
        first two graphs run in practical mode, the last in theory mode."""
        mode = ["--mode", "practical"] if rounds == 1 else []
        source, out, again = tmp_path / "g.txt", tmp_path / "h.txt", tmp_path / "again.txt"
        save_graph(graph(), source)
        for path, sink in ((source, out), (out, again)):
            report = tmp_path / "r.json"
            assert main(["sparsify", "--input", str(path), "--output", str(sink),
                         "--epsilon", "0.5", "--report", str(report), *mode]) == 0
            assert sink.read_bytes() == source.read_bytes()
            assert capsys.readouterr().err.endswith("; the output is its input\n")
            early_outs = [rnd["early_out"] for rnd in json.loads(report.read_text())["rounds"]]
            assert early_outs == [True] * rounds

    @pytest.mark.parametrize("method", ["ni", "pipeline"])
    def test_ni_keeping_every_edge_warns(self, tiny_graph_file, tmp_path, capsys, method):
        out = tmp_path / "h.txt"
        report = tmp_path / "r.json"
        rc = main(
            ["sparsify", "--input", str(tiny_graph_file), "--output", str(out),
             "--epsilon", "0.5", "--seed", "7", "--method", method,
             "--report", str(report)]
        )
        assert rc == 0
        assert out.read_text() == tiny_graph_file.read_text()
        ni_round = json.loads(report.read_text())["rounds"][0]
        assert ni_round["method"] == "ni" and ni_round["early_out"]
        assert ni_round["threshold"] == ni_round["rho"] > 0
        assert ni_round["early_out_reason"] == f"every NI index <= rho {ni_round['threshold']:g}"
        warning = "warning: every round took the early out "
        if method == "ni":
            warning += f"(every NI index <= rho {ni_round['threshold']:g})"
        else:
            warning += "(m=20 <= threshold "
        err = capsys.readouterr().err
        assert err.startswith(warning) and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["msf", "ni", "pipeline"])
    def test_practical_mode_samples_the_gallery(self, tmp_path, capsys, method):
        for name, g in topology_gallery():
            path = tmp_path / f"{name}.txt"
            save_graph(g, path)
            for seed in (1, 2):
                out = tmp_path / f"{name}-{seed}-out.txt"
                rc = main(
                    ["sparsify", "--input", str(path), "--output", str(out),
                     "--epsilon", "0.5", "--seed", str(seed), "--mode", "practical",
                     "--method", method]
                )
                assert rc == 0
                assert capsys.readouterr().err == "", (name, seed)
                h = load_sparse(out)
                assert h.m < g.m, (name, seed)
                assert len(set(_components(h))) == 1, (name, seed)
                assert check_sparsifier(g, h).max_rel_error <= cal.CUT_TOLERANCE_HARD, (name, seed)

    def test_repeat_runs_byte_identical(self, multigraph_file, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            rc = main(
                ["sparsify", "--input", str(multigraph_file), "--output", str(out),
                 "--epsilon", "0.5", "--seed", "5", "--mode", "practical",
                 "--rho-scale", "0.0001"]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_non_utf8_input_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2 1\n0 1 \xff\n")
        rc = main(
            ["sparsify", "--input", str(bad), "--output", str(tmp_path / "h.txt"),
             "--epsilon", "0.5"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_unwritable_output_exit_1(self, multigraph_file, tmp_path, capsys):
        rc = main(
            ["sparsify", "--input", str(multigraph_file),
             "--output", str(tmp_path / "missing" / "h.txt"), "--epsilon", "0.5",
             "--mode", "practical"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")

    def test_unwritable_report_exit_1(self, multigraph_file, tmp_path, capsys):
        out = tmp_path / "h.txt"
        rc = main(
            ["sparsify", "--input", str(multigraph_file), "--output", str(out),
             "--epsilon", "0.5", "--mode", "practical",
             "--report", str(tmp_path / "missing" / "r.json")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")
        assert out.exists()

    def test_two_vertices_parallel_edges_practical(self, tmp_path):
        # 2 vertices and 1,000 unit edges: the round runs 3 levels, more than n
        path = tmp_path / "pair.txt"
        save_graph(WeightedGraph.from_edges(2, [(0, 1, 1)] * 1000), path)
        out = tmp_path / "h.txt"
        rc = main(
            ["sparsify", "--input", str(path), "--output", str(out),
             "--epsilon", "0.5", "--mode", "practical"]
        )
        assert rc == 0
        h = load_sparse(out)
        assert 0 < h.m < 1000
        assert len(set(_components(h))) == 1

    @pytest.mark.parametrize("method", ["ni", "pipeline"])
    def test_wide_binomial_draw_finishes(self, tmp_path, method):
        # one edge of 2^62 in theory mode at eps 1e-5: the NI pass draws at
        # mean rho, about 2e14, with standard deviation 1.4e7
        path = tmp_path / "pair.txt"
        path.write_text(f"2 1\n0 1 {1 << 62}\n")
        out = tmp_path / "h.txt"
        t0 = time.perf_counter()
        rc = main(
            ["sparsify", "--input", str(path), "--output", str(out),
             "--epsilon", "1e-5", "--method", method]
        )
        assert time.perf_counter() - t0 < 5.0
        assert rc == 0
        assert load_sparse(out).m == 1

    def test_report_written(self, multigraph_file, tmp_path):
        report = tmp_path / "report.json"
        # rho-scale small enough that the final wrapper round samples despite
        # the tightened per-round epsilon schedule
        rc = main(
            ["sparsify", "--input", str(multigraph_file),
             "--output", str(tmp_path / "h.txt"), "--epsilon", "0.5",
             "--seed", "3", "--mode", "practical", "--rho-scale", "1e-6",
             "--report", str(report)]
        )
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["input"]["n"] == 10
        assert payload["config"]["mode"] == "theory"  # --rho-scale overrides --mode
        assert payload["rounds"]
        exercised = [r for r in payload["rounds"] if not r["early_out"]]
        assert exercised, "this rho-scale must make the final round sample"
        for rnd in exercised:
            assert len(rnd["levels"]) == rnd["gamma"] + 1
            assert rnd["early_out_reason"] is None
        assert set(payload["timings_ms"]) == {"load", "sparsify", "save", "total"}

    @pytest.mark.parametrize("method", ["msf", "ni", "pipeline"])
    def test_report_timings_add_up(self, multigraph_file, tmp_path, method):
        report = tmp_path / "report.json"
        rc = main(
            ["sparsify", "--input", str(multigraph_file),
             "--output", str(tmp_path / "h.txt"), "--epsilon", "0.5", "--seed", "3",
             "--rho-scale", "1e-6", "--method", method, "--report", str(report)]
        )
        assert rc == 0
        payload = json.loads(report.read_text())
        round_totals = 0.0
        for rnd in payload["rounds"]:
            stages = dict(rnd["timings_ms"])
            total = stages.pop("total")
            assert sum(stages.values()) <= total
            round_totals += total
        top = payload["timings_ms"]
        assert top["total"] >= top["load"] + top["save"] + round_totals
        # the rounds run inside the sparsify call, which also scales back
        assert top["sparsify"] >= round_totals

    @pytest.mark.parametrize("method", ["msf", "ni", "pipeline"])
    def test_report_top_level_timings_cover_the_run(self, multigraph_file, tmp_path, method):
        # load, sparsify and save are the whole command: nothing it does
        # between reading the input and writing the output goes untimed
        report = tmp_path / "report.json"
        rc = main(
            ["sparsify", "--input", str(multigraph_file), "--output", str(tmp_path / "h.txt"),
             "--epsilon", "0.5", "--seed", "3", "--method", method, "--report", str(report)]
        )
        assert rc == 0
        top = json.loads(report.read_text())["timings_ms"]
        parts = [top["load"], top["sparsify"], top["save"]]
        assert all(t >= 0.0 for t in parts)
        assert sum(parts) <= top["total"]

    def test_methods_run(self, multigraph_file, tmp_path):
        for method in ("msf", "ni", "pipeline"):
            out = tmp_path / f"{method}.txt"
            report = tmp_path / f"{method}.json"
            rc = main(
                ["sparsify", "--input", str(multigraph_file), "--output", str(out),
                 "--epsilon", "0.5", "--seed", "1", "--method", method,
                 "--report", str(report)]
            )
            assert rc == 0
            load_sparse(out)
            rounds = json.loads(report.read_text())["rounds"]
            assert rounds, method  # every method reports its rounds
            assert (rounds[0]["method"] == "ni") == (method != "msf")

    def test_heavy_weights_cap_the_rescale(self, heavy_graph_file, tmp_path, capsys):
        out = tmp_path / "h.txt"
        rc = main(
            ["sparsify", "--input", str(heavy_graph_file), "--output", str(out),
             "--epsilon", "0.5", "--rho-scale", "1e-7"]
        )
        assert rc == 0
        assert capsys.readouterr().err == ""
        h = load_sparse(out)
        assert h.m < load_graph(heavy_graph_file).m
        assert len(set(_components(h))) == 1

    @pytest.mark.parametrize("mode", ["theory", "practical"])
    @pytest.mark.parametrize("method", ["msf", "pipeline"])
    def test_weight_range_refusal_skips_the_round(self, tmp_path, capsys, method, mode):
        g = wide_range_graph()
        path, out, report = tmp_path / "g.txt", tmp_path / "h.txt", tmp_path / "r.json"
        save_graph(g, path)
        rc = main(
            ["sparsify", "--input", str(path), "--output", str(out), "--report", str(report),
             "--epsilon", "0.5", "--method", method, "--mode", mode]
        )
        assert rc == 0
        assert check_sparsifier(g, load_sparse(out)).max_rel_error < 0.5
        reasons = [r["early_out_reason"] for r in json.loads(report.read_text())["rounds"]]
        assert reasons[-1] == "weight range too wide to round into 63 bits at this epsilon"
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--c", "2"], ["--regime", "unbounded"], ["--format", "dimacs"]], ids=["c", "regime", "format"]
    )
    def test_removed_override_flags_exit_2(self, tiny_graph_file, tmp_path, capsys, flag):
        # the weight regime and the file format are settled on the input
        with pytest.raises(SystemExit) as exc:
            main(["sparsify", "--input", str(tiny_graph_file), "--output", str(tmp_path / "h.txt"),
                  "--epsilon", "0.5", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_level_guard_overflow_exit_3(self, tmp_path, capsys, levels_never_shrink):
        path = tmp_path / "pair.txt"
        save_graph(WeightedGraph.from_edges(2, [(0, 1, 1)] * 1000), path)
        rc = main(
            ["sparsify", "--input", str(path), "--output", str(tmp_path / "h.txt"),
             "--epsilon", "0.5", "--mode", "practical"]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: level count exceeded guard 74 ")


@st.composite
def cli_inputs(draw):
    """Multigraphs from n = 2 up, often disconnected, with weights up to
    2^63 - 1, sometimes flooded with copies of one edge."""
    g = draw(multigraphs(max_n=6, max_edges=10))
    edges = g.edges()
    if edges:
        edges += [edges[0]] * draw(st.sampled_from([0, 40, 400]))
    return WeightedGraph.from_edges(g.n, edges)


# Imports the CLI, then sparsifies a graph by msf, ni and pipeline in one
# process; prints the numpy.random modules loaded after the import and at the
# end, and the output edge counts (below the input's 1305 when edges were
# compressed).
_IMPORT_PROBE = """
import random, sys
import cutsparse.cli as cli
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
from cutsparse import WeightedGraph, save_graph
rng = random.Random(1)
edges = [(u, v, rng.randint(1, 50)) for u in range(30) for v in range(u + 1, 30) for _ in range(3)]
save_graph(WeightedGraph.from_edges(30, edges), sys.argv[1])
for method, rho_scale in (("msf", "1e-7"), ("ni", "1e-4"), ("pipeline", "1e-4")):
    argv = ["sparsify", "--input", sys.argv[1], "--output", sys.argv[2], "--method", method]
    assert cli.main(argv + ["--epsilon", "0.5", "--rho-scale", rho_scale, "--seed", "1"]) == 0
    with open(sys.argv[2]) as f:
        print(method, f.readline().split()[1])
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_numpy_random_is_never_loaded(tmp_path):
    # importing numpy.random costs the process about 15 ms and 3 MB of
    # resident memory; the compression stream needs only hashlib
    src = Path(sys.modules["cutsparse"].__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "g.txt"), str(tmp_path / "h.txt")],
        env={"PYTHONPATH": str(src), "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out[0] == out[-1] == "[]"
    kept = {line.split()[0]: int(line.split()[1]) for line in out[1:-1]}
    assert set(kept) == {"msf", "ni", "pipeline"}
    assert all(0 < m < 1305 for m in kept.values()), kept


class TestSparsifyProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        g=cli_inputs(),
        method=st.sampled_from(["msf", "ni", "pipeline"]),
        mode=st.sampled_from([["--mode", "theory"], ["--mode", "practical"], ["--rho-scale", "1e-6"]]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_writes_a_sparsifier_or_exits_with_an_error(self, g, method, mode, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "g.txt", Path(tmp) / "h.txt"
            save_graph(g, path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(
                    ["sparsify", "--input", str(path), "--output", str(out),
                     "--epsilon", "0.5", "--seed", str(seed), "--method", method, *mode]
                )
            if rc == 0:
                h = load_sparse(out)
                assert h.n == g.n and h.m <= g.m
            else:
                assert rc in (1, 2, 3)
                assert err.getvalue().startswith("error: ")


class TestVerifyCommand:
    def test_identical_graphs_zero_error(self, tiny_graph_file, capsys):
        rc = main(
            ["verify", "--graph", str(tiny_graph_file),
             "--sparsifier", str(tiny_graph_file)]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_rel_error"] == 0.0
        assert report["num_cuts"] == 2**7 - 1

    def test_oversized_graph_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        save_graph(random_graph(25, 40, 5, seed=3), path)
        rc = main(["verify", "--graph", str(path), "--sparsifier", str(path)])
        assert rc == 2

    def test_vertex_counts_differ_exit_2(self, tmp_path, capsys):
        g, h = tmp_path / "g.txt", tmp_path / "h.txt"
        g.write_text("3 1\n0 1 1\n")
        h.write_text("2 1\n0 1 1\n")
        assert main(["verify", "--graph", str(g), "--sparsifier", str(h)]) == 2
        assert capsys.readouterr().err == "error: vertex counts differ: 3 vs 2\n"


class TestMincutCommand:
    def test_unit_k5_theory_mode_exact(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        save_graph(complete_graph(5), path)
        rc = main(["mincut", "--input", str(path), "--epsilon", "0.5",
                   "--seed", "1", "--mode", "theory"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "value 4.0"
        assert lines[1].startswith("side ")

    def test_dumbbell(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        save_graph(dumbbell_graph(6), path)
        rc = main(["mincut", "--input", str(path), "--epsilon", "0.5", "--seed", "2"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "value 1.0"

    def test_heavy_weights_cap_the_rescale(self, heavy_graph_file, capsys):
        rc = main(["mincut", "--input", str(heavy_graph_file), "--epsilon", "0.5",
                   "--rho-scale", "1e-7"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("value ")


class TestMsfCommand:
    def test_dump_levels(self, tmp_path, capsys):
        # (input, forests, the dump)
        dumps = [
            ("3 3\n0 1 5\n1 2 3\n0 2 4\n", 2, ["0 0 1 5 1", "1 1 2 3 2", "2 0 2 4 1"]),
            # two triangles, the second lighter, and an isolated vertex: the
            # one forest spans both triangles at edge 4, and edge 5 is still OVER
            (
                "7 6\n0 1 9\n1 2 8\n0 2 7\n3 4 3\n4 5 2\n3 5 1\n",
                1,
                ["0 0 1 9 1", "1 1 2 8 1", "2 0 2 7 OVER", "3 3 4 3 1", "4 4 5 2 1", "5 3 5 1 OVER"],
            ),
        ]
        # a triangle of tied weights W plus a pendant edge: ties go by edge
        # id, both where the sort key fits int64 (W = 5) and where it does not
        dumps += [
            (
                f"4 4\n0 1 {W}\n1 2 {W}\n0 2 {W}\n2 3 1\n",
                1,
                [f"0 0 1 {W} 1", f"1 1 2 {W} 1", f"2 0 2 {W} OVER", "3 2 3 1 1"],
            )
            for W in (5, MAX_WEIGHT)
        ]
        path = tmp_path / "t.txt"
        for text, forests, dump in dumps:
            path.write_text(text)
            assert main(["msf", "--input", str(path), "--levels", str(forests)]) == 0
            assert capsys.readouterr().out.splitlines() == dump, text

    def test_over_label(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("3 3\n0 1 1\n0 2 1\n1 2 1\n")
        rc = main(["msf", "--input", str(path), "--levels", "1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[2].endswith(" OVER")

    def test_zero_levels_all_over(self, tmp_path, capsys):
        # M = 0 is the empty packing, not an error
        path = tmp_path / "t.txt"
        path.write_text("3 3\n0 1 5\n1 2 3\n0 2 4\n")
        assert main(["msf", "--input", str(path), "--levels", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["0 0 1 5 OVER", "1 1 2 3 OVER", "2 0 2 4 OVER"]

    def test_algorithms_agree(self, tmp_path, capsys):
        # the printed levels are those of the reference packing
        path = tmp_path / "g.txt"
        g = random_graph(15, 60, 40, seed=4)
        save_graph(g, path)
        assert main(["msf", "--input", str(path), "--levels", "4"]) == 0
        printed = [line.split()[-1] for line in capsys.readouterr().out.splitlines()]
        expected = oracle_msf_packing(load_graph(path), 4).levels.tolist()
        assert printed == ["OVER" if lv == OVER else str(lv) for lv in expected]


class TestBenchCommand:
    def test_row_count_contract(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(3):
            save_graph(random_graph(8, 18, 6, seed=10 + i), corpus / f"g{i}.txt")
        rc = main(
            ["bench", "--corpus", str(corpus), "--methods", "msf,ni",
             "--seeds", "1,2", "--epsilon", "0.5", "--mode", "theory"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "graph,method,mode,size_out,max_rel_error,time_ms"
        assert len(lines) == 1 + 3 * 2

    def test_rows_deterministic_modulo_time(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_graph(multi_complete_graph(8, 20, 5, seed=20), corpus / "g.txt")
        outputs = []
        for _ in range(2):
            rc = main(
                ["bench", "--corpus", str(corpus), "--methods", "msf",
                 "--seeds", "3", "--epsilon", "0.5", "--mode", "practical"]
            )
            assert rc == 0
            rows = [
                line.rsplit(",", 1)[0]  # drop the wall-clock column
                for line in capsys.readouterr().out.strip().splitlines()
            ]
            outputs.append(rows)
        assert outputs[0] == outputs[1]

    def test_seed_reads_as_seeds(self, tmp_path, capsys):
        """bench parses no --seed of its own, so argparse reads one as --seeds."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_graph(random_graph(12, 400, 9, seed=3), corpus / "g.txt")
        outputs = []
        for flags in (["--seed", "3"], ["--seeds", "3"], []):
            rc = main(["bench", "--corpus", str(corpus), "--epsilon", "0.5", "--mode", "practical", *flags])
            assert rc == 0
            rows = [line.rsplit(",", 1)[0] for line in capsys.readouterr().out.strip().splitlines()]
            outputs.append(rows)
        # the last run, at seed 0, shows that the corpus samples
        assert outputs[0] == outputs[1] != outputs[2]

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_graph(random_graph(8, 18, 6, seed=10), corpus / "g.txt")
        rc = main(
            ["bench", "--corpus", str(corpus), "--methods", "msf", "--epsilon", "0.5",
             "--output", str(tmp_path / "missing" / "bench.csv")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")

    def test_heavy_weights_cap_the_rescale(self, heavy_graph_file, capsys):
        rc = main(
            ["bench", "--corpus", str(heavy_graph_file.parent), "--methods", "msf",
             "--epsilon", "0.5", "--rho-scale", "1e-7"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        row = captured.out.strip().splitlines()[1].split(",")
        assert float(row[3]) < load_graph(heavy_graph_file).m


_ARGV = {
    "sparsify": "sparsify --input {g} --output {out} --epsilon 0.5",
    "verify": "verify --graph {g} --sparsifier {g}",
    "mincut": "mincut --input {g} --epsilon 0.5",
    "msf": "msf --input {g} --levels 2",
    "bench": "bench --corpus {corpus} --methods msf --epsilon 0.5",
}

# the inputs written as text; "graph" and "pair" are saved graphs, and
# "missing" and "empty" leave the corpus without a file
_INPUT_TEXT = {
    "malformed": "2 1\n0 1 0\n",
    "dimacs-empty": "p sp 0 0\n",
    "dimacs-malformed": "p sp 3 2\na 1 2 5\na 2 9 1\n",
    "blank": "",
    "three-token-header": "3 2 1\n0 1 1\n1 2 1\n",
    "fractional-weight": "2 1\n0 1 1.5\n",
    "word-weight": "2 1\n0 1 x\n",
    "vertex": "1 0\n",
    # 8 * 10^17 bytes for one int64 per vertex exceed any address space
    "huge": "100000000000000000 1\n0 1 5\n",
}

# (subcommands, input, extra flags, exit code, start of the error line)
_EXIT_CASES = [
    (["sparsify", "verify", "mincut", "msf"], "missing", [], 1, "[Errno 2] "),
    (["sparsify", "verify", "mincut", "msf"], "malformed", [], 1, "line 2: "),
    (["sparsify", "mincut", "bench"], "graph", ["--epsilon", "1.5"], 2, "epsilon must be in (0, 1)"),
    # below the floor eps^2 underflows: a ZeroDivisionError, or log2(0) in practical mode
    (["sparsify", "mincut", "bench"], "graph", ["--epsilon", "1e-200"], 2, "epsilon must be at least 1e-100"),
    (["sparsify", "mincut", "bench"], "graph", ["--epsilon", "1e-160", "--mode", "practical"], 2, "epsilon must be at least 1e-100"),
    (["sparsify", "mincut", "bench"], "graph", ["--rho-scale", "nan"], 2, "rho_scale must be positive and finite"),
    (["sparsify", "mincut", "bench"], "graph", ["--rho-scale", "inf"], 2, "rho_scale must be positive and finite"),
    # past the ceiling a rho or threshold could reach inf and the report "Infinity"
    (["sparsify", "mincut", "bench"], "graph", ["--rho-scale", "1e308"], 2, "rho_scale must be positive and finite, at most 1e+70"),
    (["sparsify", "mincut", "bench"], "pair", ["--mode", "practical"], 3, "level count exceeded guard"),
    (["msf"], "graph", ["--levels", "-1"], 2, "forest count must be >= 0"),
    (["bench"], "missing", [], 1, "no graph files in {corpus}"),
    (["bench"], "empty", [], 1, "no graph files in {corpus}"),
    (["bench"], "malformed", [], 1, "{g}: line 2: "),
    (["sparsify", "verify", "mincut", "msf"], "dimacs-empty", [], 1, "line 1: invalid header values"),
    (["bench"], "dimacs-empty", [], 1, "{g}: line 1: invalid header values"),
    (["sparsify", "verify", "mincut", "msf"], "dimacs-malformed", [], 1, "line 3: endpoint out of range"),
    (["bench"], "dimacs-malformed", [], 1, "{g}: line 3: endpoint out of range"),
    (["bench"], "graph", ["--seeds", ","], 2, "--seeds lists no seed"),
    (["bench"], "graph", ["--methods", ","], 2, "--methods lists no method"),
    (["sparsify"], "blank", [], 1, "line 1: missing 'n m' header"),
    (["sparsify"], "three-token-header", [], 1, "line 1: header must be 'n m'"),
    (["sparsify"], "fractional-weight", [], 1, "line 2: weight '1.5' is not an integer"),
    (["verify"], "word-weight", [], 1, "line 2: weight 'x' is not a number"),
    (["verify"], "vertex", [], 2, "graphs on a single vertex have no cuts"),
    (["mincut"], "vertex", [], 2, "minimum cut needs at least two vertices"),
    (["msf", "mincut"], "huge", [], 1, "out of memory"),
    (["sparsify"], "huge", ["--method", "ni"], 1, "out of memory"),
    (["sparsify"], "huge", ["--method", "pipeline"], 1, "out of memory"),
    (["bench"], "huge", ["--methods", "msf,ni"], 1, "out of memory"),
]


class TestExitCodes:
    """Every subcommand maps an error to one exit code and one `error:` line."""

    @pytest.mark.parametrize(
        "command,kind,flags,code,message",
        [
            pytest.param(cmd, kind, flags, *rest, id="-".join([cmd, kind, *(f.lstrip("-") for f in flags)]))
            for cmds, kind, flags, *rest in _EXIT_CASES
            for cmd in cmds
        ],
    )
    def test_exit_code(self, tmp_path, capsys, request, command, kind, flags, code, message):
        if code == 3:
            request.getfixturevalue("levels_never_shrink")
        corpus = tmp_path / ("missing" if kind == "missing" else "corpus")
        g = corpus / "g.txt"
        if kind != "missing":
            corpus.mkdir()
        if kind in _INPUT_TEXT:
            g.write_text(_INPUT_TEXT[kind])
        elif kind == "graph":
            save_graph(random_graph(8, 20, 9, seed=1), g)
        elif kind == "pair":
            save_graph(WeightedGraph.from_edges(2, [(0, 1, 1)] * 1000), g)
        fields = {"g": g, "corpus": corpus, "out": tmp_path / "h.txt"}
        argv = [token.format(**fields) for token in _ARGV[command].split()] + flags
        assert main(argv) == code
        assert not fields["out"].exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: " + message.format(**fields))
