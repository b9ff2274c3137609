"""Byte-identity of CLI outputs on small seeded inputs.

Each case builds its input, runs one command and compares the sha256 of what
it wrote (the output file for `sparsify`, stdout otherwise) with a literal
digest.  A change that alters output on purpose updates the digest here and
says why in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from cutsparse import WeightedGraph, save_graph
from cutsparse.cli import main

from conftest import dumbbell_graph, multi_complete_graph, random_graph


def layered_graph() -> WeightedGraph:
    """Four 8-vertex clusters, cluster c at weights in [2^(16c), 2^(16c+1)),
    joined by cross edges in random bands: W > n^4, so `auto` picks the
    unbounded regime.  Unit chords inside the heaviest cluster have
    n*w <= d(e) and are set aside."""
    rng = random.Random(41)
    edges = []
    for c in range(4):
        lo = 1 << (16 * c)
        for _ in range(700):
            u, v = rng.sample(range(8 * c, 8 * c + 8), 2)
            edges.append((u, v, lo + rng.randrange(lo)))
    for _ in range(60):
        u, v = rng.sample(range(32), 2)
        lo = 1 << (16 * rng.randrange(4))
        edges.append((u, v, lo + rng.randrange(lo)))
    for _ in range(40):
        edges.append((*rng.sample(range(24, 32), 2), 1))
    return WeightedGraph.from_edges(32, edges)


INPUTS = {
    "multi": lambda: multi_complete_graph(10, 30, 8, seed=2),
    "layered": layered_graph,
    "dumbbell": lambda: dumbbell_graph(6, bridge_weight=3, copies=12),
    "random": lambda: random_graph(16, 300, 1000, seed=5),
}

PRACTICAL = ["--epsilon", "0.5", "--seed", "7", "--mode", "practical"]

# (input, argv after the input flags, digest)
CASES = {
    "sparsify-msf-polynomial": (
        "multi",
        ["sparsify", "--method", "msf", *PRACTICAL],
        "1f3246b88abd6d02d311f2dd0217fe2491257e04feacff362fa9bf3f9e95dadb",
    ),
    "sparsify-msf-unbounded": (
        "layered",
        ["sparsify", "--method", "msf", *PRACTICAL],
        "584095a467880949bca90f9b37a71b4aef0e01b42e39369e2f68e632047b5ce8",
    ),
    "sparsify-ni": (
        "multi",
        ["sparsify", "--method", "ni", *PRACTICAL],
        "784400e5b687efaeda3d466063cf2448f9114f39e50933e1a3b1dc32a26fac52",
    ),
    "sparsify-pipeline": (
        "multi",
        ["sparsify", "--method", "pipeline", *PRACTICAL],
        "82ad160d45b30f4934eeabc68455f184907b403d9765d00c4668cced8a59ec53",
    ),
    "mincut": (
        "dumbbell",
        ["mincut", *PRACTICAL],
        "93990fd7e8a5ad0e6da77d1723f3e0fd26621bcae0ef288385c7b195a8705b83",
    ),
    "msf-levels-8": (
        "random",
        ["msf", "--levels", "8"],
        "c96f2a544c3fba0bc1b13ae07a5daed31c3b8fe0f8cf764631f459161b9f113b",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digest(case, tmp_path, capsys):
    name, argv, digest = CASES[case]
    graph = tmp_path / "g.txt"
    save_graph(INPUTS[name](), graph)
    argv = [argv[0], "--input", str(graph), *argv[1:]]
    out = tmp_path / "h.txt"
    report = tmp_path / "r.json"
    if argv[0] == "sparsify":
        argv += ["--output", str(out), "--report", str(report)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    written = out.read_bytes() if argv[0] == "sparsify" else stdout.encode()
    if case == "sparsify-msf-polynomial":
        # W <= n^4, so the input settles on exact packings
        assert json.loads(report.read_text())["rounds"][0]["regime"] == "polynomial"
    if case == "sparsify-msf-unbounded":
        rnd = json.loads(report.read_text())["rounds"][0]
        assert rnd["regime"] == "unbounded"
        assert rnd["gamma"] >= 1 and rnd["set_aside_count"] > 0
    assert hashlib.sha256(written).hexdigest() == digest
