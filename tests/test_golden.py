"""Byte-identity of CLI outputs on small seeded inputs.

Each case builds its input, runs one command and compares the sha256 of what
it wrote (the output file for `sparsify`, stdout otherwise) with a literal
digest.  A `sparsify` case also digests its `--report` JSON with every
`timings_ms` removed, the only fields that vary between runs.  A change that
alters output on purpose updates the digest here and says why in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from cutsparse import MAX_WEIGHT, WeightedGraph, save_graph
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


def flooded_graph() -> WeightedGraph:
    """The `multi` graph plus three parallels of weight 2^63 - 1 on one pair:
    the total weight passes 2^64, so NI indices are Python ints."""
    g = multi_complete_graph(10, 30, 8, seed=2)
    return WeightedGraph.from_edges(g.n, g.edges() + [(0, 1, MAX_WEIGHT)] * 3)


def refused_graph() -> WeightedGraph:
    """One edge of weight 2^63 - 1 beside 1,201 unit edges on a triangle:
    the NI pass leaves real weights whose range cannot be rounded into 63
    bits, so the msf round after it is refused."""
    unit = [(i % 3, (i + 1) % 3, 1) for i in range(1201)]
    return WeightedGraph.from_edges(3, [(0, 1, MAX_WEIGHT), *unit])


INPUTS = {
    "multi": lambda: multi_complete_graph(10, 30, 8, seed=2),
    "layered": layered_graph,
    "dumbbell": lambda: dumbbell_graph(6, bridge_weight=3, copies=12),
    "random": lambda: random_graph(16, 300, 1000, seed=5),
    "flooded": flooded_graph,
    "refused": refused_graph,
    # W = 2^40 > n^4: the unbounded regime, with two light chords to set aside
    "chords": lambda: WeightedGraph.from_edges(
        4, [(0, 1, 1 << 40), (1, 2, 1 << 40), (0, 2, 1 << 40), (2, 3, 1 << 40), (0, 2, 3), (1, 3, 5)]
    ),
    # three parallels of 2^63 - 1: the NI indices pass 2^64
    "flooded-pair": lambda: WeightedGraph.from_edges(2, [(0, 1, MAX_WEIGHT), (1, 0, MAX_WEIGHT), (0, 1, MAX_WEIGHT)]),
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
        "ea861a4b40f3c3d7e929c8a3ec90c2d1a948a8670b9ed32b0c5437b2543ee42f",
    ),
    "sparsify-msf-unbounded-set-aside": (
        "chords",
        ["sparsify", "--method", "msf", "--epsilon", "0.5", "--seed", "7", "--rho-scale", "1e-9"],
        "f185975e4157c46adfe550d4b40b5132c89e77b2e34e84dd460510c341de7c6d",
    ),
    # theory mode at rho 0.34 in round 1: floor(2 rho) = 0 forests at level 0
    "sparsify-msf-unbounded-zero-forests": (
        "layered",
        ["sparsify", "--method", "msf", "--epsilon", "0.5", "--seed", "7", "--rho-scale", "1.7e-9"],
        "161bf40bfa80206dbcfe6a6f7bd4e42b6299de304f6886edd6a8ee8cea5d5139",
    ),
    # theory mode at rho 0.10 in round 1, at polynomial weights: levels 0-2
    # pack no forest, level 3 one
    "sparsify-msf-polynomial-zero-forests": (
        "random",
        ["sparsify", "--method", "msf", "--epsilon", "0.5", "--seed", "7", "--rho-scale", "2e-8"],
        "27e5363ecb8722a7b56d4c08743614bbc64690f5174955458f10a73ace914106",
    ),
    "sparsify-ni": (
        "multi",
        ["sparsify", "--method", "ni", *PRACTICAL],
        "784400e5b687efaeda3d466063cf2448f9114f39e50933e1a3b1dc32a26fac52",
    ),
    "sparsify-ni-past-64-bits": (
        "flooded",
        ["sparsify", "--method", "ni", *PRACTICAL],
        "fd19580a444adcc27d3b5ab73e040efb1bce3e656d4db57ab8f23c060d753c54",
    ),
    "sparsify-pipeline": (
        "multi",
        ["sparsify", "--method", "pipeline", *PRACTICAL],
        "82ad160d45b30f4934eeabc68455f184907b403d9765d00c4668cced8a59ec53",
    ),
    "sparsify-pipeline-past-64-bits": (
        "flooded-pair",
        ["sparsify", "--method", "pipeline", *PRACTICAL],
        "dae47bb13df053d7f7b63eda081f6069f5e6c83b4bb07df9ab68166f1e1efa57",
    ),
    "sparsify-pipeline-refused-round": (
        "refused",
        ["sparsify", "--method", "pipeline", *PRACTICAL],
        "e9150c1039e142e419cdf2687c07c5042400e18ab51bea05e6d9fff73c06f22b",
    ),
    # theory mode over three rounds: sampled, early out, sampled; round 3
    # rounds the integer graph round 2 rounded and returned as it is
    "sparsify-msf-early-out-between-samples": (
        "multi",
        ["sparsify", "--method", "msf", "--epsilon", "0.5", "--seed", "7", "--rho-scale", "3e-7"],
        "73507479d27e23a6797ddcb842ba798facb3189321c4b8f126a81ea78080b1c2",
    ),
    # theory mode over three rounds: early out, early out, sampled
    "sparsify-msf-early-outs-before-a-sample": (
        "multi",
        ["sparsify", "--method", "msf", "--epsilon", "0.5", "--seed", "7", "--rho-scale", "1e-6"],
        "dafc9681c9fad79bcf4d8027340ff41268593e8084a0f2cccb82d7d72ad72c9e",
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


# the --report digest of each sparsify case, timings_ms removed
REPORTS = {
    "sparsify-msf-polynomial": "35b6576c1f7969e23e1da64d6816937fb6257afc554c8eea857d20373fba8535",
    "sparsify-msf-unbounded": "8b0ecc0ed091660b732b6deeb6127af19f5d130d7d9e0cd6f411674d7e8cc0c7",
    "sparsify-msf-unbounded-set-aside": "899447db1e1ff4362c5c19512186f6baf0f2361107facb14579349ab20604f4c",
    "sparsify-msf-unbounded-zero-forests": "26495b3c31c7b407bb65a84b09bd85cc8dd98f8361b930fa52e5fd9a7b6e516e",
    "sparsify-msf-polynomial-zero-forests": "674a5e81c103914892b83839bed69965298c1b37a2cebeea6f9307f2ad558472",
    "sparsify-ni": "5c4a6ad65cf55356d250a1b738a8f2a8507751bf3b6973c4117ab901792e2bbf",
    "sparsify-ni-past-64-bits": "7f6990bc9af71ed39a70986a4b0a3dab8e28cb5eefa3bc615793a3db522178bd",
    "sparsify-pipeline": "28c5a98c89ec7113a8fd01f56b546d21fe6311866f47c923bea8d34a45f6d7f0",
    "sparsify-pipeline-past-64-bits": "d0c3d52dd3fa3f49d0c60e56ca36baab058d0703e060f7d824745aafad56b6de",
    "sparsify-pipeline-refused-round": "72073efb5b0776637c157216d03e82a6e4bb1cd4f0e9c3fbed7cf1d79476eea3",
    "sparsify-msf-early-out-between-samples": "703088178de96bdfdbb874a0780ecc6230b194cc991c53f3a1809e2af1d0de74",
    "sparsify-msf-early-outs-before-a-sample": "eba967c628c35487180aa48b3e825953f006e343213074ff67e72618c43f5134",
}

# the early_out of each round, for the cases that mix early outs and samples
EARLY_OUTS = {
    "sparsify-msf-early-out-between-samples": [False, True, False],
    "sparsify-msf-early-outs-before-a-sample": [True, True, False],
    "sparsify-pipeline-past-64-bits": [False, True],
}


def report_digest(text: str) -> str:
    payload = json.loads(text)
    for part in [payload, *payload["rounds"]]:
        del part["timings_ms"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


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
    if case == "sparsify-msf-polynomial-zero-forests":
        rnd = json.loads(report.read_text())["rounds"][0]
        forests = [level["forests"] for level in rnd["levels"]]
        assert rnd["regime"] == "polynomial" and forests[0] == 0 and max(forests) >= 1
    if case == "sparsify-msf-unbounded":
        rnd = json.loads(report.read_text())["rounds"][0]
        assert rnd["regime"] == "unbounded"
        assert rnd["gamma"] >= 1 and rnd["set_aside_count"] > 0
    if case == "sparsify-msf-unbounded-set-aside":
        rnd = json.loads(report.read_text())["rounds"][0]
        assert rnd["regime"] == "unbounded" and rnd["set_aside_count"] == 2
    if case == "sparsify-msf-unbounded-zero-forests":
        rnd = json.loads(report.read_text())["rounds"][0]
        assert rnd["regime"] == "unbounded" and rnd["set_aside_count"] > 0
        forests = [level["forests"] for level in rnd["levels"]]
        assert forests[0] == 0 and len(forests) >= 2 and min(forests[1:]) >= 1
    if case == "sparsify-pipeline-refused-round":
        ni_round, msf_round = json.loads(report.read_text())["rounds"]
        assert ni_round["method"] == "ni" and not ni_round["early_out"]
        assert msf_round["early_out_reason"].startswith("weight range too wide")
        assert set(msf_round["timings_ms"]) == {"total"}
    if case in EARLY_OUTS:
        rounds = json.loads(report.read_text())["rounds"]
        assert [rnd["early_out"] for rnd in rounds] == EARLY_OUTS[case]
    assert hashlib.sha256(written).hexdigest() == digest
    if argv[0] == "sparsify":
        assert report_digest(report.read_text()) == REPORTS[case]
