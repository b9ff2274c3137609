"""Self-tests of the benchmark's own code.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cutsparse import CutSpec, SparseGraph, SparsifyConfig, WeightedGraph  # noqa: E402
from cutsparse import check_sparsifier, cut_weight, exact_min_cut  # noqa: E402
from cutsparse.sparsify import sparsify_unbounded_with_report  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_byte_identical_per_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    paths = [tmp_path / f"{i}.txt" for i in range(3)]
    for path, seed in zip(paths, (7, 7, 8)):
        workloads.write_edgelist(workloads.generate(wl, seed), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    n, u, v, w = check.read_edgelist(paths[0])
    assert len(u) > 0 and np.all(u != v) and w.min() >= 1


def test_rho_scale_constants_follow_the_documented_arithmetic():
    """Each constant is its formula's value rounded up in the fifth digit, so
    the rounds land just above the target rho (floor(2*rho) forests)."""
    eps = workloads.EPSILON
    rho_for, ni_for, round_eps = workloads.rho_scale_for, workloads.ni_rho_scale_for, workloads.round_eps
    expected = {  # name: ((n, m), the --rho-scale of each operation)
        "poly-sparse": ((2500, 150_000), [rho_for(8, 2500, round_eps(2500, 150_000, eps, 1))]),
        "wide-layered": ((1024, 45_600), [rho_for(8, 1024, round_eps(1024, 45_600, eps, 1, windowed=True))]),
        "dense-mincut": (
            (160, 90_000),
            [rho_for(8, 160, round_eps(160, 90_000, eps, 4)), ni_for(25, 160, eps)],
        ),
    }
    assert workloads.rounds(160, 90_000, eps) == 4
    for name, (shape, scales) in expected.items():
        wl = workloads.WORKLOADS[name]
        g = workloads.generate(wl, 0)
        assert (g.n, g.m) == shape
        for op, scale in zip(wl.ops, scales, strict=True):
            got = float(op.argv[op.argv.index("--rho-scale") + 1])
            assert scale <= got <= scale * (1 + 1e-4), (name, op.kind, got, scale)


def _small_pair(n: int, seed: int):
    rng = np.random.default_rng(seed)
    m = 4 * n
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n
    w = rng.integers(1, 50, size=m)
    g = workloads.Graph(n, u, v, w)
    keep = rng.random(m) < 0.6
    hw = w[keep] * rng.uniform(0.5, 2.0, size=int(keep.sum()))
    return g, u[keep], v[keep], hw


def test_cut_family_agrees_with_check_sparsifier_when_it_covers_every_cut():
    n = 5
    g, hu, hv, hw = _small_pair(n, seed=3)
    sides = check.random_sides(n, seed=5)
    masks = {int(sum(((int(s) >> b) & 1) << x for x, s in enumerate(sides))) for b in range(64)}
    full = (1 << n) - 1
    cuts = {min(m, full ^ m) for m in masks if 0 < m < full} | {min(1 << x, full ^ (1 << x)) for x in range(n)}
    assert len(cuts) == 2 ** (n - 1) - 1  # the family is every cut at this n

    ours = check.rel_errors(g, n, hu, hv, hw, seed=5).max()
    g_lib = WeightedGraph.from_edges(n, zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    h_lib = SparseGraph.from_edges(n, zip(hu.tolist(), hv.tolist(), hw.tolist()))
    assert ours == pytest.approx(check_sparsifier(g_lib, h_lib).max_rel_error, rel=1e-12)


def test_cut_family_values_match_library_cut_weights():
    n = 18
    g, hu, hv, hw = _small_pair(n, seed=4)
    sides = check.random_sides(n, seed=9)
    values = check.family_cut_values(n, hu, hv, hw, sides)
    h_lib = SparseGraph.from_edges(n, zip(hu.tolist(), hv.tolist(), hw.tolist()))
    for x in range(n):
        assert values[x] == pytest.approx(cut_weight(h_lib, CutSpec(1 << x)), rel=1e-12)
    for b in range(check.BIPARTITIONS):
        side = sum(((int(s) >> b) & 1) << x for x, s in enumerate(sides))
        if 0 < side < (1 << n) - 1:
            assert values[n + b] == pytest.approx(cut_weight(h_lib, CutSpec(side)), rel=1e-12)
    g_lib = WeightedGraph.from_edges(n, zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    assert check.rel_errors(g, n, hu, hv, hw, seed=9).max() <= check_sparsifier(g_lib, h_lib).max_rel_error + 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_stoer_wagner_matches_library(seed):
    g, _, _, _ = _small_pair(12, seed)
    g_lib = WeightedGraph.from_edges(g.n, zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    assert check.stoer_wagner(g.n, g.u, g.v, g.w) == exact_min_cut(g_lib)[1]


def test_self_times_on_a_hand_built_tree():
    # root [0,10]; a [1,4] with a1 [2,3]; b [5,9] with b1 [5,6] and b2 [6.5,8]
    start = np.array([0.0, 1.0, 2.0, 5.0, 5.0, 6.5])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 8.0])
    parent = np.array([-1, 0, 1, 0, 3, 3])
    got = tracing.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert got.sum() == pytest.approx(10.0)  # self times partition the root


def test_self_times_count_overlapping_children_once_and_clip_them():
    # b [5,9] with overlapping b1 [5,7], b2 [6,8]; c [9.5,11] runs past the root
    start = np.array([0.0, 5.0, 5.0, 6.0, 9.5])
    end = np.array([10.0, 9.0, 7.0, 8.0, 11.0])
    parent = np.array([-1, 0, 1, 1, 0])
    got = tracing.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([10 - 4 - 0.5, 4 - 3, 2.0, 2.0, 1.5])


def _wide_graph() -> WeightedGraph:
    g = workloads.wide_layered(np.random.default_rng(0))
    keep = np.concatenate([np.flatnonzero(g.u // 128 == c)[:200] for c in range(8)])
    keep = np.concatenate([keep, np.flatnonzero(g.u // 128 != g.v // 128)])
    return WeightedGraph.from_edges(g.n, zip(g.u[keep].tolist(), g.v[keep].tolist(), g.w[keep].tolist()))


def test_tracer_sees_every_import_site_and_restores_them(tmp_path):
    msf = sys.modules["cutsparse.msf"]
    sp = sys.modules["cutsparse.sparsify"]  # the package attribute is the function
    before = (msf.msf_packing_bounded, sp.msf_packing_bounded, sp.bottleneck_weights)
    g = _wide_graph()
    cfg = SparsifyConfig(epsilon=0.5, seed=1, rho_scale=1e-8)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        tracer.op(0, sparsify_unbounded_with_report, g, cfg)
    finally:
        tracer.uninstall()
    assert (msf.msf_packing_bounded, sp.msf_packing_bounded, sp.bottleneck_weights) == before

    tracer.save(tmp_path / "spans.npz")
    stats = layers.op_stats(tracing.Spans.load(tmp_path / "spans.npz"), tracer.counts)[0]
    assert stats.windows > 0  # packings called from inside msf_packing_windowed
    assert stats.calls["msf.bottleneck_weights"] >= 2  # set-aside pass + each window pass
    assert stats.counts["dsu.forests"] > 0
    assert layers.self_sum_gap(stats) < 1e-9


def test_missing_hook_is_reported_not_raised(monkeypatch):
    hooks = tracing.SPAN_HOOKS + (("msf.gone", "cutsparse.msf", "no_such_function", None),)
    monkeypatch.setattr(tracing, "SPAN_HOOKS", hooks)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["msf.gone"]
    values, absent = layers.per_layer([layers.OpStats(wall=1.0)], ["msf.msf_packing_bounded"])
    assert "msf.pack_s" in absent and "msf.pack_s" not in values
    assert "graph.load_s" in values


def test_benchmark_json_matches_the_code():
    import json

    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == {k: v[:2] for k, v in layers.PER_LAYER.items()} | {layers.OVERHEAD: ("ratio", "lower")}
    mapped = [name for row in json.loads((HERE / "layer_map.json").read_text())["rows"] for name in row["per_layer"]]
    assert sorted(mapped) == sorted(per_layer)
