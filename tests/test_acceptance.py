"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Practical-mode tolerances
are the locked constants in tests/calibration.py; every randomized check is
seeded and therefore reproducible bit for bit.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

import calibration as cal
from conftest import (
    dumbbell_graph,
    multi_complete_graph,
    random_graph,
    topology_gallery,
)
from reference import (
    binomial_pmf,
    edge_connectivity,
    oracle_binomial_draws,
    oracle_msf_packing,
    rho_scale_for,
    single_round,
)
from cutsparse import (
    CutSpec,
    SparseGraph,
    SparsifyConfig,
    WeightedGraph,
    approx_min_cut,
    cut_weight,
    exact_min_cut,
    msf_packing_bounded,
    save_graph,
    sparsify,
)
from cutsparse.cli import main as cli_main
from cutsparse.msf import OVER, msf_packing_windowed
from cutsparse.oracles import _all_cut_weights
from cutsparse.sampling import RngStream, _binomial
from cutsparse.sparsify import PRACTICAL_RHO, reduce_real_weights, scale_back

EPS = cal.PRACTICAL_EPSILON


def _pass(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({detail})")


def _min_separating_cut(g, queries):
    """Exact min cut weight separating each (u, v) query, via one shared
    enumeration of all cuts of g."""
    n = g.n
    size = 1 << (n - 1)
    weights = _all_cut_weights(g)
    masks = np.arange(size, dtype=np.int64)
    out = []
    for u, v in queries:
        bu = (masks >> u) & 1 if u < n - 1 else np.zeros(size, dtype=np.int64)
        bv = (masks >> v) & 1 if v < n - 1 else np.zeros(size, dtype=np.int64)
        out.append(float(weights[bu != bv].min()))
    return out


def test_criterion_01_msf_oracle_equivalence():
    rng = random.Random(20240)
    t0 = time.perf_counter()
    graphs = 0
    for _ in range(100):
        n = rng.randint(2, 50)
        m = rng.randint(0, 500)
        g = random_graph(n, m, n**4, seed=rng.randrange(1 << 30), connected=False)
        for M in (1, 2, 5, 20):
            a = msf_packing_bounded(g, M).levels
            c = oracle_msf_packing(g, M).levels
            assert a.tolist() == c.tolist(), (n, m, M)
        graphs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"equivalence sweep took {elapsed:.1f}s"
    _pass(1, "msf-oracle-equivalence", f"{graphs} graphs x 4 forest bounds in {elapsed:.1f}s")


def test_criterion_02_leftover_heaviness():
    runs = 0
    checked = 0
    for name, g in topology_gallery()[:5]:
        for seed in range(4):
            cfg = SparsifyConfig(epsilon=EPS, seed=seed, mode="practical")
            _, rep = single_round(g, cfg, capture_levels=True)
            assert not rep.early_out, name
            runs += 1
            ws = g.edge_w.tolist()
            us = g.edge_u.tolist()
            vs = g.edge_v.tolist()
            for level, sets in enumerate(rep.level_sets):
                forests = rep.levels[level]["forests"]
                x_ids = sets["x"]
                x_weights = g.edge_w[x_ids]
                by_weight: dict[int, list[int]] = {}
                for e in sets["y"].tolist():
                    by_weight.setdefault(ws[e], []).append(e)
                for w_star, edge_ids in by_weight.items():
                    filtered = x_ids[x_weights >= w_star]
                    sub = g.subgraph_edges(filtered)
                    queries = [(us[e], vs[e]) for e in edge_ids]
                    mins = _min_separating_cut(sub, queries)
                    for e, found in zip(edge_ids, mins):
                        assert found >= ws[e] * forests, (name, seed, level, e)
                        checked += 1
    assert runs == 20
    _pass(2, "leftover-heaviness", f"{checked} edges across {runs} practical runs, zero violations")


def test_criterion_03_binomial_sampler():
    draws = 100_000
    checked = 1_000
    cells = 0
    worst_p = 1.0
    for n in (5, 10, 50, 64):
        for p in (0.05, 0.3, 0.5, 0.9):
            rng = RngStream(910_000 + n * 100 + int(p * 100))
            sample = _binomial(np.full(draws, float(n)), np.full(draws, p), rng)
            # one uniform per edge: draw i is the exact inversion of the
            # stream's i-th word
            head = oracle_binomial_draws([n] * checked, [p] * checked, rng.seed)
            assert sample[:checked].tolist() == head, (n, p)
            counts = np.bincount(sample.astype(np.int64), minlength=n + 1).tolist()
            assert len(counts) == n + 1
            expected = [draws * binomial_pmf(n, p, k) for k in range(n + 1)]
            obs, exp = [], []
            acc_o = acc_e = 0.0
            for o, e in zip(counts, expected):
                acc_o += o
                acc_e += e
                if acc_e >= 5.0:
                    obs.append(acc_o)
                    exp.append(acc_e)
                    acc_o = acc_e = 0.0
            obs[-1] += acc_o
            exp[-1] += acc_e
            stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
            p_value = float(chi2.sf(stat, df=len(obs) - 1))
            worst_p = min(worst_p, p_value)
            assert p_value > 1e-3, f"n={n} p={p}: chi-square p={p_value:.2e}"
            cells += 1
    _pass(3, "binomial-sampler", f"{cells} grid cells, worst chi-square p={worst_p:.3g}, one uniform per edge")


def test_criterion_04_cut_preservation():
    assert PRACTICAL_RHO == cal.PRACTICAL_TARGET_RHO  # the calibrated operating point
    seeds = 200
    total = 0
    within = 0
    global_max = 0.0
    for name, g in topology_gallery():
        base = _all_cut_weights(g)[1:]
        assert len(base) == 2 ** (g.n - 1) - 1
        # fitted level-count regression: gamma <= log2(m / (c n log2 n / eps^2)) + 2
        gamma_bound = math.log2(g.m / (g.n * math.log2(g.n) / EPS**2)) + 2
        topo_within = 0
        for seed in range(seeds):
            cfg = SparsifyConfig(epsilon=EPS, seed=seed, mode="practical")
            h, rep = single_round(g, cfg)
            assert not rep.early_out, name
            assert rep.gamma <= gamma_bound, (name, seed, rep.gamma)
            err = float(np.abs(_all_cut_weights(h)[1:] / base - 1.0).max())
            global_max = max(global_max, err)
            assert err <= cal.CUT_TOLERANCE_HARD, (name, seed, err)
            topo_within += err <= cal.CUT_TOLERANCE
        assert topo_within >= 0.95 * seeds, (name, topo_within)
        within += topo_within
        total += seeds
    assert within >= 0.95 * total
    _pass(4, "cut-preservation", f"{within}/{total} seeds within eps, max error {global_max:.3f} <= 2*eps")


def test_criterion_05_unbiasedness():
    g = multi_complete_graph(8, 11, 6, seed=77)
    cuts = [CutSpec.from_vertices(s) for s in ([0], [0, 1], [0, 2, 4], [1, 3, 5, 7], [0, 1, 2, 3])]
    true = [cut_weight(g, c) for c in cuts]
    seeds = 10_000
    msf_scale = rho_scale_for(8, EPS, 4.0)
    methods = [
        ("msf", lambda s: single_round(g, SparsifyConfig(epsilon=EPS, seed=s, rho_scale=msf_scale))[0]),
        ("ni", lambda s: sparsify(g, SparsifyConfig(epsilon=EPS, seed=s, method="ni", mode="practical"))[0]),
        ("pipeline", lambda s: sparsify(g, SparsifyConfig(epsilon=EPS, seed=s, method="pipeline", mode="practical"))[0]),
    ]
    worst_z = 0.0
    for method, runner in methods:
        sums = [0.0] * len(cuts)
        sqs = [0.0] * len(cuts)
        sampled = 0
        for seed in range(seeds):
            h = runner(seed)
            sampled += h.m < g.m
            for i, c in enumerate(cuts):
                x = cut_weight(h, c) if h.m else 0.0
                sums[i] += x
                sqs[i] += x * x
        assert sampled == seeds, f"{method} must genuinely sample"
        for i in range(len(cuts)):
            mean = sums[i] / seeds
            var = (sqs[i] - seeds * mean * mean) / (seeds - 1)
            se = math.sqrt(max(var, 1e-12) / seeds)
            z = abs(mean - true[i]) / se
            worst_z = max(worst_z, z)
            assert z <= 3.0, f"{method} cut {i}: mean {mean} vs true {true[i]} (z={z:.2f})"
    _pass(5, "unbiasedness", f"3 methods x 5 cuts x {seeds} seeds, worst |z| = {worst_z:.2f} <= 3")


def test_criterion_06_theory_mode_identity():
    corpus = [
        random_graph(10, 30, 100, seed=1),
        random_graph(100, 800, 10**6, seed=2),
        random_graph(1000, 10_000, 10**9, seed=3),
        random_graph(10_000, 50_000, 1 << 50, seed=4),
        dumbbell_graph(6),
        topology_gallery()[0][1],
    ]
    for g in corpus:
        assert g.n <= 10**4
        cfg = SparsifyConfig(epsilon=EPS, seed=9)
        h, reports = sparsify(g, cfg)
        assert all(r.early_out for r in reports)
        assert h is g
    _pass(6, "theory-mode-identity", f"{len(corpus)} corpus graphs returned as themselves")


def test_criterion_07_size_regression():
    n, m = 1 << 10, 100_000
    g = random_graph(n, m, n**3, seed=42)
    bound = (
        cal.SIZE_CONSTANT
        * n
        * math.log2(n)
        * max(1.0, math.log2(m / (n * math.log2(n) / EPS**2)))
        / EPS**2
    )
    transitions = 0
    shrink_ok = 0
    worst_size = 0
    for seed in range(50):
        cfg = SparsifyConfig(epsilon=EPS, seed=seed, mode="practical")
        h, rep = single_round(g, cfg)
        assert not rep.early_out
        assert h.m <= bound, (seed, h.m, bound)
        worst_size = max(worst_size, h.m)
        for i in range(1, len(rep.levels)):
            transitions += 1
            shrink_ok += rep.levels[i]["x"] <= cal.LEVEL_SHRINK_RATIO * rep.levels[i - 1]["x"]
    assert transitions > 0
    assert shrink_ok >= (1.0 - cal.LEVEL_SHRINK_VIOLATION_BUDGET) * transitions
    _pass(
        7,
        "size-regression",
        f"50 seeds, worst size {worst_size} <= {bound:.0f} (C={cal.SIZE_CONSTANT}), "
        f"{shrink_ok}/{transitions} level transitions shrink by 2/3",
    )


def test_criterion_08_approx_min_cut():
    practical = SparsifyConfig(epsilon=EPS, mode="practical")

    # spec dumbbell: unique wide-gap min cut, identity early-out keeps it exact
    g = dumbbell_graph(6)
    lam = exact_min_cut(g)[1]
    assert lam == 1
    exact_hits = 0
    for seed in range(200):
        cut, value = approx_min_cut(g, replace(practical, seed=seed))
        assert value <= (1 + 2 * EPS) * lam
        exact_hits += value == lam
    assert exact_hits >= 0.99 * 200

    # parallel-edge dumbbell: genuinely sampled, bridge must still win
    g = dumbbell_graph(6, copies=34)
    lam = exact_min_cut(g)[1]
    exercised_hits = 0
    for seed in range(200):
        cut, value = approx_min_cut(g, replace(practical, seed=seed))
        assert value <= (1 + 2 * EPS) * lam
        exercised_hits += value == lam
    assert exercised_hits >= 0.99 * 200

    # random multigraph topologies: approximation ratio on every seed
    worst_ratio = 1.0
    for name, g in topology_gallery()[:3]:
        lam = exact_min_cut(g)[1]
        for seed in range(67):
            cut, value = approx_min_cut(g, replace(practical, seed=seed))
            ratio = value / lam
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 1 + 2 * EPS, (name, seed, ratio)
    _pass(
        8,
        "approx-min-cut",
        f"dumbbells exact on {exact_hits}/200 and {exercised_hits}/200 seeds; "
        f"worst random ratio {worst_ratio:.3f} <= 1+2*eps",
    )


def test_criterion_09_real_weight_reduction():
    rng = random.Random(3131)
    for _ in range(1000):
        n = rng.randint(2, 8)
        m = rng.randint(1, 20)
        edges = []
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))))
        h = SparseGraph.from_edges(n, edges)
        eps = rng.uniform(0.05, 0.95)
        g_int, r = reduce_real_weights(h, eps)
        w_min = min(1.0, min(w for _, _, w in edges))
        grid = math.ldexp(1.0, -r)
        assert grid <= (eps / 2) * w_min
        for (_, _, orig), (_, _, scaled) in zip(edges, g_int.edges()):
            assert abs(scaled * grid - orig) <= grid

    # full real -> integer -> sparsify -> scale-back composition
    rng = random.Random(55)
    n = 10
    edges = []
    for _ in range(1500):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.uniform(0.05, 20.0)))
    g_real = SparseGraph.from_edges(n, edges)
    base = _all_cut_weights(g_real)[1:]
    g_int, r = reduce_real_weights(g_real, EPS)
    within = 0
    worst = 0.0
    for seed in range(200):
        h, _ = single_round(g_int, SparsifyConfig(epsilon=EPS, seed=seed, mode="practical"))
        back = scale_back(h, r)
        err = float(np.abs(_all_cut_weights(back)[1:] / base - 1.0).max())
        worst = max(worst, err)
        within += err <= EPS
    assert within >= 0.95 * 200
    _pass(
        9,
        "real-weight-reduction",
        f"1000 rounding checks exact to the grid; composed pipeline within eps on {within}/200 seeds (max {worst:.3f})",
    )


def test_criterion_10_windowed_estimator():
    rng = random.Random(424242)
    profiles = [
        [1, 7, 1 << 20, (1 << 60) - 3, 1 << 60],
        [1, 2, 3, 1 << 10, (1 << 10) + 1, 1 << 40],
        [5, 6, 30, 31, 900, 901, 1 << 35],
        [1, 3, 9, 100, 10_000, 1 << 25, 1 << 60],
    ]
    checked = 0
    for trial in range(24):
        n = rng.randint(4, 10)
        m = rng.randint(6, 26)
        prof = profiles[trial % len(profiles)]
        edges = []
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.choice(prof)))
        g = WeightedGraph.from_edges(n, edges)
        for M in (2, 4):
            est = msf_packing_windowed(g, M)
            for eid, (u, v, w) in enumerate(g.edges()):
                if not est.covered[eid]:
                    continue
                level = int(est.levels[eid])
                required = M + 1 if level == OVER else level
                qualifying = [
                    (uu, vv, 1) for uu, vv, ww in g.edges() if n * ww >= (n - 1) * w
                ]
                unit = WeightedGraph.from_edges(n, qualifying)
                assert edge_connectivity(unit, u, v) >= required, (trial, eid)
                checked += 1
    assert checked > 300
    _pass(10, "windowed-estimator", f"{checked} covered edges certified, zero violations")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    save_graph(multi_complete_graph(10, 25, 7, seed=5), graph_path)
    small_path = tmp_path / "small.txt"
    save_graph(random_graph(8, 20, 9, seed=6), small_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_graph(random_graph(8, 18, 6, seed=7), corpus / "a.txt")
    save_graph(multi_complete_graph(8, 18, 4, seed=8), corpus / "b.txt")

    outputs = {}
    for run in range(2):
        out = tmp_path / f"sp{run}.txt"
        rc = cli_main(
            ["sparsify", "--input", str(graph_path), "--output", str(out),
             "--epsilon", "0.5", "--seed", "3", "--mode", "practical",
             "--rho-scale", "1e-6"]
        )
        assert rc == 0
        outputs.setdefault("sparsify", []).append(out.read_bytes())

        rc = cli_main(["verify", "--graph", str(small_path), "--sparsifier", str(small_path)])
        assert rc == 0
        outputs.setdefault("verify", []).append(capsys.readouterr().out)

        rc = cli_main(["mincut", "--input", str(small_path), "--epsilon", "0.5", "--seed", "4"])
        assert rc == 0
        outputs.setdefault("mincut", []).append(capsys.readouterr().out)

        rc = cli_main(["msf", "--input", str(small_path), "--levels", "3"])
        assert rc == 0
        outputs.setdefault("msf", []).append(capsys.readouterr().out)

        rc = cli_main(
            ["bench", "--corpus", str(corpus), "--methods", "msf,ni",
             "--seeds", "1,2", "--epsilon", "0.5", "--mode", "practical"]
        )
        assert rc == 0
        rows = [
            line.rsplit(",", 1)[0]  # wall-clock column is exempt
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        outputs.setdefault("bench", []).append(rows)

    for command, (first, second) in outputs.items():
        assert first == second, f"{command} output differs between identical runs"
    _pass(11, "cli-determinism", "5 subcommands byte-identical across repeat runs (timing fields exempt)")


def _perf_graph(n: int, m: int, seed: int) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m + m // 8, dtype=np.int64)
    v = rng.integers(0, n, size=m + m // 8, dtype=np.int64)
    keep = u != v
    u, v = u[keep][:m], v[keep][:m]
    assert len(u) == m
    w = rng.integers(1, n**3 + 1, size=m, dtype=np.int64)
    return WeightedGraph(n, u, v, w)


def test_criterion_12_performance_smoke():
    n, m = 100_000, 2_000_000
    g = _perf_graph(n, m, seed=1)

    # the spec'd practical default (rho = 8) takes the early-out on this shape
    t0 = time.perf_counter()
    h, rep = single_round(g, SparsifyConfig(epsilon=EPS, seed=7, mode="practical"))
    t_default = time.perf_counter() - t0
    assert rep.early_out
    assert t_default < cal.PERF_BUDGET_SECONDS

    # and a genuinely exercised run (rho = 4) must also fit the budget
    t0 = time.perf_counter()
    h, rep = single_round(
        g, SparsifyConfig(epsilon=EPS, seed=7, rho_scale=rho_scale_for(n, EPS, 4.0))
    )
    t_exercised = time.perf_counter() - t0
    assert not rep.early_out
    assert h.m < g.m
    assert t_exercised < cal.PERF_BUDGET_SECONDS
    _pass(
        12,
        "performance-smoke",
        f"n=1e5 m=2e6: default {t_default:.2f}s (early-out), exercised {t_exercised:.2f}s "
        f"< {cal.PERF_BUDGET_SECONDS:.0f}s budget",
    )
