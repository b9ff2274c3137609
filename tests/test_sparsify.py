import hashlib
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutsparse import (
    MAX_WEIGHT,
    CutSpec,
    LevelOverflowError,
    SparseGraph,
    SparsifyConfig,
    WeightedGraph,
    approx_min_cut,
    check_sparsifier,
    cut_weight,
    msf_packing_bounded,
    sparsify,
)
from cutsparse.msf import OVER
from cutsparse.ni import preprocess_rho
from cutsparse.sampling import RngStream
from cutsparse.sparsify import (
    MAX_RHO_SCALE,
    METHODS,
    MIN_EPSILON,
    MODES,
    early_out_threshold,
    log_star2,
    reduce_real_weights,
    rho,
    scale_back,
)

from conftest import (
    dumbbell_graph,
    multi_complete_graph,
    random_graph,
    topology_gallery,
    wide_range_graph,
)
from reference import rho_scale_for, single_round


def practical_cfg(g, epsilon=0.5, seed=0, target_rho=None, **kw):
    """Practical mode (rho = 8), or a theory config pinned at target_rho."""
    if target_rho is None:
        return SparsifyConfig(epsilon=epsilon, seed=seed, mode="practical", **kw)
    scale = rho_scale_for(g.n, epsilon, target_rho)
    return SparsifyConfig(epsilon=epsilon, seed=seed, rho_scale=scale, **kw)


class TestRho:
    def test_formula_value(self):
        # ln(n) = 1 at n = e: 8 * 1352 / 0.38
        assert rho(math.e, 1.0) == pytest.approx(8 * 1352 / 0.38)
        assert rho(math.e, 1.0) == pytest.approx(28463.157894736843)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            rho(1, 0.5)


class TestConfig:
    def test_validation(self):
        for method in METHODS:
            SparsifyConfig(epsilon=0.5, method=method)
            for epsilon in (1.5, 0.0):
                with pytest.raises(ValueError):
                    SparsifyConfig(epsilon=epsilon, method=method)
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=0.5, rho_scale=0.0)
        for scale in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                SparsifyConfig(epsilon=0.5, rho_scale=scale)
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=0.5, method="weird")
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=0.5, mode="weird")
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=0.5, mode="practical", rho_scale=0.5)

    def test_valid_by_construction(self):
        # building a config, or replacing a field, checks it
        cfg = SparsifyConfig(epsilon=0.5)
        with pytest.raises(ValueError, match="epsilon"):
            SparsifyConfig(epsilon=1.5)
        with pytest.raises(ValueError, match="epsilon"):
            replace(cfg, epsilon=1.5)
        with pytest.raises(ValueError, match="theory mode"):
            replace(SparsifyConfig(epsilon=0.5, mode="practical"), rho_scale=0.5)

    def test_epsilon_floor(self):
        # below the floor eps^2 underflows to 0, and the round count or rho
        # divides by it
        for epsilon in (1e-160, 1e-200):
            with pytest.raises(ValueError, match="epsilon must be at least 1e-100,"):
                SparsifyConfig(epsilon=epsilon)
        # pipeline's msf stage runs at a third of epsilon, which has the floor
        with pytest.raises(ValueError, match="epsilon must be at least 3e-100,"):
            SparsifyConfig(epsilon=2e-100, method="pipeline")
        # at the floor every method runs with a finite rho, and theory mode's
        # rho keeps every edge
        g = random_graph(8, 20, 9, seed=1)
        for method, epsilon in (("msf", MIN_EPSILON), ("ni", MIN_EPSILON), ("pipeline", 3.0 * MIN_EPSILON)):
            for mode in ("theory", "practical"):
                h, reports = sparsify(g, SparsifyConfig(epsilon=epsilon, method=method, mode=mode))
                assert all(0.0 < r.rho < math.inf for r in reports)
                assert np.isfinite(h.edge_w).all()
                if mode == "theory":
                    assert h is g

    def test_rho_scale_ceiling(self):
        with pytest.raises(ValueError, match=r"positive and finite, at most 1e\+70, got 1e\+308"):
            SparsifyConfig(epsilon=0.5, rho_scale=1e308)
        # at the ceiling the msf rho, the NI rho and the threshold on either
        # stay finite: at the largest n and the smallest precision, and where
        # the threshold's log factor is largest
        for n, m, epsilon in ((MAX_WEIGHT, MAX_WEIGHT, MIN_EPSILON / 2**10), (2, MAX_WEIGHT, 0.999)):
            for r in (rho(n, epsilon, MAX_RHO_SCALE), preprocess_rho(n, epsilon, MAX_RHO_SCALE)):
                assert math.isfinite(r)
                assert math.isfinite(early_out_threshold(n, m, epsilon, r))
        # and every method's report stays valid JSON
        g = random_graph(8, 20, 9, seed=1)
        for method in METHODS:
            epsilon = 3.0 * MIN_EPSILON if method == "pipeline" else MIN_EPSILON
            cfg = SparsifyConfig(epsilon=epsilon, rho_scale=MAX_RHO_SCALE, method=method)
            for report in sparsify(g, cfg)[1]:
                json.dumps(report.to_dict(), allow_nan=False)

    def test_log_star(self):
        assert log_star2(0.5) == 0
        assert log_star2(2.0) == 1
        assert log_star2(16.0) == 3
        assert log_star2(2.0**16) == 4


class TestEarlyOut:
    def test_early_out_is_its_reason(self):
        # the golden case sparsify-msf-early-out-between-samples: sampled,
        # early out, sampled
        g = multi_complete_graph(10, 30, 8, seed=2)
        _, reports = sparsify(g, SparsifyConfig(epsilon=0.5, seed=7, rho_scale=3e-7))
        assert [rep.early_out for rep in reports] == [False, True, False]
        for rep in reports:
            assert rep.early_out == (rep.early_out_reason is not None)
            assert rep.to_dict()["early_out"] is rep.early_out
        with pytest.raises(AttributeError):
            reports[0].early_out = True

    def test_threshold_formula(self):
        # the clamped log keeps the bound at 4*rho*n when the ratio dips under 1
        assert early_out_threshold(10, 5, 0.5, 2.0) == pytest.approx(80.0)
        big_m = 10 * int(math.log2(10) / 0.25) * 8
        assert early_out_threshold(10, big_m, 0.5, 2.0) > 80.0



# Seeds of the pipeline's NI pass and of its msf round at SparsifyConfig(seed=3).
_NI3 = 4247072778820483831
_MSF3 = 2812530301099909221
_MSF_OUT = "m=0 <= threshold 0"


class TestDegenerateRounds:
    """Every round's report on a graph with nothing to sample, one vertex or
    five isolated ones, locked field by field (less timings_ms).  Every round
    reports its rho once n >= 2; threshold stays 0 on an msf round without
    edges, so no report writes Infinity."""

    # (n, method, mode) -> per round: method, epsilon, epsilon_effective,
    # seed, rho_scale, rho, threshold, early_out_reason
    EXPECTED = {
        (1, "msf", "theory"): [("msf", 0.5, 0.125, 3, 1.0, 0.0, 0.0, _MSF_OUT)],
        (1, "msf", "practical"): [("msf", 0.5, 0.125, 3, 1.0, 0.0, 0.0, _MSF_OUT)],
        (1, "ni", "theory"): [("ni", 0.5, 0.5, 3, 1.0, 0.0, 0.0, "every NI index <= rho 0")],
        (1, "ni", "practical"): [("ni", 0.5, 0.5, 3, 1.0, 0.0, 0.0, "every NI index <= rho 0")],
        (1, "pipeline", "theory"): [
            ("ni", 0.5, 1 / 6, _NI3, 1.0, 0.0, 0.0, "every NI index <= rho 0"),
            ("msf", 1 / 6, 1 / 24, _MSF3, 1.0, 0.0, 0.0, _MSF_OUT),
        ],
        (1, "pipeline", "practical"): [
            ("ni", 0.5, 1 / 6, _NI3, 1.0, 0.0, 0.0, "every NI index <= rho 0"),
            ("msf", 1 / 6, 1 / 24, _MSF3, 1.0, 0.0, 0.0, _MSF_OUT),
        ],
        (5, "msf", "theory"): [("msf", 0.5, 0.125, 3, 1.0, 2931819.8670967966, 0.0, _MSF_OUT)],
        (5, "msf", "practical"): [
            ("msf", 0.5, 0.125, 3, 2.728680602032319e-06, 8.0, 0.0, _MSF_OUT)
        ],
        (5, "ni", "theory"): [
            ("ni", 0.5, 0.5, 3, 1.0, 3794.8851830025105, 3794.8851830025105,
             "every NI index <= rho 3794.89")
        ],
        (5, "ni", "practical"): [
            ("ni", 0.5, 0.5, 3, 0.00658781459633517, 25.0, 25.0, "every NI index <= rho 25")
        ],
        (5, "pipeline", "theory"): [
            ("ni", 0.5, 1 / 6, _NI3, 1.0, 34153.9666470226, 34153.9666470226,
             "every NI index <= rho 34154"),
            ("msf", 1 / 6, 1 / 24, _MSF3, 1.0, 26386378.80387117, 0.0, _MSF_OUT),
        ],
        (5, "pipeline", "practical"): [
            ("ni", 0.5, 1 / 6, _NI3, 0.0007319793995927965, 25.0, 25.0,
             "every NI index <= rho 25"),
            ("msf", 1 / 6, 1 / 24, _MSF3, 3.031867335591465e-07, 8.0, 0.0, _MSF_OUT),
        ],
    }

    @pytest.mark.parametrize("n, method, mode", sorted(EXPECTED))
    def test_reports_locked(self, n, method, mode):
        cfg = SparsifyConfig(epsilon=0.5, seed=3, method=method, mode=mode)
        h, reports = sparsify(WeightedGraph.from_edges(n, []), cfg)
        assert (h.n, h.m) == (n, 0)
        expected = [
            {
                "n": n, "m": 0, "w_max": 0, "epsilon": eps, "epsilon_effective": eps_eff,
                "seed": seed, "rho_scale": scale, "regime": "polynomial",
                "rho": rho_val, "early_out": True, "early_out_reason": reason,
                "set_aside_count": 0, "method": kind, "threshold": threshold,
                "levels": [], "gamma": 0, "output_size": 0,
            }
            for kind, eps, eps_eff, seed, scale, rho_val, threshold, reason
            in self.EXPECTED[n, method, mode]
        ]
        got = [r.to_dict() for r in reports]
        # the pipeline's msf round rounds the NI output first
        msf_stages = {"reduce", "total"} if method == "pipeline" else {"total"}
        stages = {"msf": msf_stages, "ni": {"indices", "compression", "total"}}
        assert [set(d.pop("timings_ms")) for d in got] == [stages[d["method"]] for d in got]
        assert got == expected

class TestSparsifyOnce:
    def test_practical_rho_is_exactly_8(self):
        # rho(12, 0.5, 1, 8 / rho(12, 0.5)) is 7.999999999999999, whose floor(2 rho)
        # would pack 15 forests
        g = multi_complete_graph(12, 30, 8, seed=3)
        _, rep = single_round(g, practical_cfg(g, seed=1))
        assert rep.rho == 8.0
        assert rep.levels[0]["forests"] == 16
        assert rep.levels[1]["forests"] == 32

    def test_timings_cover_every_stage(self):
        g = multi_complete_graph(12, 30, 8, seed=3)
        for unbounded in (False, True):
            _, rep = single_round(g, practical_cfg(g, seed=1), unbounded=unbounded)
            assert not rep.early_out
            assert rep.early_out_reason is None
            stages = {"packing", "sampling", "compression", "assembly", "total"}
            # the unbounded regime's bottleneck passes, summed over its levels
            bottleneck = {"bottleneck"} if unbounded else set()
            assert set(rep.timings_ms) == stages | bottleneck
            t = rep.timings_ms
            if unbounded:
                assert 0 < t["bottleneck"] <= t["packing"]

    @pytest.mark.parametrize("method", ["ni", "pipeline"])
    def test_ni_round_timings_add_up(self, method):
        g = multi_complete_graph(12, 30, 8, seed=3)
        _, reports = sparsify(g, SparsifyConfig(epsilon=0.5, seed=1, method=method))
        rep = reports[0]
        assert rep.method == "ni"
        t = rep.timings_ms
        assert set(t) == {"indices", "compression", "total"}
        assert 0 < t["indices"] + t["compression"] <= t["total"]

    def test_exercised_run_shrinks_and_preserves_cuts(self):
        g = multi_complete_graph(12, 30, 8, seed=3)  # m = 1980
        cfg = practical_cfg(g, seed=11)
        h, rep = single_round(g, cfg)
        assert not rep.early_out
        assert rep.gamma >= 1
        assert h.m < g.m
        report = check_sparsifier(g, h)
        assert report.max_rel_error <= 2 * cfg.epsilon

    def test_larger_graph_shrinks(self):
        # n=64, m=1500 at rho = 4: real sampling, sampled cuts stay sane
        g = random_graph(64, 1500, 100, seed=5)
        cfg = practical_cfg(g, target_rho=4.0, seed=7)
        h, rep = single_round(g, cfg)
        assert not rep.early_out
        assert h.m < g.m
        rng = np.random.default_rng(0)
        for _ in range(50):
            side = [v for v in range(g.n) if rng.random() < 0.5]
            if 0 < len(side) < g.n:
                cut = CutSpec.from_vertices(side)
                assert cut_weight(h, cut) == pytest.approx(
                    cut_weight(g, cut), rel=2 * cfg.epsilon
                )

    def test_level_structure_invariants(self):
        g = multi_complete_graph(8, 40, 6, seed=6)  # m = 1120
        cfg = practical_cfg(g, target_rho=4.0, seed=13)
        h, rep = single_round(g, cfg, capture_levels=True)
        assert not rep.early_out
        assert len(rep.level_sets) == rep.gamma + 1
        for i, sets in enumerate(rep.level_sets):
            x, f, y = sets["x"], sets["f"], sets["y"]
            assert set(f.tolist()) <= set(x.tolist())
            assert sorted(f.tolist() + y.tolist()) == sorted(x.tolist())
            if i > 0:
                prev_y = rep.level_sets[i - 1]["y"]
                assert set(x.tolist()) <= set(prev_y.tolist())
            # F_i is exactly the packing of (V, X_i) with the level's forest count
            sub = g.subgraph_edges(x)
            packing = msf_packing_bounded(sub, rep.levels[i]["forests"])
            expected_f = x[packing.levels != OVER]
            assert expected_f.tolist() == sorted(f.tolist())

    def test_gamma_guard_trips(self, levels_never_shrink):
        g = multi_complete_graph(8, 40, 4, seed=8)
        cfg = practical_cfg(g, target_rho=2.0, seed=19)
        with pytest.raises(LevelOverflowError, match=f"guard {g.m.bit_length() + 64} "):
            single_round(g, cfg)


class TestSparsifyWrapper:
    def test_single_round_when_ratio_small(self):
        g = random_graph(30, 60, 10, seed=9)
        h, reports = sparsify(g, SparsifyConfig(epsilon=0.9, seed=1))
        assert len(reports) == max(1, log_star2(60 / (30 * math.log2(30) / 0.81)))

    def test_epsilon_schedule_products(self):
        # round budgets eps/2^(k-i+2) telescope inside (1-eps, 1+eps)
        eps, k = 0.5, 6
        upper = math.prod(1 + eps / 2 ** (k - i + 2) for i in range(1, k + 1))
        lower = math.prod(1 - eps / 2 ** (k - i + 2) for i in range(1, k + 1))
        assert upper <= 1.5
        assert upper <= 1 + eps
        assert lower >= 1 - eps

    def test_auto_regime_settled_on_the_input(self):
        # the reduction multiplies each round's weights by 2^r, so re-checking
        # W > n^4 per round would switch late rounds to the unbounded path
        for name, g in topology_gallery():
            assert g.max_weight() <= g.n**4
            for seed in range(3):
                cfg = SparsifyConfig(epsilon=0.5, seed=seed, mode="practical")
                _, reports = sparsify(g, cfg)
                assert len(reports) > 1, name
                assert [r.regime for r in reports] == ["polynomial"] * len(reports), (name, seed)

    def test_every_rounding_is_timed(self):
        g = multi_complete_graph(12, 30, 8, seed=101)
        _, reports = sparsify(g, SparsifyConfig(epsilon=0.5, seed=1, mode="practical"))
        assert len(reports) == 3
        # round 1 takes the integer input as it is; the others round theirs
        assert ["reduce" in r.timings_ms for r in reports] == [False, True, True]

    def test_practical_mode_runs_every_round_at_rho_8(self):
        g = multi_complete_graph(12, 30, 8, seed=101)
        _, reports = sparsify(g, SparsifyConfig(epsilon=0.5, seed=1, mode="practical"))
        assert len(reports) == 3
        assert [r.rho for r in reports] == pytest.approx([8.0] * 3)
        assert not reports[0].early_out


class TestReduceRealWeights:
    def test_integer_weights_epsilon_half(self):
        h = SparseGraph.from_edges(3, [(0, 1, 3.0), (1, 2, 7.0)])
        g, r = reduce_real_weights(h, 0.5)
        assert r == 2
        assert [w for _, _, w in g.edges()] == [12, 28]

    def test_fractional_example(self):
        h = SparseGraph.from_edges(2, [(0, 1, 0.3)])
        g, r = reduce_real_weights(h, 0.5)
        assert r == 4
        assert g.edges() == [(0, 1, 5)]

    def test_exact_multiples_round_trip(self):
        h = SparseGraph.from_edges(2, [(0, 1, 0.3125)])  # 5/16, r = 4
        g, r = reduce_real_weights(h, 0.5)
        assert r == 4
        back = scale_back(
            SparseGraph(g.n, g.edge_u, g.edge_v, g.edge_w.astype(float)), r
        )
        assert back.edges() == h.edges()

    def test_per_edge_error_bound(self):
        import random as _random

        rng = _random.Random(12)
        for _ in range(50):
            n = 6
            edges = [
                (0, i, rng.uniform(0.01, 50.0)) for i in range(1, n)
            ]
            h = SparseGraph.from_edges(n, edges)
            eps = rng.uniform(0.05, 0.9)
            g, r = reduce_real_weights(h, eps)
            w_min = min(1.0, min(w for _, _, w in edges))
            assert math.ldexp(1.0, -r) <= (eps / 2) * w_min
            for (_, _, orig), (_, _, scaled) in zip(edges, g.edges()):
                assert abs(scaled * math.ldexp(1.0, -r) - orig) <= math.ldexp(1.0, -r)

    @pytest.mark.parametrize(
        "w_max, r", [(2.0**60 - 2.0**8, 3), (2.0**60, 2)], ids=["below-2^60", "2^60"]
    )
    def test_heavy_weights_cap_the_exponent(self, w_max, r):
        # eps/2 = 1/16 asks for r = 4, which would carry w_max past 2^63 - 1
        h = SparseGraph.from_edges(3, [(0, 1, 2.0**59), (1, 2, w_max)])
        g, r_got = reduce_real_weights(h, 0.125)
        assert r_got == r
        assert [w for _, _, w in g.edges()] == [2**59 << r, int(w_max) << r]

    def test_rejects_a_range_too_wide_for_63_bits(self):
        # 2^62 caps r at 0, whose grid step 1 exceeds (eps/2) * 1
        h = SparseGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0**62)])
        with pytest.raises(ValueError, match="63 bits"):
            reduce_real_weights(h, 0.5)

    def test_matches_the_per_edge_rounding(self):
        # the vectorised floor(ldexp(w, r) + 0.5) against the math version
        rng = np.random.default_rng(5)
        w = np.concatenate([rng.uniform(0.01, 1e6, 5000), 2.0 ** rng.uniform(-6, 40, 5000)])
        u = rng.integers(0, 50, w.size)
        h = SparseGraph.from_arrays(51, u, u + 1, w)
        g, r = reduce_real_weights(h, 0.3)
        expected = [math.floor(math.ldexp(x, r) + 0.5) for x in w.tolist()]
        digest = lambda ints: hashlib.sha256(np.array(ints, dtype=np.int64).tobytes()).hexdigest()
        assert digest(g.edge_w) == digest(expected)
        assert g.edge_u.tolist() == u.tolist()

    def test_rejects_a_nan_weight(self):
        # the dataclass constructor skips the checks of from_arrays
        h = SparseGraph(2, np.array([0]), np.array([1]), np.array([math.nan]))
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            reduce_real_weights(h, 0.5)

    def test_integer_graph_reads_as_its_float64_copy(self):
        # past 2^53 the int64 weights cast to float64 with the rounding a
        # float64 copy of the graph makes
        heavy = [2**53 + 1, 2**55 + 3, 2**60 - 1]
        g = WeightedGraph.from_edges(4, [(0, 1, heavy[0]), (1, 2, heavy[1]), (2, 3, heavy[2])])
        copy = SparseGraph.from_arrays(g.n, g.edge_u, g.edge_v, g.edge_w)
        assert g.edges() != copy.edges()
        for eps in (0.5, 0.9):
            assert reduce_real_weights(g, eps) == reduce_real_weights(copy, eps)
        for r in (-3, 0, 5):
            assert scale_back(g, r) == scale_back(copy, r)
        # a range too wide for 63 bits is refused on both
        wide = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, MAX_WEIGHT)])
        for h in (wide, SparseGraph.from_arrays(wide.n, wide.edge_u, wide.edge_v, wide.edge_w)):
            with pytest.raises(ValueError, match="63 bits"):
                reduce_real_weights(h, 0.5)

    def test_rejects_bad_epsilon(self):
        h = SparseGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            reduce_real_weights(h, 0.0)
        with pytest.raises(ValueError):
            reduce_real_weights(h, 1.0)


class TestUnbounded:
    def test_no_set_aside_equals_once_at_scaled_epsilon(self):
        g = multi_complete_graph(8, 15, 1, seed=13)  # uniform weights, m = 420
        eps = 0.5
        scale = rho_scale_for(g.n, eps / math.sqrt(2), 1.5)
        cfg = SparsifyConfig(epsilon=eps, seed=23, rho_scale=scale)
        h_unbounded, rep = single_round(g, cfg, unbounded=True)
        assert rep.set_aside_count == 0
        cfg_poly = replace(cfg, epsilon=eps / math.sqrt(2))
        h_once, _ = single_round(g, cfg_poly)
        assert h_unbounded.edges() == h_once.edges()

    def test_bridge_between_cliques_not_set_aside(self):
        # bridge is a forest edge: d = w, and w <= w/n never holds
        g = dumbbell_graph(6)
        scale = rho_scale_for(g.n, 0.5 / math.sqrt(2), 0.4)
        cfg = SparsifyConfig(epsilon=0.5, seed=1, rho_scale=scale)
        _, rep = single_round(g, cfg, unbounded=True)
        assert rep.set_aside_count == 0

    def test_heavy_clique_with_light_chord_sets_aside(self):
        heavy = 1 << 60
        edges = [
            (u, v, heavy) for u in range(8) for v in range(u + 1, 8)
        ]
        edges.append((0, 1, 1))  # light chord, d = 2^60
        g = WeightedGraph.from_edges(8, edges)
        scale = rho_scale_for(g.n, 0.5 / math.sqrt(2), 0.8)
        cfg = SparsifyConfig(epsilon=0.5, seed=2, rho_scale=scale)
        h, rep = single_round(g, cfg, unbounded=True)
        assert not rep.early_out
        assert rep.set_aside_count == 1
        # p = (384/169)/2^60 makes the chord vanish for any realistic seed
        assert all(w != 1.0 or (u, v) != (0, 1) for u, v, w in h.edges())

    def test_one_bottleneck_pass_per_level(self, monkeypatch):
        import cutsparse.msf as msf_mod

        g = multi_complete_graph(12, 30, 1 << 40, seed=3)  # light edges among heavy ones
        calls = []
        real = msf_mod.bottleneck_weights
        monkeypatch.setattr(msf_mod, "bottleneck_weights", lambda h: calls.append(h.m) or real(h))
        _, rep = single_round(g, practical_cfg(g, seed=4), unbounded=True)
        assert len(rep.levels) >= 2
        # level 0 estimates the whole input; its uncovered edges are the set-aside
        assert calls[0] == g.m
        assert len(calls) == len(rep.levels)
        uncovered = int((~msf_mod.msf_packing_windowed(g, 1).covered).sum())
        assert rep.set_aside_count == uncovered > 0


class TestNiRound:
    def test_practical_rho_is_exactly_25(self):
        # at n = 2, eps = 0.5 the scale's round trip lands at 24.999999999999996,
        # where an index-25 edge would get p < 1 and weight r / p != 25
        g = WeightedGraph.from_edges(2, [(0, 1, 25)])
        h, (rep,) = sparsify(g, SparsifyConfig(epsilon=0.5, method="ni", mode="practical"))
        assert rep.rho == 25.0
        assert rep.early_out
        assert rep.early_out_reason == "every NI index <= rho 25"
        assert h.edges() == [(0, 1, 25.0)]


class TestPipeline:
    def test_one_scale_back_undoes_every_rounding(self):
        # NI samples at this rho_scale, so its output weights are not dyadic,
        # and every msf round takes the early out: the output is the NI
        # output rounded at each round's precision, then scaled back once
        g = multi_complete_graph(6, 80, 5, seed=1)
        cfg = SparsifyConfig(epsilon=0.9, seed=1, rho_scale=0.01, method="pipeline")
        h, reports = sparsify(g, cfg)
        eps3 = cfg.epsilon / 3
        ni_seed = RngStream(cfg.seed).child("pipeline-preprocess").seed
        pre, _ = sparsify(g, replace(cfg, epsilon=eps3, seed=ni_seed, method="ni"))
        k = max(1, log_star2(pre.m / (pre.n * math.log2(pre.n) / eps3**2)))
        assert k >= 2
        assert [r.method for r in reports] == ["ni"] + ["msf"] * k
        assert all(r.early_out and "reduce" in r.timings_ms for r in reports[1:])
        current, exponents = pre, []
        for eps in [eps3] + [eps3 / 2 ** (k - i + 2) for i in range(2, k + 1)]:
            g_int, r = reduce_real_weights(current, eps)
            current = SparseGraph.from_arrays(g_int.n, g_int.edge_u, g_int.edge_v, g_int.edge_w)
            exponents.append(r)
        assert len(set(exponents)) > 1
        expected = scale_back(current, sum(exponents))
        assert not np.array_equal(expected.edge_w, pre.edge_w)  # the rounding shows
        assert np.array_equal(h.edge_u, pre.edge_u) and np.array_equal(h.edge_v, pre.edge_v)
        assert h.edge_w.tobytes() == expected.edge_w.tobytes()

    def test_cut_preservation_practical_mode(self):
        # n=12: all cuts within the calibrated tolerance on >= 95% of seeds
        from cutsparse.oracles import _all_cut_weights

        eps = 0.5
        g = multi_complete_graph(12, 30, 8, seed=101)
        base = _all_cut_weights(g)[1:]
        within = 0
        for seed in range(200):
            cfg = SparsifyConfig(epsilon=eps, seed=seed, method="pipeline", mode="practical")
            h, _ = sparsify(g, cfg)
            err = float(np.abs(_all_cut_weights(h)[1:] / base - 1.0).max())
            within += err <= eps
        assert within >= 0.95 * 200, within


class TestWeightRangeRefusal:
    """A round whose input does not round into 63 bits returns that input
    unchanged with an early-out report; a skipped round adds no error."""

    @pytest.mark.parametrize("mode", ["theory", "practical"])
    @pytest.mark.parametrize("method", ["msf", "pipeline"])
    def test_refused_round_is_skipped(self, method, mode):
        g = wide_range_graph()
        h, reports = sparsify(g, SparsifyConfig(epsilon=0.5, method=method, mode=mode))
        assert check_sparsifier(g, h).max_rel_error < 0.5
        first, refused = reports
        assert first.method == ("msf" if method == "msf" else "ni")
        assert refused.method == "msf" and refused.early_out
        assert refused.early_out_reason == "weight range too wide to round into 63 bits at this epsilon"
        assert refused.m == refused.output_size == first.output_size
        assert set(refused.timings_ms) == {"total"}

    def test_each_skipped_round_reports_its_own_precision(self):
        # 1,200 unit parallels leave the pipeline's NI output dense enough
        # for several msf rounds, each of which the 63-bit rounding refuses
        g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, (1 << 63) - 1)] + [(0, 1, 1)] * 1200)
        cfg = SparsifyConfig(epsilon=0.5, method="pipeline")
        h, reports = sparsify(g, cfg)
        eps3 = cfg.epsilon / 3
        ni_seed = RngStream(cfg.seed).child("pipeline-preprocess").seed
        pre, _ = sparsify(g, replace(cfg, epsilon=eps3, seed=ni_seed, method="ni"))
        assert h.edges() == pre.edges()
        assert h.edge_w.tobytes() == pre.edge_w.tobytes()

        k = max(1, log_star2(pre.m / (3 * math.log2(3) / eps3**2)))
        assert k >= 2
        assert [r.method for r in reports] == ["ni"] + ["msf"] * k
        budgets = [eps3 / 2 ** (k - i + 2) for i in range(1, k + 1)]
        for rep, eps in zip(reports[1:], [budgets[0]] + [b / 2 for b in budgets[1:]]):
            eps_eff = eps / math.sqrt(2.0)  # W > n^4: the unbounded regime
            assert rep.early_out and rep.regime == "unbounded"
            assert rep.early_out_reason == "weight range too wide to round into 63 bits at this epsilon"
            assert rep.epsilon_effective == pytest.approx(eps_eff, rel=1e-12)
            assert rep.rho == pytest.approx(rho(3, eps_eff), rel=1e-12)
            assert rep.m == rep.output_size == pre.m

    def test_only_the_refusal_is_caught(self, monkeypatch):
        def broken(g_real, epsilon):
            raise ValueError("not a weight-range refusal")

        # the package attribute `cutsparse.sparsify` is the function
        monkeypatch.setattr(sys.modules["cutsparse.sparsify"], "reduce_real_weights", broken)
        for method in ("msf", "pipeline"):
            with pytest.raises(ValueError, match="not a weight-range refusal"):
                sparsify(wide_range_graph(), SparsifyConfig(epsilon=0.5, method=method))


class TestApproxMinCut:
    def test_disconnected_returns_zero(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 5), (2, 3, 5)])
        cut, value = approx_min_cut(g, SparsifyConfig(epsilon=0.5, seed=3))
        assert value == 0.0


@st.composite
def early_out_graphs(draw, m_range, weights):
    """(g, eps): g on n in [2, 12] vertices with m edges, m in the range
    m_range(n, eps) gives for the eps in [0.5, 0.99] drawn with it, and
    weights drawn from `weights`."""
    n = draw(st.integers(2, 12))
    eps = draw(st.floats(0.5, 0.99))
    m = draw(st.integers(*m_range(n, eps)))
    edges = []
    for _ in range(m):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        edges.append((u, v + (v >= u), draw(weights)))
    return WeightedGraph.from_edges(n, edges), eps


def _msf_edges(rounds):
    """m for a run of one round (k = 1: m <= 2 n log2(n) / eps^2) or of
    several; at most 32 n, so every round, at rho >= 8, is under its
    threshold of at least 4 * rho * n."""

    def m_range(n, eps):
        split = math.floor(2 * n * math.log2(n) / eps**2)
        return (1, split) if rounds == "one" else (split + 1, 32 * n)

    return m_range


class TestEarlyOutReturnsItsInput:
    """A run whose every report is an early out returns its input object."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rounds", ["one", "several"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_msf(self, data, rounds, mode):
        weights = st.one_of(st.sampled_from([1, 2**53 + 1, MAX_WEIGHT]), st.integers(1, MAX_WEIGHT))
        g, eps = data.draw(early_out_graphs(_msf_edges(rounds), weights))
        h, reports = sparsify(g, SparsifyConfig(epsilon=eps, seed=data.draw(st.integers(0, 9)), mode=mode))
        assert (len(reports) == 1) == (rounds == "one")
        assert all(r.early_out for r in reports)
        assert h is g

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("method", ["ni", "pipeline"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_ni_keeping_every_edge(self, data, method, mode):
        # every NI index is at most the total weight, here at most 5 * 5, and
        # an NI pass runs at rho >= 25: it keeps every edge
        g, eps = data.draw(early_out_graphs(lambda n, eps: (1, 5), st.integers(1, 5)))
        cfg = SparsifyConfig(epsilon=eps, seed=data.draw(st.integers(0, 9)), method=method, mode=mode)
        h, reports = sparsify(g, cfg)
        assert all(r.early_out for r in reports)
        assert h is g


class TestOutputColumns:
    @pytest.mark.parametrize(
        "g, cfg",
        [
            (random_graph(8, 20, 9, seed=1), SparsifyConfig(epsilon=0.5)),
            (multi_complete_graph(10, 30, 8, seed=2), SparsifyConfig(epsilon=0.5, mode="practical")),
            (
                multi_complete_graph(10, 30, 8, seed=2),
                SparsifyConfig(epsilon=0.5, method="pipeline", mode="practical"),
            ),
        ],
        ids=["early-out-identity", "msf-scaled-back", "pipeline"],
    )
    def test_every_column_is_read_only(self, g, cfg):
        h, _ = sparsify(g, cfg)
        for column in (h.edge_u, h.edge_v, h.edge_w):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
