"""The sparsifier: level sampling with forest packings, edge compression,
the iterated wrapper, the unbounded-weight adaptation, the real-weight
reduction, the preprocess pipeline, and approximate min-cut.  `sparsify` is
the one entry point; `SparsifyConfig.method` picks the sampler.

One run proceeds in two phases.  Phase one peels the edge set into levels:
F_0 is the union of a floor(2*rho)-partial packing, and while the leftover
set stays above 2*rho*n edges it is halved by fair coins and re-packed with
twice as many forests.  Phase two keeps F_0 verbatim, keeps the final
leftover scaled up by the elapsed halvings, and compresses each F_j edge
binomially with trial count 2^j * w(e).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .graph import (
    MAX_WEIGHT,
    CutSpec,
    SparseGraph,
    WeightedGraph,
    cut_weight,
)
from .msf import (
    OVER,
    bottleneck_weights,
    msf_packing_bounded,
    msf_packing_windowed,
)
from .ni import ni_preprocess, preprocess_rho
from .oracles import exact_min_cut, _components
from .sampling import RngStream, compress

RHO_NUMERATOR = 1352.0
COMPRESSION_CONSTANT = 384.0 / 169.0
# sparsify runs exact packings while W <= n**4 (the polynomial weight
# regime) and windowed estimates above it.
POLY_WEIGHT_EXPONENT = 4
# Practical mode: the rho every main round and every NI pass runs at.  The
# literal constants force the early-out on anything small enough to verify.
PRACTICAL_RHO = 8.0
PRACTICAL_NI_RHO = 25.0


class LevelOverflowError(RuntimeError):
    """Level count exceeded its guard, m.bit_length() + 64; indicates a
    broken input or a pathological configuration rather than normal
    operation."""


class WeightRangeError(ValueError):
    """reduce_real_weights cannot fit the weights into 63 bits at this precision."""


def rho(n: int, epsilon: float, rho_scale: float = 1.0) -> float:
    """Sampling intensity rho = rho_scale * 8 * 1352 * ln(n) / (0.38 eps^2)."""
    if n < 2:
        raise ValueError(f"rho needs n >= 2, got {n}")
    return rho_scale * 8.0 * RHO_NUMERATOR * math.log(n) / (0.38 * epsilon**2)


def log_star2(x: float) -> int:
    count = 0
    while x > 1.0:
        x = math.log2(x)
        count += 1
    return count


_METHODS = ("msf", "ni", "pipeline")
_MODES = ("theory", "practical")


@dataclass(frozen=True)
class SparsifyConfig:
    """`method`: msf (the iterated level sampler), ni (the forest-index
    preprocessing sampler alone) or pipeline (ni, then msf).  `mode`: theory
    runs rho at its literal constants times `rho_scale`; practical runs every
    msf round at rho = PRACTICAL_RHO and every NI pass at PRACTICAL_NI_RHO,
    each at the precision it actually runs at."""

    epsilon: float
    seed: int = 0
    rho_scale: float = 1.0
    method: str = "msf"
    mode: str = "theory"

    def validate(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not (0.0 < self.rho_scale < math.inf):
            raise ValueError(f"rho_scale must be positive and finite, got {self.rho_scale}")
        for name, allowed in (("method", _METHODS), ("mode", _MODES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.mode == "practical" and self.rho_scale != 1.0:
            raise ValueError("rho_scale applies only in theory mode")


@dataclass
class LevelStats:
    x_size: int
    f_size: int
    y_size: int
    forests: int


@dataclass
class RunReport:
    n: int
    m: int
    w_max: int | float
    epsilon: float
    epsilon_effective: float
    seed: int
    rho_scale: float
    regime: str
    rho: float = 0.0
    early_out: bool = False
    early_out_reason: str | None = None
    set_aside_count: int = 0
    method: str = "msf"
    threshold: float = 0.0  # msf: m at or under it; ni: every index at or under it
    levels: list[LevelStats] = field(default_factory=list)
    gamma: int = 0
    output_size: int = 0
    timings_ms: dict[str, float] = field(default_factory=dict)
    level_sets: list[dict[str, np.ndarray]] | None = None

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "level_sets"}
        out["levels"] = [
            {"x": s.x_size, "f": s.f_size, "y": s.y_size, "forests": s.forests}
            for s in self.levels
        ]
        return out


def _round_report(
    g: WeightedGraph,
    cfg: SparsifyConfig,
    eps_eff: float,
    seed: int,
    windowed: bool,
    method: str,
) -> RunReport:
    """A round's report and rho: in practical mode exactly the method's target,
    with the scale that gives it; in theory mode the method's formula at
    cfg.rho_scale.  Below two vertices rho is undefined and stays 0."""
    if method == "ni":
        formula, target = partial(preprocess_rho, g.n, eps_eff), PRACTICAL_NI_RHO
    else:
        formula, target = partial(rho, g.n, eps_eff), PRACTICAL_RHO
    report = RunReport(
        n=g.n,
        m=g.m,
        w_max=g.max_weight(),
        epsilon=cfg.epsilon,
        epsilon_effective=eps_eff,
        seed=seed,
        rho_scale=cfg.rho_scale,
        regime="unbounded" if windowed else "polynomial",
        method=method,
    )
    if g.n >= 2:
        if cfg.mode == "practical":
            # formula(target / formula()) can land an ulp under target
            report.rho_scale = target / formula()
            report.rho = target
        else:
            report.rho = formula(cfg.rho_scale)
    return report


def _refused_round(
    g: SparseGraph,
    cfg: SparsifyConfig,
    eps_eff: float,
    windowed: bool,
    exc: WeightRangeError,
    t_start: float,
) -> RunReport:
    """The report of an msf round that returns its input unchanged because
    the reduce_real_weights call begun at t_start refused it.  A skipped
    round adds no error."""
    report = _round_report(g, cfg, eps_eff, cfg.seed, windowed, "msf")
    report.early_out = True
    report.early_out_reason = str(exc)
    report.output_size = g.m
    report.timings_ms["total"] = (time.perf_counter() - t_start) * 1e3
    return report


def early_out_threshold(n: int, m: int, epsilon: float, rho_val: float) -> float:
    """Edge-count bound under which the run returns its input unchanged; 0
    when there is nothing to sample (no edges, or fewer than two vertices).

    The log factor is base 2 and clamped below at 1 (the ratio can drop
    under 1 at desk scale, where the bound still must stay positive).
    """
    if n < 2 or m == 0:
        return 0.0
    ratio = m / (n * math.log2(n) / epsilon**2)
    return 4.0 * rho_val * n * max(1.0, math.log2(ratio))


def _algorithm_one(
    g: WeightedGraph,
    cfg: SparsifyConfig,
    eps_eff: float,
    rng: RngStream,
    *,
    windowed: bool,
    capture_levels: bool = False,
) -> tuple[SparseGraph, RunReport]:
    n, m = g.n, g.m
    report = _round_report(g, cfg, eps_eff, cfg.seed, windowed, "msf")
    report.level_sets = [] if capture_levels else None
    t_start = time.perf_counter()

    report.threshold = early_out_threshold(n, m, eps_eff, report.rho)
    if n < 2 or m <= report.threshold:
        report.early_out = True
        report.early_out_reason = f"m={m} <= threshold {report.threshold:g}"
        report.output_size = m
        identity = SparseGraph.from_arrays(n, g.edge_u, g.edge_v, g.edge_w)
        report.timings_ms["total"] = (time.perf_counter() - t_start) * 1e3
        return identity, report
    rho_val = report.rho

    # reaching level L needs an edge that survived L fair coins, which has
    # probability at most m * 2^-L
    guard = m.bit_length() + 64

    t_pack = 0.0
    t_sample = 0.0
    t_bottleneck = 0.0

    aside_ids: np.ndarray | None = None
    if windowed:
        t0 = time.perf_counter()
        d = bottleneck_weights(g)
        aside_mask = g.edge_w <= d // n  # n * w <= d, exactly, in int64
        aside_ids = np.flatnonzero(aside_mask)
        report.set_aside_count = len(aside_ids)
        x_ids = np.flatnonzero(~aside_mask)
        t_bottleneck = time.perf_counter() - t0
    else:
        x_ids = np.arange(m, dtype=np.int64)

    def pack(ids: np.ndarray, forest_count: int) -> np.ndarray:
        """Levels (1.. or OVER) for the subgraph (V, ids), aligned with ids."""
        if forest_count < 1:
            return np.full(len(ids), OVER, dtype=np.int64)
        sub = g.subgraph_edges(ids)
        if windowed:
            est = msf_packing_windowed(sub, forest_count)
            assert bool(est.covered.all()), "estimator must cover the working set"
            return est.levels
        return msf_packing_bounded(sub, forest_count).levels

    f_levels: list[np.ndarray] = []  # F_i id arrays, i = 0..Gamma

    i = 0
    m_i = math.floor(2.0 * rho_val)
    while True:
        t0 = time.perf_counter()
        levels = pack(x_ids, m_i)
        t_pack += time.perf_counter() - t0
        f_ids = x_ids[levels != OVER]
        y_ids = x_ids[levels == OVER]
        f_levels.append(f_ids)
        report.levels.append(LevelStats(len(x_ids), len(f_ids), len(y_ids), m_i))
        if capture_levels:
            report.level_sets.append({"x": x_ids, "f": f_ids, "y": y_ids})
        if len(y_ids) <= 2.0 * rho_val * n:
            break
        t0 = time.perf_counter()
        bits = rng.child(f"half-sample:{i}").coin_flips(len(y_ids))
        x_ids = y_ids[bits == 1]
        t_sample += time.perf_counter() - t0
        i += 1
        if i > guard:
            raise LevelOverflowError(
                f"level count exceeded guard {guard} "
                f"(n={n}, m={m}, rho={rho_val:.3f})"
            )
        m_i = math.floor(rho_val * 2.0 ** (i + 1))

    gamma = i
    report.gamma = gamma

    # Compressed edges, by id, in level order and then the set-aside edges.
    t0 = time.perf_counter()
    comp_ids: list[np.ndarray] = []
    comp_w: list[np.ndarray] = []
    for j in range(1, gamma + 1):
        level = f_levels[j]
        w = g.edge_w[level].astype(np.float64)
        kept, weights = compress(
            np.ldexp(w, j),
            np.minimum(1.0, COMPRESSION_CONSTANT / np.ldexp(w, 2 * j)),
            rng.child(f"compress:{j}"),
        )
        comp_ids.append(level[kept])
        comp_w.append(weights)

    if aside_ids is not None and len(aside_ids):
        kept, weights = compress(
            g.edge_w[aside_ids].astype(np.float64),
            np.minimum(1.0, COMPRESSION_CONSTANT / d[aside_ids].astype(np.float64)),
            rng.child("set-aside"),
        )
        comp_ids.append(aside_ids[kept])
        comp_w.append(weights)
    t_compress = time.perf_counter() - t0

    # F_0 is kept verbatim.  The final leftover is kept, scaled up by the
    # gamma elapsed halvings.  (The run's own analysis requires the 2^gamma
    # factor: the leftover survived gamma fair coins, so anything else would
    # bias every cut.)  Then the compressed edges.
    t0 = time.perf_counter()
    f0 = f_levels[0]
    ids = np.concatenate([f0, y_ids, *comp_ids])
    out_w = np.concatenate(
        [
            g.edge_w[f0].astype(np.float64),
            np.ldexp(g.edge_w[y_ids].astype(np.float64), gamma),
            *comp_w,
        ]
    )
    result = SparseGraph.from_arrays(n, g.edge_u[ids], g.edge_v[ids], out_w)
    report.output_size = result.m
    report.timings_ms = {
        "packing": t_pack * 1e3,
        "sampling": t_sample * 1e3,
        "compression": t_compress * 1e3,
        "bottleneck": t_bottleneck * 1e3,
        "assembly": (time.perf_counter() - t0) * 1e3,
        "total": (time.perf_counter() - t_start) * 1e3,
    }
    return result, report


def sparsify_once_with_report(
    g: WeightedGraph, cfg: SparsifyConfig, capture_levels: bool = False
) -> tuple[SparseGraph, RunReport]:
    """One run of Algorithm 1, the level-sampling sparsifier, at cfg.epsilon."""
    cfg.validate()
    return _algorithm_one(
        g,
        cfg,
        cfg.epsilon,
        RngStream(cfg.seed),
        windowed=False,
        capture_levels=capture_levels,
    )


def sparsify_unbounded_with_report(
    g: WeightedGraph, cfg: SparsifyConfig, capture_levels: bool = False
) -> tuple[SparseGraph, RunReport]:
    """Unbounded-weight Algorithm 1: edges no heavier than d(e)/n are
    compressed directly against their bottleneck weight, the rest runs the
    standard levels with windowed index estimates."""
    cfg.validate()
    # Looser per-level heaviness of the windowed estimate costs a factor
    # sqrt(2) in precision, which doubles rho at the same epsilon.
    eps_eff = cfg.epsilon / math.sqrt(2.0)
    return _algorithm_one(
        g,
        cfg,
        eps_eff,
        RngStream(cfg.seed),
        windowed=True,
        capture_levels=capture_levels,
    )


def _iterate(
    g: WeightedGraph, cfg: SparsifyConfig, windowed: bool
) -> tuple[SparseGraph, list[RunReport]]:
    """Iterated sparsification with exponentially tightening precision.

    Runs log*(m / (n log n / eps^2)) rounds, round i at eps / 2^(k-i+2); the
    error products telescope below 1 +/- eps.
    """
    root = RngStream(cfg.seed)
    n, m = g.n, g.m
    if n >= 2 and m > 0:
        k = max(1, log_star2(m / (n * math.log2(n) / cfg.epsilon**2)))
    else:
        k = 1

    reports: list[RunReport] = []
    scale_exp = 0
    current = work = g
    for i in range(1, k + 1):
        eps_i = cfg.epsilon / 2.0 ** (k - i + 2)
        # Chaining bridge: after round 1, half the round budget pays for
        # re-rounding the previous round's rational weights, half for the
        # round itself.
        run_eps = eps_i if i == 1 else eps_i / 2.0
        if windowed:
            run_eps /= math.sqrt(2.0)
        if i > 1:
            t_start = time.perf_counter()
            try:
                work, r_i = reduce_real_weights(current, eps_i)
            except WeightRangeError as exc:
                # the later rounds, at a looser eps_i, try again
                reports.append(_refused_round(current, cfg, run_eps, windowed, exc, t_start))
                continue
            scale_exp += r_i
        current, rep = _algorithm_one(
            work, cfg, run_eps, root.child(f"round:{i}"), windowed=windowed
        )
        reports.append(rep)

    if scale_exp:
        current = scale_back(current, scale_exp)
    return current, reports


def _ni_round(
    g: WeightedGraph, cfg: SparsifyConfig, epsilon: float, seed: int, windowed: bool
) -> tuple[SparseGraph, RunReport]:
    """One pass of the forest-index preprocessing sampler, with its report."""
    t_start = time.perf_counter()
    report = _round_report(g, cfg, epsilon, seed, windowed, "ni")
    h, kept_all = ni_preprocess(g, report.rho, seed, timings_ms=report.timings_ms)
    report.output_size = h.m
    if kept_all:
        report.early_out = True
        report.threshold = report.rho
        report.early_out_reason = f"every NI index <= rho {report.threshold:g}"
    report.timings_ms["total"] = (time.perf_counter() - t_start) * 1e3
    return h, report


def sparsify(
    g: WeightedGraph, cfg: SparsifyConfig
) -> tuple[SparseGraph, list[RunReport]]:
    """The sparsifier named by cfg.method, with one report per round.

    The weight regime is settled once, on the input.  msf runs the iterated
    wrapper; ni runs one preprocessing pass at cfg.epsilon; pipeline runs the
    preprocessing pass, reduces to integers and runs the iterated wrapper,
    splitting the budget eps/3 + eps/3 + eps/3.
    """
    cfg.validate()
    windowed = g.m > 0 and g.max_weight() > g.n**POLY_WEIGHT_EXPONENT
    if cfg.method == "msf":
        return _iterate(g, cfg, windowed)
    if cfg.method == "ni":
        h, rep = _ni_round(g, cfg, cfg.epsilon, cfg.seed, windowed)
        return h, [rep]
    eps3 = cfg.epsilon / 3.0
    root = RngStream(cfg.seed)
    pre, rep = _ni_round(g, cfg, eps3, root.child("pipeline-preprocess").seed, windowed)
    cfg_main = replace(cfg, epsilon=eps3, seed=root.child("pipeline-main").seed)
    t_start = time.perf_counter()
    try:
        g_int, r = reduce_real_weights(pre, eps3)
    except WeightRangeError as exc:
        # the NI output is already a (1 +/- eps/3)-sparsifier
        return pre, [rep, _refused_round(pre, cfg_main, eps3, windowed, exc, t_start)]
    h, reports = _iterate(g_int, cfg_main, windowed)
    return scale_back(h, r), [rep] + reports


# The benchmark's tracer hooks this name and reads result[1], the reports.
sparsify_with_report = sparsify


# --- real-weight reduction ------------------------------------------------


def reduce_real_weights(
    g_real: SparseGraph, epsilon: float
) -> tuple[WeightedGraph, int]:
    """Round weights to the nearest multiple of 2^-r and rescale to integers.

    r = -floor(log2((eps/2) * W_min)) with W_min = min(1, smallest weight),
    lowered to the largest r that keeps the heaviest weight within 63 bits
    (r may go negative).  The per-edge additive error 2^-r must not exceed
    (eps/2) times the smallest weight; a weight range too wide for that
    raises WeightRangeError.  A (1 +/- eps/3)-sparsifier of the scaled graph, scaled back by
    2^-r, is a (1 +/- eps)-sparsifier of the input.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if g_real.m == 0:
        r = -math.floor(math.log2(0.5 * epsilon))
        return WeightedGraph.from_arrays(g_real.n, [], [], []), r

    w = g_real.edge_w
    if not np.all(np.isfinite(w)) or float(w.min()) <= 0.0:
        raise ValueError("weights must be positive and finite")
    w_min = float(w.min())
    r = -math.floor(math.log2(0.5 * epsilon * min(1.0, w_min)))
    # max * 2^r < 2^63 iff its binary exponent (frexp's) is at most 63
    r = min(r, MAX_WEIGHT.bit_length() - math.frexp(float(w.max()))[1])
    if math.ldexp(1.0, -r) > 0.5 * epsilon * w_min:
        raise WeightRangeError("weight range too wide to round into 63 bits at this epsilon")
    scaled = np.floor(np.ldexp(w, r) + 0.5).astype(np.int64)
    return WeightedGraph.from_arrays(g_real.n, g_real.edge_u, g_real.edge_v, scaled), r


def scale_back(h: SparseGraph, r: int) -> SparseGraph:
    """Undo the 2^r rescaling of reduce_real_weights."""
    return SparseGraph.from_arrays(h.n, h.edge_u, h.edge_v, h.edge_w * math.ldexp(1.0, -r))


# --- min-cut ---------------------------------------------------------------


def approx_min_cut(
    g: WeightedGraph, cfg: SparsifyConfig
) -> tuple[CutSpec, float]:
    """Sparsify, solve min-cut exactly on the sparsifier, report the found
    cut with its weight evaluated in the original graph."""
    if g.n < 2:
        raise ValueError("minimum cut needs at least two vertices")
    comp = _components(g)
    if comp.any():  # vertex 0's label is 0
        return CutSpec.from_vertices(np.flatnonzero(comp == 0).tolist()), 0.0
    h, _ = sparsify(g, cfg)
    cut, _ = exact_min_cut(h)
    return cut, float(cut_weight(g, cut))
