"""The sparsifier: level sampling with forest packings, edge compression,
the unbounded-weight adaptation, the real-weight reduction, and approximate
min-cut.  `sparsify(g, SparsifyConfig)` is the one entry point, and a
`SparsifyConfig` checks its values when it is built (`replace` included).

A run is one schedule of rounds (see `sparsify`): a forest-index (NI)
preprocessing pass, msf rounds of Algorithm 1 at tightening precision, or
the NI pass followed by the msf rounds.  `sparsify` only lays out the
schedule: an msf round rounds its own real-weighted input, and a rounding
refused for want of 63 bits leaves through the round's one early out.

One msf round proceeds in two phases.  Phase one peels the edge set into
levels: F_0 is the union of a floor(2*rho)-partial packing, and while the
leftover set stays above 2*rho*n edges it is halved by fair coins and
re-packed with twice as many forests.  Phase two keeps F_0 verbatim, keeps
the final leftover scaled up by the elapsed halvings, and compresses each F_j
edge binomially with trial count 2^j * w(e).  Both weight regimes run the
same levels; only the packer differs.  In the unbounded regime every level
packs exactly the edges its d(e) pass covers, those with n*w(e) > d(e); at
level 0 the edges left uncovered are set aside and compressed against
their d(e), as the last batch of the same compression loop.
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
    _components,
    cut_weight,
)
from .msf import OVER, msf_packing_bounded, msf_packing_windowed
from .msf import bottleneck_weights  # noqa: F401  the benchmark's tracer patches this binding
from .ni import ni_preprocess, preprocess_rho
from .oracles import exact_min_cut
from .sampling import RngStream, compress

RHO_NUMERATOR = 1352.0
COMPRESSION_CONSTANT = 384.0 / 169.0
# sparsify packs every edge while W <= n**4 (the polynomial weight regime)
# and, above it, only the edges its bottleneck pass covers.
POLY_WEIGHT_EXPONENT = 4
# Practical mode: the rho every main round and every NI pass runs at.  The
# literal constants force the early-out on anything small enough to verify.
PRACTICAL_RHO = 8.0
PRACTICAL_NI_RHO = 25.0
# The smallest epsilon and the largest rho_scale a config accepts: a run's
# precisions stay above epsilon / 2^10, so for n < 2^63 every rho stays under
# rho_scale * 1.4e212, and every threshold, 4 * rho * n * a log2 factor under
# 63, under rho_scale * 3.1e233: finite at every rho_scale up to the ceiling.
MIN_EPSILON = 1e-100
MAX_RHO_SCALE = 1e70


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


METHODS = ("msf", "ni", "pipeline")
MODES = ("theory", "practical")


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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        # pipeline's msf stage runs a config at a third of its epsilon
        share = 3.0 if self.method == "pipeline" else 1.0
        if self.epsilon / share < MIN_EPSILON:
            raise ValueError(f"epsilon must be at least {MIN_EPSILON * share:g}, got {self.epsilon}")
        if not (0.0 < self.rho_scale <= MAX_RHO_SCALE):
            raise ValueError(
                f"rho_scale must be positive and finite, at most {MAX_RHO_SCALE:g}, "
                f"got {self.rho_scale}"
            )
        for name, allowed in (("method", METHODS), ("mode", MODES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.mode == "practical" and self.rho_scale != 1.0:
            raise ValueError("rho_scale applies only in theory mode")


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
    early_out_reason: str | None = None
    set_aside_count: int = 0
    method: str = "msf"
    threshold: float = 0.0  # msf: m at or under it; ni: every index at or under it
    levels: list[dict[str, int]] = field(default_factory=list)  # x, f, y, forests
    gamma: int = 0
    output_size: int = 0
    timings_ms: dict[str, float] = field(default_factory=dict)
    level_sets: list[dict[str, np.ndarray]] | None = None

    @property
    def early_out(self) -> bool:
        """Whether the round took the early out: exactly when it says why."""
        return self.early_out_reason is not None

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "level_sets"}
        return d | {"early_out": self.early_out}


def _round_report(
    g: WeightedGraph,
    cfg: SparsifyConfig,
    epsilon: float,
    seed: int,
    unbounded: bool,
    method: str,
) -> RunReport:
    """A round at precision epsilon: its report and rho, in practical mode
    exactly the method's target, with the scale that gives it; in theory mode
    the method's formula at cfg.rho_scale.  Below two vertices rho is
    undefined and stays 0."""
    if method == "ni":
        formula, target = preprocess_rho, PRACTICAL_NI_RHO
    else:
        if unbounded:
            # The windowed estimate's looser per-level heaviness, (1 - 1/n) w(e),
            # cost a factor sqrt(2) in precision, which doubles rho at the same
            # eps.  The exact packing of the covered edges does not need it;
            # the factor stays until a separately declared change removes it.
            epsilon /= math.sqrt(2.0)
        formula, target = rho, PRACTICAL_RHO
    report = RunReport(
        n=g.n,
        m=g.m,
        w_max=g.max_weight(),
        epsilon=cfg.epsilon,
        epsilon_effective=epsilon,
        seed=seed,
        rho_scale=cfg.rho_scale,
        regime="unbounded" if unbounded else "polynomial",
        method=method,
    )
    if g.n >= 2:
        if cfg.mode == "practical":
            # formula(..., target / formula(...)) can land an ulp under target
            report.rho_scale = target / formula(g.n, epsilon)
            report.rho = target
        else:
            report.rho = formula(g.n, epsilon, cfg.rho_scale)
    return report


def early_out_threshold(n: int, m: int, epsilon: float, rho_val: float) -> float:
    """Edge-count bound at or under which a round samples nothing; 0
    when there is nothing to sample (no edges; a graph with edges has n >= 2).

    The log factor is base 2 and clamped below at 1 (the ratio can drop
    under 1 at desk scale, where the bound still must stay positive).
    """
    if m == 0:
        return 0.0
    ratio = m / (n * math.log2(n) / epsilon**2)
    return 4.0 * rho_val * n * max(1.0, math.log2(ratio))


def _algorithm_one(
    g: WeightedGraph,
    cfg: SparsifyConfig,
    epsilon: float,
    rng: RngStream,
    *,
    unbounded: bool,
    round_eps: float | None = None,
    capture_levels: bool = False,
) -> tuple[WeightedGraph | SparseGraph, RunReport, int]:
    """One msf round of Algorithm 1 at precision epsilon: its graph, its
    report, and the r of the 2^r its input was scaled by.  With round_eps set
    the round first rounds its real weights at round_eps with
    `reduce_real_weights` (timed as `reduce`) and samples the result.  A
    rounding refused for want of 63 bits and an m at or under the threshold
    leave through one early out, which returns the graph it would have
    sampled, that object itself: the rounded graph, or the input when the
    rounding was refused or not asked for."""
    t_start = time.perf_counter()
    r, reason, timings = 0, None, {}
    if round_eps is not None:
        try:
            g, r = reduce_real_weights(g, round_eps)
            timings["reduce"] = (time.perf_counter() - t_start) * 1e3
        except WeightRangeError as exc:
            reason = str(exc)
    n, m = g.n, g.m
    report = _round_report(g, cfg, epsilon, cfg.seed, unbounded, "msf")
    report.level_sets = [] if capture_levels else None
    report.timings_ms = timings
    if reason is None:
        report.threshold = early_out_threshold(n, m, report.epsilon_effective, report.rho)
        if m <= report.threshold:
            reason = f"m={m} <= threshold {report.threshold:g}"
    if reason is not None:
        report.early_out_reason = reason
        report.output_size = m
        timings["total"] = (time.perf_counter() - t_start) * 1e3
        return g, report, r
    rho_val = report.rho

    # reaching level L needs an edge that survived L fair coins, which has
    # probability at most m * 2^-L
    guard = m.bit_length() + 64

    t_pack = t_sample = 0.0

    x_ids = np.arange(m, dtype=np.int64)
    # the unbounded regime's set-aside and its d(e), read at level 0; not a
    # view of x_ids, which would keep the level-0 ids alive all round
    aside_ids = aside_d = np.empty(0, dtype=np.int64)
    f_levels: list[np.ndarray] = []  # F_i id arrays, i = 0..Gamma

    i = 0
    while True:
        m_i = math.floor(rho_val * 2.0 ** (i + 1))
        t0 = time.perf_counter()
        packing = (
            partial(msf_packing_windowed, timings_ms=timings) if unbounded else msf_packing_bounded
        )(g if i == 0 else g.subgraph_edges(x_ids), m_i)
        levels = packing.levels
        if unbounded and i == 0:
            # Level 0 estimates the whole input: its uncovered edges
            # (n * w <= d) are set aside and compressed against that d.
            aside_ids = np.flatnonzero(~packing.covered)
            aside_d = packing.d[aside_ids]
            report.set_aside_count = len(aside_ids)
            x_ids = np.flatnonzero(packing.covered)
            levels = levels[packing.covered]
        elif unbounded:
            assert bool(packing.covered.all()), "estimator must cover the working set"
        t_pack += time.perf_counter() - t0
        f_ids = x_ids[levels != OVER]
        y_ids = x_ids[levels == OVER]
        f_levels.append(f_ids)
        report.levels.append({"x": len(x_ids), "f": len(f_ids), "y": len(y_ids), "forests": m_i})
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

    gamma = i
    report.gamma = gamma

    # Compressed edges, by id: F_1 .. F_Gamma, then the set-aside.  F_j draws
    # Binomial(2^j w, C / (4^j w)); the set-aside draws Binomial(w, C / d).
    t0 = time.perf_counter()
    comp_ids: list[np.ndarray] = []
    comp_w: list[np.ndarray] = []
    batches = [(f_levels[j], j, f"compress:{j}") for j in range(1, gamma + 1)]
    for batch, j, label in [*batches, (aside_ids, 0, "set-aside")]:
        w = g.edge_w[batch].astype(np.float64)
        bound = np.ldexp(w, 2 * j) if j else aside_d.astype(np.float64)
        kept, weights = compress(
            np.ldexp(w, j), np.minimum(1.0, COMPRESSION_CONSTANT / bound), rng.child(label)
        )
        comp_ids.append(batch[kept])
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
    timings.update(
        packing=t_pack * 1e3,
        sampling=t_sample * 1e3,
        compression=t_compress * 1e3,
        assembly=(time.perf_counter() - t0) * 1e3,
        total=(time.perf_counter() - t_start) * 1e3,
    )
    return result, report, r


def sparsify_unbounded_with_report(
    g: WeightedGraph, cfg: SparsifyConfig
) -> tuple[WeightedGraph | SparseGraph, RunReport]:
    """One unbounded-weight round of Algorithm 1 at cfg.epsilon: edges no
    heavier than d(e)/n are compressed directly against their bottleneck
    weight, the rest runs the standard levels on exact packings of them.
    `sparsify` is the library's entry point; this single round is kept only
    because perfbench/test_perfbench.py imports it."""
    h, report, _ = _algorithm_one(g, cfg, cfg.epsilon, RngStream(cfg.seed), unbounded=True)
    return h, report


def _ni_round(
    g: WeightedGraph, cfg: SparsifyConfig, epsilon: float, seed: int, unbounded: bool
) -> tuple[WeightedGraph | SparseGraph, RunReport]:
    """One pass of the forest-index preprocessing sampler, with its report."""
    t_start = time.perf_counter()
    report = _round_report(g, cfg, epsilon, seed, unbounded, "ni")
    h = ni_preprocess(g, report.rho, seed, timings_ms=report.timings_ms)
    report.output_size = h.m
    if h is g:
        report.threshold = report.rho
        report.early_out_reason = f"every NI index <= rho {report.threshold:g}"
    report.timings_ms["total"] = (time.perf_counter() - t_start) * 1e3
    return h, report


def sparsify(
    g: WeightedGraph, cfg: SparsifyConfig
) -> tuple[WeightedGraph | SparseGraph, list[RunReport]]:
    """The sparsifier named by cfg.method, with one report per round.

    The weight regime is settled once, on the input.  `ni` is one NI pass at
    cfg.epsilon.  `msf` runs k = log*(m / (n log n / eps^2)) rounds, round i
    at budget eps_i = eps / 2^(k-i+2), so the error products telescope below
    1 +/- eps; each round after the first rounds its input to integers at
    eps_i and samples at eps_i / 2.  `pipeline` is an NI pass at eps/3, then
    `msf` at eps/3 with a seed of its own, whose first round rounds the NI
    output at eps/3.  A round whose rounding does not fit 63 bits returns its
    input through its early out; the next round, at a looser eps_i, tries
    again.  One scale-back by 2^-(sum of r) ends the run.

    A run that samples nothing, every report an early out, returns `g`
    itself, every weight exact, whatever its early-out rounds rounded.
    """
    unbounded = g.max_weight() > g.n**POLY_WEIGHT_EXPONENT
    if cfg.method == "ni":
        h, rep = _ni_round(g, cfg, cfg.epsilon, cfg.seed, unbounded)
        return h, [rep]
    current, reports = g, []
    first_rounding = None  # msf's input is integral already
    if cfg.method == "pipeline":
        root = RngStream(cfg.seed)
        first_rounding = cfg.epsilon / 3.0
        current, rep = _ni_round(
            g, cfg, first_rounding, root.child("pipeline-preprocess").seed, unbounded
        )
        reports.append(rep)
        cfg = replace(
            cfg, epsilon=first_rounding, seed=root.child("pipeline-main").seed, method="msf"
        )

    n, m = current.n, current.m
    k = max(1, log_star2(m / (n * math.log2(n) / cfg.epsilon**2))) if m else 1
    budgets = [cfg.epsilon / 2.0 ** (k - i + 2) for i in range(1, k + 1)]
    # per round: the precision it samples at, and the one it rounds at (or None)
    schedule = [(budgets[0], first_rounding)] + [(e / 2.0, e) for e in budgets[1:]]
    root = RngStream(cfg.seed)
    scale_exp = 0
    for i, (run_eps, round_eps) in enumerate(schedule, 1):
        current, rep, r = _algorithm_one(
            current, cfg, run_eps, root.child(f"round:{i}"), unbounded=unbounded, round_eps=round_eps
        )
        reports.append(rep)
        scale_exp += r
    if all(rep.early_out for rep in reports):
        return g, reports
    if scale_exp:
        current = scale_back(current, scale_exp)
    return current, reports


# The benchmark's tracer hooks this name and reads result[1], the reports.
sparsify_with_report = sparsify


# --- real-weight reduction ------------------------------------------------


def reduce_real_weights(
    g_real: WeightedGraph | SparseGraph, epsilon: float
) -> tuple[WeightedGraph, int]:
    """Round weights to the nearest multiple of 2^-r and rescale to integers.

    r = -floor(log2((eps/2) * W_min)) with W_min = min(1, smallest weight),
    lowered to the largest r that keeps the heaviest weight within 63 bits
    (r may go negative).  The per-edge additive error 2^-r must not exceed
    (eps/2) times the smallest weight; a weight range too wide for that
    raises WeightRangeError.  A (1 +/- eps/3)-sparsifier of the scaled graph, scaled back by
    2^-r, is a (1 +/- eps)-sparsifier of the input.  Integer weights are read
    as their nearest float64, as a float64 copy of the graph would hold them.
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


def scale_back(h: WeightedGraph | SparseGraph, r: int) -> SparseGraph:
    """Undo the 2^r rescaling of reduce_real_weights."""
    return SparseGraph.from_arrays(h.n, h.edge_u, h.edge_v, h.edge_w * math.ldexp(1.0, -r))


# --- min-cut ---------------------------------------------------------------


def approx_min_cut(
    g: WeightedGraph, cfg: SparsifyConfig
) -> tuple[CutSpec, float]:
    """Solve min-cut exactly on a sparsifier of g and report the found cut
    with its weight evaluated in g.  A disconnected g needs no sparsifier:
    `exact_min_cut` finds its zero-weight cut on g itself, and raises on a
    g of fewer than two vertices."""
    h = g if _components(g).any() else sparsify(g, cfg)[0]
    cut, _ = exact_min_cut(h)
    return cut, float(cut_weight(g, cut))
