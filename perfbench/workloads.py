"""Seeded input generators and the CLI operations of each workload.

Every operation passes an explicit --rho-scale, never --mode practical, so
the sampling intensity of each round is fixed by the numbers below and not by
whatever practical mode means at the commit under test.  The intensity of a
main-sparsifier round is

    rho = rho_scale * (7 + c) * 1352 * ln(n) / (0.38 * eps_run**2)

where the iterated wrapper runs k = max(1, log*_2(m / (n log2 n / eps**2)))
rounds, round i at eps_i = eps / 2**(k - i + 2); rounds after the first run at
eps_i / 2, and the unbounded regime divides by a further sqrt(2).  The NI
preprocessing sampler uses rho = rho_scale * (224 / 0.38) * ln(n) / eps**2.
`rho_scale_for` inverts these formulas; the constants it produced are written
out literally in WORKLOADS so a change to the library's formulas cannot move
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EPSILON = 0.5


@dataclass(frozen=True)
class Graph:
    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray  # int64 integer weights

    @property
    def m(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class Op:
    """One CLI operation; `argv` holds {input}, {output}, {report} and {seed}
    placeholders."""

    kind: str  # "sparsify" or "mincut"
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """One input shape and the operations one pass runs on it, in order.

    The output metrics average the sparsify operation over `quality_seeds`
    sampler seeds (the timed one first).  On a graph with few vertices the
    cut family has few independent cuts, and one sampler seed's error moves
    by up to a tenth from seed to seed.
    """

    name: str
    why: str
    generate: Callable[[np.random.Generator], Graph]
    ops: tuple[Op, ...]
    quality_seeds: int = 1


def _random_pairs(rng: np.random.Generator, n: int, m: int, lo: int = 0):
    """m uniform vertex pairs in [lo, lo+n) without self-loops."""
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n
    return u + lo, v + lo


def poly_sparse(rng: np.random.Generator) -> Graph:
    n, m = 2500, 150_000
    u, v = _random_pairs(rng, n, m)
    w = rng.integers(1, n**3, size=m, endpoint=True)
    return Graph(n, u, v, w)


def wide_layered(rng: np.random.Generator) -> Graph:
    """8 clusters; cluster c has weights in [2^(7c), 2^(7c+1)), and the
    cross-cluster edges take the band of a random cluster.  Every bottleneck
    weight then falls in one of the 8 bands, so the windows the estimator
    opens do not depend on the seed."""
    clusters, size, internal, cross = 8, 128, 5_600, 800
    us, vs, bands = [], [], []
    for c in range(clusters):
        u, v = _random_pairs(rng, size, internal, lo=c * size)
        us.append(u)
        vs.append(v)
        bands.append(np.full(internal, c))
    n = clusters * size
    cu = rng.integers(0, n, size=cross)
    other = (cu // size + rng.integers(1, clusters, size=cross)) % clusters
    us.append(cu)
    vs.append(other * size + rng.integers(0, size, size=cross))
    bands.append(rng.integers(0, clusters, size=cross))
    u, v, band = (np.concatenate(x) for x in (us, vs, bands))
    lo = np.left_shift(1, 7 * band)
    w = lo + (rng.random(len(u)) * lo).astype(np.int64)
    perm = rng.permutation(len(u))
    return Graph(n, u[perm], v[perm], w[perm])


def dense(rng: np.random.Generator) -> Graph:
    n, m = 160, 90_000
    u, v = _random_pairs(rng, n, m)
    w = rng.integers(1, 100, size=m, endpoint=True)
    return Graph(n, u, v, w)


def generate(workload: Workload, seed: int) -> Graph:
    return workload.generate(np.random.default_rng(seed))


def write_edgelist(g: Graph, path: Path) -> None:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{a} {b} {c}" for a, b, c in zip(g.u.tolist(), g.v.tolist(), g.w.tolist())]
    path.write_text("\n".join(lines) + "\n")


# --- rho-scale arithmetic ------------------------------------------------------


def _log_star2(x: float) -> int:
    count = 0
    while x > 1.0:
        x = math.log2(x)
        count += 1
    return count


def rounds(n: int, m: int, eps: float) -> int:
    return max(1, _log_star2(m / (n * math.log2(n) / eps**2)))


def round_eps(n: int, m: int, eps: float, i: int, windowed: bool = False) -> float:
    """Precision that round i (1-based) of the iterated wrapper runs at."""
    k = rounds(n, m, eps)
    e = eps / 2.0 ** (k - i + 2)
    if i > 1:
        e /= 2.0
    return e / math.sqrt(2.0) if windowed else e


def rho_scale_for(target: float, n: int, eps_run: float, c: float = 1.0) -> float:
    """Scale that puts a main-sparsifier round at rho = target."""
    return target * 0.38 * eps_run**2 / ((7.0 + c) * 1352.0 * math.log(n))


def ni_rho_scale_for(target: float, n: int, eps: float) -> float:
    return target * eps**2 / ((224.0 / 0.38) * math.log(n))


# --- the workloads ---------------------------------------------------------------
#
# Shapes are sized so that one pass takes 1-2.5 s on a 2-vCPU host and a
# 30 s run repeats it often enough for a steady median.  Every round that
# samples runs at rho = 8 (NI: 25), the practical operating point whose
# cut-error tolerances tests/calibration.py locks; at rho = 4 the worst
# singleton cut of poly-sparse exceeds 2*epsilon on some seeds.  Each round
# must also stay above its early-out threshold, 4*rho*n edges at these
# shapes.  The rho-scale constants come from the functions above, rounded up
# in the fifth digit so that floor(2*rho) is the intended forest count:
#   poly-sparse   k=1; eps_run = 0.5/4 = 0.125
#                 rho_scale_for(8, 2500, 0.125) = 5.61301e-7 -> 5.6131e-7
#   wide-layered  k=1, unbounded; eps_run = 0.125/sqrt(2)
#                 rho_scale_for(8, 1024, 0.0883883) = 3.16790e-7 -> 3.1680e-7
#   dense-mincut  k=4 (m/(n log2 n/eps^2) = 19.2); rho is pinned at the last
#                 round, eps_run = 0.5/4/2 = 0.0625:
#                 rho_scale_for(8, 160, 0.0625) = 2.16330e-7 -> 2.1633e-7,
#                 so rounds 1-4 run at rho = 128, 128, 32, 8.  (Pinning the
#                 first round instead leaves the last rounds below rho = 1.)
#                 NI: ni_rho_scale_for(25, 160, 0.5) = 2.08913e-3 -> 2.0892e-3

_SPARSIFY = ("sparsify", "--input", "{input}", "--output", "{output}", "--report", "{report}")
_COMMON = ("--epsilon", str(EPSILON), "--seed", "{seed}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "poly-sparse",
            "sparsify --method msf, n=2500 m=150000 w in [1,n^3], --rho-scale 5.6131e-7 "
            "(rho=8, 1 round): packing and file I/O dominate; no windows, NI or min cut",
            poly_sparse,
            (Op("sparsify", _SPARSIFY + ("--method", "msf", "--rho-scale", "5.6131e-7") + _COMMON),),
        ),
        Workload(
            "wide-layered",
            "sparsify --method msf, 8 clusters x 128 at weights 2^(7c), auto -> unbounded, "
            "--rho-scale 3.168e-7 (rho=8): the only run of bottleneck weights and windowed packings",
            wide_layered,
            (Op("sparsify", _SPARSIFY + ("--method", "msf", "--rho-scale", "3.1680e-7") + _COMMON),),
            quality_seeds=3,
        ),
        Workload(
            "dense-mincut",
            "n=160 m=90000 w in [1,100]: mincut --rho-scale 2.1633e-7 (rho=8 at round 4 of 4), "
            "then sparsify --method ni --rho-scale 2.0892e-3 (rho=25): the only min cut and NI",
            dense,
            (
                Op("mincut", ("mincut", "--input", "{input}", "--rho-scale", "2.1633e-7") + _COMMON),
                Op("sparsify", _SPARSIFY + ("--method", "ni", "--rho-scale", "2.0892e-3") + _COMMON),
            ),
            quality_seeds=8,
        ),
    )
}
