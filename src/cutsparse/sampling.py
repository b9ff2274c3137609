"""Seeded randomness, the binomial sampler and edge compression.

Stream-split convention: one 64-bit root seed; the stream for a phase is
obtained by hashing the parent seed together with the stream version and a
text label (`RngStream.child`).  Each phase reads one generator seeded with
its stream's seed:

- the level halving's fair coins (`RngStream.coin_flips`) come from
  CPython's Mersenne Twister;
- compression (`compress`) reads one 64-bit word per edge from the SHAKE-128
  output of the seed's 8 little-endian bytes, and turns word x into the
  uniform ((x >> 12) + 1/2) * 2^-52, in the open interval (0, 1).  SHAKE-128
  is a fixed standard (FIPS 202), so no library version can move a uniform, and
  it needs nothing beyond `hashlib`: importing `numpy.random` for a bit
  generator would cost the process about 3 MB of resident memory.

Both are deterministic across platforms for a fixed seed, so a fixed root
seed and a fixed label assignment reproduce every coin and every uniform
byte for byte.  A binomial draw also goes through float64 log and exp, whose
last bit may differ between numpy builds; on one build it repeats exactly.
The stream version is hashed into every child seed; `cutsparse-rng-v2` is
current (v1 drew compression by geometric skips over Mersenne Twister
uniforms, several per edge).

`binom_sample` and `RngStream.uniform_open` have no library caller.  They
remain only because the benchmark's tracer hooks them by name; once the
benchmark hooks `compress` instead, both can go.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np

_STREAM_VERSION = b"cutsparse-rng-v2"

# entries per pass of the sampler: its temporaries stay small, in cache and
# off the process's peak memory
_BLOCK = 1 << 15
# step pairs the inversion walks one numpy step at a time; after them it
# walks chunks of as many step pairs again, of at most _CHUNK_PMFS pmfs
# across the block
_SINGLE_PAIRS = 64
_CHUNK_PMFS = 1 << 18
_LN_2PI = math.log(2.0 * math.pi)
# log(k!) minus its Stirling approximation (k + 1/2) log k - k + log sqrt(2 pi),
# for k = 0..15; 0 at k = 0
_STIRLERR_SMALL = np.array(
    [0.0] + [math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * _LN_2PI for k in range(1, 16)]
)


class RngStream:
    """Named, seedable random stream with deterministic child derivation."""

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int) -> None:
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self._rng = random.Random(self.seed)

    def child(self, label: str) -> "RngStream":
        digest = hashlib.sha256(
            _STREAM_VERSION + b"\x00" + str(self.seed).encode() + b"\x00" + label.encode()
        ).digest()
        return RngStream(int.from_bytes(digest[:8], "little"))

    def uniform_open(self) -> float:
        """Uniform draw from the open interval (0, 1).  No library code calls
        it: it is kept for the benchmark's tracer, which hooks it by name."""
        u = self._rng.random()
        while u == 0.0:
            u = self._rng.random()
        return u

    def coin_flips(self, count: int):
        """`count` fair bits as a uint8 array, LSB-first within each byte."""
        raw = self._rng.randbytes((count + 7) // 8)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits[:count]


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) minus its Stirling approximation, for integral n >= 0: a table
    up to 15, the asymptotic series above (Loader 2000)."""
    big = np.maximum(n, 16.0)
    nn = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / big
    return np.where(n <= 15, _STIRLERR_SMALL[np.minimum(n, 15).astype(np.int64)], series)


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """x log(x / mean) + mean - x for x, mean > 0, without the cancellation
    near x = mean (Loader 2000)."""
    d = x - mean
    out = x * np.log(x / mean) - d
    near = np.abs(d) < 0.1 * (x + mean)
    if near.any():
        # series in v = d / (x + mean); each term shrinks by v^2 < 1/100
        v = d[near] / (x[near] + mean[near])
        acc = d[near] * v
        term = 2.0 * x[near] * v
        v2 = v * v
        for j in range(1, 10):
            term *= v2
            acc += term / (2 * j + 1)
        out[near] = acc
    return out


def _log_pmf_at(k: np.ndarray, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log P(X = k) for X ~ Binomial(t, p), 0 <= k <= t, 0 < p < 1.

    Loader's saddle-point form takes no difference of log-gammas, so it
    stays accurate when t passes 2^53 and where (1 - p)^t underflows.
    """
    out = t * np.log1p(-p)  # k = 0
    top = k == t
    out[top] = t[top] * np.log(p[top])
    mid = np.flatnonzero((k > 0) & ~top)
    if len(mid):
        k, t, p = k[mid], t[mid], p[mid]
        out[mid] = (
            _stirlerr(t) - _stirlerr(k) - _stirlerr(t - k)
            - _bd0(k, t * p) - _bd0(t - k, t * (1.0 - p))
            - 0.5 * (_LN_2PI + np.log(k) + np.log1p(-k / t))
        )
    return out


def _binomial(trials, probs, rng: RngStream) -> np.ndarray:
    """One Binomial(trials[i], probs[i]) draw per entry, as float64.

    Entry i inverts uniform i of `rng`'s compression stream (module
    docstring) by the exact pmf, over the support in the order mode,
    mode + 1, mode - 1, mode + 2, ...: the mode's pmf comes from its
    log-pmf, each later one from its neighbour's by the pmf ratio, and each
    step touches only the entries whose running sum is still below their
    uniform.  The first 64 step pairs go one numpy step at a time; an entry
    still open after them continues in chunks, each as many step pairs as
    walked so far, whose pmfs are cumulative products of the ratios.  The work
    per entry grows with its standard deviation, not its trial count.  p = 1
    gives the trial count itself, p = 0 or no trials give 0; every entry
    takes its uniform all the same.
    """
    t = np.asarray(trials, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if not (t >= 0).all():
        raise ValueError("trial counts must be >= 0")
    if not ((p >= 0) & (p <= 1)).all():
        raise ValueError("probabilities must be in [0, 1]")
    raw = hashlib.shake_128(rng.seed.to_bytes(8, "little")).digest(8 * len(t))
    words = np.frombuffer(raw, dtype="<u8")
    out = np.where(p == 1.0, t, 0.0)
    for lo in range(0, len(t), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        u = ((words[block] >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
        _draw_block(t[block], p[block], u, out[block])
    return out


def _draw_block(t: np.ndarray, p: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """`_binomial` on one block, writing the draws with 0 < p < 1 into `out`.
    A side of the support past 0 or t has pmf 0 and only spends its steps;
    an entry whose pmfs all underflow before its sum passes its uniform
    (a rounding case) keeps its mode."""
    idx = np.flatnonzero((t > 0) & (p > 0) & (p < 1))
    t, p, u = t[idx], p[idx], u[idx]
    odds = p / (1.0 - p)
    mode = np.minimum(np.floor((t + 1.0) * p), t)
    f_lo = f_hi = np.exp(_log_pmf_at(mode, t, p))
    u -= f_lo
    out[idx] = mode
    step = 0  # half steps walked
    while True:
        live = np.flatnonzero((u > 0) & ((f_lo > 0) | (f_hi > 0)))
        if not len(live):
            return
        idx, t, u, odds, mode = idx[live], t[live], u[live], odds[live], mode[live]
        f_lo, f_hi = f_lo[live], f_hi[live]
        if step < 2 * _SINGLE_PAIRS:
            step += 1
            if step % 2:
                k = mode + (step + 1) // 2
                f_hi = f_hi * (t - k + 1.0) / k * odds
                u -= f_hi
            else:
                k = mode - step // 2
                f_lo = f_lo * (k + 1.0) / (t - k) / odds
                u -= f_lo
            done = np.flatnonzero(u <= 0)
            out[idx[done]] = k[done]
            continue
        # as many pairs as walked so far, j = step/2 + 1 .. step/2 + c, each
        # mode + j, then mode - j; a ratio past 0 or t is clamped at 0, which
        # keeps every product finite
        c = max(1, min(step // 2, _CHUNK_PMFS // (2 * len(idx))))
        j = np.arange(step // 2 + 1, step // 2 + c + 1, dtype=np.float64)
        hi, lo = mode[:, None] + j, mode[:, None] - j
        t2 = t[:, None]
        walk = np.empty((len(idx), 2 * c + 1))
        walk[:, 0] = u
        walk[:, 1::2] = f_hi[:, None] * np.cumprod(
            np.maximum(t2 - hi + 1.0, 0.0) / hi * odds[:, None], axis=1
        )
        walk[:, 2::2] = f_lo[:, None] * np.cumprod(
            np.maximum(lo + 1.0, 0.0) / (t2 - lo) / odds[:, None], axis=1
        )
        f_hi, f_lo = walk[:, -2].copy(), walk[:, -1].copy()
        np.subtract.accumulate(walk, axis=1, out=walk)
        u = walk[:, -1]
        first = np.argmax(walk[:, 1:] <= 0, axis=1)
        done = np.flatnonzero(walk[np.arange(len(idx)), first + 1] <= 0)
        h = first[done]
        out[idx[done]] = np.where(h % 2 == 0, hi[done, h // 2], lo[done, h // 2])
        step += 2 * c


def binom_sample(n: int, p: float, rng: RngStream) -> int:
    """One Binomial(n, p) draw: what `compress` draws for a lone edge with
    this stream, so a repeat call with the same stream repeats the draw.
    No library code calls it: it is kept for the benchmark's tracer, which
    hooks it by name."""
    return int(_binomial([n], [p], rng)[0])


def compress(trials, probs, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Compress edges: edge i draws r ~ Binomial(trials[i], probs[i]) from
    `rng`'s compression stream, one uniform per edge in order, and is kept
    at weight r / probs[i] when r > 0.  Trials and probabilities are float64
    arrays of equal length; trial counts may pass 2^63.

    Unbiased: an edge's expected weight (absent counted as 0) is its trial
    count.  Returns the kept positions and their weights, in input order.
    """
    draws = _binomial(trials, probs, rng)
    kept = np.flatnonzero(draws)
    return kept, draws[kept] / probs[kept]
