"""Seeded randomness, the geometric-skip binomial sampler and edge compression.

Stream-split convention: one 64-bit root seed; the stream for a phase is
obtained by hashing the parent seed together with a text label
(`RngStream.child`).  The generator behind each stream is CPython's Mersenne
Twister, which is deterministic across platforms for a fixed seed, so a fixed
root seed and a fixed label assignment reproduce every draw byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import random

_STREAM_VERSION = b"cutsparse-rng-v1"


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
        """Uniform draw from the open interval (0, 1); keeps log(u) finite."""
        u = self._rng.random()
        while u == 0.0:
            u = self._rng.random()
        return u

    def coin_flips(self, count: int):
        """`count` fair bits as a uint8 array, LSB-first within each byte."""
        import numpy as np

        raw = self._rng.randbytes((count + 7) // 8)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits[:count]


def binom_sample(n: int, p: float, rng: RngStream) -> int:
    """Draw from Binomial(n, p) in O(1 + k) time via geometric skips.

    Walks the success positions S += floor(log(u)/log(1-p)) + 1 and counts
    the successes whose position lands within the n trials, always using
    exactly k + 1 draws.  (Counting iterations of the skip loop itself would
    miss a success landing on trial n and deliver Binomial(n-1, p).)  p = 0
    and p = 1 short-circuit before the loop, where log(1-p) degenerates.
    Accepts arbitrarily large trial counts; the loop never materializes n
    items.
    """
    if n < 0:
        raise ValueError(f"trial count must be >= 0, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    log_q = math.log1p(-p)
    k = 0
    s = 0
    while True:
        u = rng.uniform_open()
        s += math.floor(math.log(u) / log_q) + 1
        if s > n:
            return k
        k += 1


def compress(ids, trials, probs, rng: RngStream) -> tuple[list[int], list[float]]:
    """Compress edges: edge ids[i] draws r ~ Binomial(trials[i], probs[i])
    from `rng`, one draw per edge in order, and is kept at weight
    r / probs[i] when r > 0.  The three are iterables of equal length, read
    once, in step.

    Unbiased: an edge's expected weight (absent counted as 0) is its trial
    count.  Returns the kept ids and their weights, in input order.
    """
    kept_ids: list[int] = []
    weights: list[float] = []
    for e, t, p in zip(ids, trials, probs):
        r = binom_sample(t, p, rng)
        if r > 0:
            kept_ids.append(e)
            weights.append(r / p)
    return kept_ids, weights
