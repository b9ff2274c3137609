"""Host-speed normalisation of measured times.

On a shared host the speed of one core drifts by up to a third over tens of
seconds (the same pure-Python loop takes 0.11 s in one minute and 0.18 s in
the next), and CPU time drifts with wall time, so a median over one 20 s run
moves with the host, not with the program.  Each measured interval is
therefore bracketed by a fixed reference loop, timed just before and just
after it, and reported as

    wall * REFERENCE_S / mean(reference before, reference after)

that is, in seconds on a host where the reference loop takes REFERENCE_S.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.05
_ITERATIONS = 600_000


def _reference_loop() -> int:
    s = 0
    for i in range(_ITERATIONS):
        s += i * i % 7
    return s


def reference_seconds() -> float:
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


def normalised(walls: list[float], refs: list[float]) -> list[float]:
    """`refs` has one more entry than `walls`: refs[i] precedes walls[i]."""
    return [w * REFERENCE_S / ((refs[i] + refs[i + 1]) / 2) for i, w in enumerate(walls)]
