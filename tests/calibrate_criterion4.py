"""Calibration driver for the practical-mode cut-preservation tolerances.

Run it from the repository root (`python tests/calibrate_criterion4.py
[seeds]`; CI runs it at 2 seeds as a smoke check); the locked results live
in tests/calibration.py and the acceptance suite re-checks them.
"""

import sys
import time

sys.path.insert(0, "tests")

from conftest import topology_gallery
from reference import single_round
from cutsparse import SparsifyConfig
from cutsparse.oracles import _all_cut_weights


def main() -> None:
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    eps = 0.5
    print(f"{'topology':24s} {'m':>5s} {'p50':>7s} {'p95':>7s} {'max':>7s} "
          f"{'>eps':>5s} {'>2eps':>6s} {'ms/run':>7s}")
    worst_p95 = 0.0
    for name, g in topology_gallery():
        base = _all_cut_weights(g)[1:]
        errors = []
        t0 = time.perf_counter()
        for seed in range(seeds):
            cfg = SparsifyConfig(epsilon=eps, seed=seed, mode="practical")
            h, _ = single_round(g, cfg)
            out = _all_cut_weights(h)[1:]
            errors.append(float(max(abs(out / base - 1.0))))
        dt = (time.perf_counter() - t0) * 1e3 / seeds
        errors.sort()
        p50 = errors[len(errors) // 2]
        p95 = errors[int(len(errors) * 0.95)]
        over = sum(e > eps for e in errors)
        over2 = sum(e > 2 * eps for e in errors)
        worst_p95 = max(worst_p95, p95)
        print(f"{name:24s} {g.m:5d} {p50:7.3f} {p95:7.3f} {errors[-1]:7.3f} "
              f"{over:5d} {over2:6d} {dt:7.1f}")
    print(f"worst per-topology p95: {worst_p95:.3f}")


if __name__ == "__main__":
    main()
