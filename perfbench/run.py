"""Benchmark of the cutsparse CLI on seeded synthetic workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload poly-sparse --seed 1 --seconds 20 --trace 0

The run generates its input graph from --seed, measures the import time of
the CLI in fresh interpreters, then starts one workload process that runs the
workload's CLI operations in-process, one at a time, pass after pass, for
--seconds.  Every output is checked (exit code, determinism, sampling
actually happened, cut errors within 2*epsilon, min cut within 1+2*epsilon
of exact).  The last line
of standard output is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  Inputs, outputs,
spans and a full result record are left in .perfbench_work/ of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import layers
from hostspeed import normalised, reference_seconds
from tracing import Spans
from workloads import EPSILON, WORKLOADS, generate, write_edgelist

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 20
WORKER_GRACE_S = 60  # beyond --seconds: start-up plus one slow pass
REL_TOL = 1e-9
QUALITY_SEED_STRIDE = 1_000_003  # sampler seeds of the quality average: seed + j * stride

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
    "output_ratio": "ratio",
    "rms_rel_error": "ratio",
}


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref_file = ROOT / ".git" / commit[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
    # A checkout without .git still identifies the program by its sources.
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _setup_seconds(env: dict) -> tuple[float, list[float]]:
    """Median host-normalised wall time of a fresh interpreter importing the
    CLI, and the raw wall times.

    The wait blocks in waitpid: `subprocess.run(timeout=...)` polls with
    sleeps of up to 50 ms, which would round every time up to that grid.  A
    timer kills an import that hangs.
    """
    times, refs = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import cutsparse.cli"], env=env)
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
        refs.append(reference_seconds())
    return statistics.median(normalised(times, refs)), times


def _check_sparsifier(g, output: Path, report: Path, eps: float, seed: int, msf: bool) -> dict:
    """Quality gate of one sparsifier file; returns the values it measured
    and the reasons it failed, if any."""
    failures = []
    n, u, v, w = check.read_edgelist(output)
    if n != g.n:
        failures.append(f"output has n={n}, input n={g.n}")
    ratio = len(u) / g.m
    if ratio >= 1.0:
        failures.append(f"output_ratio {ratio} >= 1: the input came back unchanged")
    if check.components(g.n, g.u, g.v) == 1 and check.components(n, u, v) != 1:
        failures.append("input is connected, output is not")
    rounds = json.loads(report.read_text())["rounds"]
    if msf and not any(not r["early_out"] for r in rounds):
        failures.append("every round took the early out")
    errors = check.rel_errors(g, n, u, v, w, seed)
    worst = float(errors.max())
    if not worst <= 2 * eps:
        failures.append(f"max_rel_error {worst} > 2*epsilon")
    return {
        "output_ratio": ratio,
        "max_rel_error": worst,
        "rms_rel_error": float(np.sqrt(np.mean(np.minimum(errors, 1e6) ** 2))),
        "rounds": len(rounds),
        "failures": failures,
    }


def _check_mincut(g, stdout: str, eps: float) -> dict:
    lines = dict(ln.split(" ", 1) for ln in stdout.strip().splitlines() if " " in ln)
    value = float(lines["value"])
    side = np.zeros(g.n, dtype=bool)
    side[[int(x) for x in lines["side"].split()]] = True
    failures = []
    found = check.cut_weight(g.u, g.v, g.w, side)
    if abs(found - value) > REL_TOL * max(1.0, value):
        failures.append(f"printed value {value} != weight of printed side {found}")
    exact = check.stoer_wagner(g.n, g.u, g.v, g.w)
    ratio = value / exact
    if not ratio <= 1 + 2 * eps:
        failures.append(f"mincut_ratio {ratio} > 1 + 2*epsilon")
    return {"mincut_value": value, "exact_min_cut": exact, "mincut_ratio": ratio, "failures": failures}


def _trace_metrics(spans_path: Path, worker: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics: medians over the traced passes."""
    counts = {int(p): c for p, c in worker["counts"].items()}
    stats = layers.op_stats(Spans.load(spans_path), counts)
    traced = [q["pass"] for q in worker["passes"] if q["traced"]]
    failures = []
    for p in traced:
        gap = layers.self_sum_gap(stats[p])
        if gap > 1e-6:
            failures.append(f"pass {p}: self times miss the traced wall time by {gap:.2e}")
    values, absent = layers.per_layer([stats[p] for p in traced], worker["missing_hooks"])
    untraced_s = statistics.median(q["norm_s"] for q in worker["passes"] if not q["traced"])
    values[layers.OVERHEAD] = statistics.median(q["norm_s"] for q in worker["passes"] if q["traced"]) / untraced_s - 1.0
    units = {name: spec[0] for name, spec in layers.PER_LAYER.items()} | {layers.OVERHEAD: "ratio"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, absent, failures


def _op_files(op, work: Path, tag: str, seed: int) -> dict:
    """argv of one operation, with the files it reads and writes."""
    fields = {
        "input": work / "input.txt",
        "output": work / f"output-{tag}.txt",
        "report": work / f"report-{tag}.json",
        "seed": seed,
    }
    return {
        "argv": [a.format(**fields) for a in op.argv],
        "output": str(fields["output"]) if op.kind == "sparsify" else "-",
        "report": str(fields["report"]),
    }


def _cli(argv: list[str]) -> int:
    """Run the CLI in this process, for outputs the gate needs beyond the
    timed ones."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cutsparse import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sparsify_quality(g, wl, k: int, spec: dict, work: Path, seed: int) -> dict:
    """Gate the timed output of sparsify operation k and the outputs of the
    workload's further sampler seeds; average their output metrics."""
    msf = "msf" in spec["argv"]
    runs = [_check_sparsifier(g, Path(spec["output"]), Path(spec["report"]), EPSILON, seed, msf)]
    for j in range(1, wl.quality_seeds):
        extra = _op_files(wl.ops[k], work, f"{k}-seed{j}", seed + j * QUALITY_SEED_STRIDE)
        if _cli(extra["argv"]) != 0:
            raise ValueError(f"sampler seed {j} of the quality average failed")
        runs.append(_check_sparsifier(g, Path(extra["output"]), Path(extra["report"]), EPSILON, seed, msf))
    return {
        "output_ratio": statistics.mean(r["output_ratio"] for r in runs),
        "rms_rel_error": statistics.mean(r["rms_rel_error"] for r in runs),
        "max_rel_error": max(r["max_rel_error"] for r in runs),
        "rounds": runs[0]["rounds"],
        "failures": [f for r in runs for f in r["failures"]],
        "per_seed": [{key: v for key, v in r.items() if key != "failures"} for r in runs],
    }


def _gate(wl, g, worker: dict, ops: list[dict], work: Path, seed: int) -> dict:
    """Check the last output of every operation of the pass.  Returns what
    was measured, under the operation's index, and the failures."""
    checks: dict = {"failures": []}
    for k, (op, spec) in enumerate(zip(wl.ops, ops)):
        try:
            if op.kind == "sparsify":
                res = _sparsify_quality(g, wl, k, spec, work, seed)
            else:
                res = _check_mincut(g, worker["last_stdout"][k], EPSILON)
                # The sparsifier the mincut operation ran on: `sparsify` with
                # the same flags builds the same one.
                out, rep = work / f"mincut-sparsifier-{k}.txt", work / f"mincut-report-{k}.json"
                argv = ["sparsify", "--output", str(out), "--report", str(rep), "--method", "msf"]
                if _cli(argv + spec["argv"][1:]) != 0:
                    raise ValueError("rebuilding the mincut sparsifier failed")
                sparse = _check_sparsifier(g, out, rep, EPSILON, seed, msf=True)
                res["failures"] += sparse.pop("failures")
                res["sparsifier"] = sparse
        except Exception as exc:  # the gate reports any failure of the program as a failed check
            res = {"failures": [f"output does not check: {exc!r}"]}
        checks["failures"] += [f"op {k} ({op.kind}): {f}" for f in res.pop("failures")]
        checks[str(k)] = res
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cutsparse" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'cutsparse'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    work = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    g = generate(wl, args.seed)
    write_edgelist(g, work / "input.txt")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    setup_s, setup_walls = _setup_seconds(env)

    ops = [_op_files(op, work, str(k), args.seed) for k, op in enumerate(wl.ops)]
    spec = {
        "ops": ops,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": str(work / "worker.json"),
        "spans": str(work / "spans.npz"),
    }
    (work / "spec.json").write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
        env=env,
        check=True,
        timeout=args.seconds + WORKER_GRACE_S,
    )
    worker = json.loads((work / "worker.json").read_text())
    records = worker["records"]
    passes = worker["passes"]
    for q, norm in zip(passes, normalised([q["wall_s"] for q in passes], worker["refs"])):
        q["norm_s"] = norm

    # --- correctness gate: exit codes, repeatable digests, quality of the outputs
    reference = {}
    for r in records:
        if not r["traced"] and r["rc"] == 0:
            reference.setdefault(r["op"], r["sha256"])
    op_failed = [r["rc"] != 0 or r["sha256"] is None or r["sha256"] != reference.get(r["op"]) for r in records]
    checks: dict = {"failures": []}
    if len(reference) == len(ops):
        checks = _gate(wl, g, worker, ops, work, args.seed)
        if checks["failures"]:
            op_failed = [True] * len(records)
    op_error = next((r["error"] for r in records if r["error"]), None)

    attempted = len(records)
    failed = sum(op_failed)
    correct = failed == 0
    untraced = [q["norm_s"] for q in passes if not q["traced"]]
    absent: list[str] = []
    if args.trace:
        metrics, absent, trace_failures = _trace_metrics(work / "spans.npz", worker)
        checks["failures"] += trace_failures
        correct = correct and not trace_failures
    else:
        # The output metrics are those of the pass's sparsify operation,
        # averaged over the workload's quality seeds; 1.0 stands in when it
        # could not be checked (then correct is false).
        sparsify = next(str(k) for k, op in enumerate(wl.ops) if op.kind == "sparsify")
        values = {
            "setup_s": setup_s,
            "op_s": statistics.median(untraced),
            "peak_rss_mb": worker["peak_rss_mb"],
            "output_ratio": checks.get(sparsify, {}).get("output_ratio", 1.0),
            "rms_rel_error": checks.get(sparsify, {}).get("rms_rel_error", 1.0),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [op["argv"] for op in ops],
        "environment": _environment(),
        "input_sha256": hashlib.sha256((work / "input.txt").read_bytes()).hexdigest(),
        "output_sha256": [reference.get(k) for k in range(len(ops))],
        "setup_wall_s": setup_walls,
        "reference_s": worker["refs"],
        "passes": passes,
        "ops": [{k: r[k] for k in ("pass", "op", "traced", "rc", "wall_s", "sha256")} for r in records],
        "checks": checks,
        "absent_metrics": absent,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    if op_error:
        print(f"an operation failed:\n{op_error}", file=sys.stderr)
    for failure in checks["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    if absent:
        print(f"absent (hooked name gone): {', '.join(absent)}", file=sys.stderr)
    print(
        f"{wl.name} seed={args.seed} trace={args.trace}: {len(passes)} passes, {len(untraced)} untraced "
        f"(median {statistics.median(untraced):.4f} s host-normalised), {failed} of {attempted} ops failed, "
        f"output sha256 {result['output_sha256']}"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
