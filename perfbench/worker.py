"""Workload process: runs a workload's CLI operations through
`cutsparse.cli.main(argv)` in-process, one at a time, pass after pass, until
the time budget is spent.

Usage: python3 worker.py SPEC.json   (PYTHONPATH must reach the library)

SPEC lists the operations of one pass (argv, and the file each writes, or
"-" when the result is what it prints), the seconds to measure, whether to
trace, and where to write results.  Each pass starts after a full garbage
collection, as a fresh CLI process would, and is bracketed by the reference
loop of `hostspeed`.  With tracing on, passes alternate between untraced and
traced, so both halves see the same host speed; spans carry the pass number
as their operation id and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hostspeed import reference_seconds
from tracing import Tracer

MIN_PASSES = 3  # per kind (untraced, traced): repeats are compared by digest


def _run_once(main, argv: list[str]) -> tuple[int, str, str | None]:
    """(exit code, captured stdout, error text)"""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        return rc, buf.getvalue(), None
    except SystemExit as exc:  # argparse rejects the flags
        return exc.code if isinstance(exc.code, int) else 2, buf.getvalue(), f"SystemExit({exc.code})"
    except Exception:  # the operation failed; record it and keep measuring
        return -1, buf.getvalue(), traceback.format_exc()


def _digest(output: str, stdout: str) -> str | None:
    if output == "-":
        return hashlib.sha256(stdout.encode()).hexdigest()
    path = Path(output)
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    ops = spec["ops"]
    traced_mode = bool(spec["trace"])

    import cutsparse.cli as cli

    tracer = Tracer() if traced_mode else None
    records: list[dict] = []
    passes: list[dict] = []
    refs: list[float] = []
    last_stdout = [""] * len(ops)
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        p = len(passes)
        traced = traced_mode and p % 2 == 1
        gc.collect()
        refs.append(reference_seconds())
        if traced:
            tracer.install()
        pass_wall = 0.0
        try:
            for k, op in enumerate(ops):
                if op["output"] != "-":
                    Path(op["output"]).unlink(missing_ok=True)
                t0 = time.perf_counter()
                if traced:
                    rc, stdout, err = tracer.op(p, _run_once, cli.main, op["argv"])
                else:
                    rc, stdout, err = _run_once(cli.main, op["argv"])
                wall = time.perf_counter() - t0
                pass_wall += wall
                last_stdout[k] = stdout
                records.append(
                    {
                        "pass": p,
                        "op": k,
                        "traced": traced,
                        "rc": rc,
                        "wall_s": wall,
                        "sha256": _digest(op["output"], stdout),
                        "error": err,
                    }
                )
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"pass": p, "traced": traced, "wall_s": pass_wall})
        done = sum(1 for q in passes if not q["traced"])
        if traced_mode:
            done = min(done, sum(1 for q in passes if q["traced"]))
        if time.perf_counter() >= deadline and done >= MIN_PASSES:
            break
    refs.append(reference_seconds())

    result = {
        "records": records,
        "passes": passes,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "last_stdout": last_stdout,
    }
    if tracer is not None:
        tracer.save(spec["spans"])
        result["missing_hooks"] = tracer.missing
        result["counts"] = {str(op): dict(c) for op, c in tracer.counts.items() if op >= 0}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
