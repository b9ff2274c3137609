"""Command-line front door: sparsify, verify, mincut, msf, and bench.

`sparsify`, `mincut` and `bench` turn their flags into one SparsifyConfig and
call `sparsify`: practical mode is rho = 8 in every msf round and rho = 25 in
every NI pass, and an explicit --rho-scale selects theory mode instead.  The
input settles the rest: the loaders tell edge-list from DIMACS text, and
`sparsify` picks the weight regime from W and n.  `verify` reads both files
with real weights.  Output files are edge lists.  The `sparsify` command
warns on stderr when the `sparsify` call returns its input, which it does
exactly when every round took the early out, and then writes that input.

Every subcommand is deterministic for fixed flags, including `--seed` (for
`bench`, `--seeds`); the only non-reproducible fields are wall-clock entries
in reports and bench tables.

Subcommands return nothing or raise; `main` alone decides the exit code and
prints one `error:` line for a failure: 0 success, 1 file error (input
unreadable or unparsable, output unwritable) or an input too large to hold
in memory, 2 configuration violation, 3 internal level-guard overflow.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .graph import (
    GraphFormatError,
    load_graph,
    load_sparse,
    save_graph,
)
from .msf import OVER, msf_packing_bounded
from .oracles import ENUMERATION_LIMIT, check_sparsifier
from .sparsify import (
    METHODS,
    MODES,
    PRACTICAL_NI_RHO,
    PRACTICAL_RHO,
    LevelOverflowError,
    SparsifyConfig,
    approx_min_cut,
    sparsify,
)

EXIT_OK = 0
EXIT_FILE = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, required=True, help="precision in (0,1)")
    p.add_argument(
        "--mode",
        choices=MODES,
        default="theory",
        help="theory keeps the literal constants; practical runs every msf "
        f"round at rho = {PRACTICAL_RHO:g} and every NI pass at rho = "
        f"{PRACTICAL_NI_RHO:g}",
    )
    p.add_argument(
        "--rho-scale",
        type=float,
        default=None,
        help="explicit multiplier on rho (overrides --mode)",
    )


def _build_config(args: argparse.Namespace, method: str = "msf") -> SparsifyConfig:
    theory = args.rho_scale is not None
    return SparsifyConfig(
        epsilon=args.epsilon,
        seed=args.seed,
        rho_scale=args.rho_scale if theory else 1.0,
        method=method,
        mode="theory" if theory else args.mode,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutsparse",
        description="Cut sparsification via partial maximum-spanning-forest packings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sparsify = sub.add_parser("sparsify", help="write a cut sparsifier")
    p_sparsify.add_argument("--input", required=True)
    p_sparsify.add_argument("--output", required=True)
    p_sparsify.add_argument("--method", choices=METHODS, default="msf")
    p_sparsify.add_argument("--report", default=None, help="write a JSON run report")
    _add_config_flags(p_sparsify)

    p_verify = sub.add_parser("verify", help="exhaustively compare two graphs")
    p_verify.add_argument("--graph", required=True, help="base graph file")
    p_verify.add_argument("--sparsifier", required=True, help="candidate graph file")

    p_mincut = sub.add_parser("mincut", help="approximate minimum cut")
    p_mincut.add_argument("--input", required=True)
    _add_config_flags(p_mincut)

    p_msf = sub.add_parser("msf", help="dump forest indices per edge")
    p_msf.add_argument("--input", required=True)
    p_msf.add_argument("--levels", type=int, required=True, help="forest count M")

    p_bench = sub.add_parser("bench", help="run a corpus and emit a CSV table")
    p_bench.add_argument("--corpus", required=True, help="directory of graph files")
    p_bench.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_bench.add_argument("--methods", default="msf,ni", help="comma-separated methods")
    p_bench.add_argument("--output", default=None, help="CSV path (default stdout)")
    _add_config_flags(p_bench)
    p_bench.set_defaults(seed=0)  # bench's seeds come from --seeds, which `--seed` abbreviates
    for p in (p_sparsify, p_mincut):
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")

    return parser


def _cmd_sparsify(args: argparse.Namespace) -> None:
    t_start = time.perf_counter()
    g = load_graph(args.input)
    timings_ms = {"load": (time.perf_counter() - t_start) * 1e3}
    cfg = _build_config(args, args.method)
    t0 = time.perf_counter()
    h, reports = sparsify(g, cfg)
    t1 = time.perf_counter()
    timings_ms["sparsify"] = (t1 - t0) * 1e3
    save_graph(h, args.output)
    t_end = time.perf_counter()
    timings_ms["save"] = (t_end - t1) * 1e3
    timings_ms["total"] = (t_end - t_start) * 1e3
    if args.report:
        payload = {
            "input": {"n": g.n, "m": g.m, "w_max": g.max_weight()},
            "config": asdict(cfg),
            "output_size": h.m,
            "rounds": [r.to_dict() for r in reports],
            "timings_ms": timings_ms,
        }
        Path(args.report).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if h is g:
        print(
            f"warning: every round took the early out ({reports[-1].early_out_reason}); "
            "the output is its input",
            file=sys.stderr,
        )


def _cmd_verify(args: argparse.Namespace) -> None:
    g = load_sparse(args.graph)
    h = load_sparse(args.sparsifier)
    print(json.dumps(check_sparsifier(g, h).to_dict(), sort_keys=True))


def _cmd_mincut(args: argparse.Namespace) -> None:
    g = load_graph(args.input)
    cut, value = approx_min_cut(g, _build_config(args))
    print(f"value {value}")
    print("side " + " ".join(str(v) for v in cut.vertices(g.n)))


def _cmd_msf(args: argparse.Namespace) -> None:
    g = load_graph(args.input)
    levels = msf_packing_bounded(g, args.levels).levels.tolist()
    for eid, ((u, v, w), level) in enumerate(zip(g.edges(), levels)):
        print(f"{eid} {u} {v} {w} {'OVER' if level == OVER else level}")


def _cmd_bench(args: argparse.Namespace) -> None:
    corpus = [p for p in sorted(Path(args.corpus).glob("*")) if p.is_file()]
    if not corpus:
        raise FileNotFoundError(f"no graph files in {args.corpus}")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise ValueError("--seeds lists no seed")
    configs = [_build_config(args, m.strip()) for m in args.methods.split(",") if m.strip()]
    if not configs:
        raise ValueError("--methods lists no method")

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["graph", "method", "mode", "size_out", "max_rel_error", "time_ms"])
    for path in corpus:
        try:
            g = load_graph(path)
        except GraphFormatError as exc:
            raise GraphFormatError(f"{path}: {exc}") from exc
        for cfg in configs:
            sizes = []
            errors = []
            times = []
            for seed in seeds:
                t0 = time.perf_counter()
                h, _ = sparsify(g, replace(cfg, seed=seed))
                times.append((time.perf_counter() - t0) * 1e3)
                sizes.append(h.m)
                if 2 <= g.n <= ENUMERATION_LIMIT:
                    errors.append(check_sparsifier(g, h).max_rel_error)
            writer.writerow([
                path.name,
                cfg.method,
                cfg.mode,
                f"{sum(sizes) / len(sizes):.1f}",
                f"{sum(errors) / len(errors):.6f}" if errors else "",
                f"{sum(times) / len(times):.3f}",
            ])
    text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "sparsify": _cmd_sparsify,
    "verify": _cmd_verify,
    "mincut": _cmd_mincut,
    "msf": _cmd_msf,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # GraphFormatError is a ValueError, so the file errors go first
    try:
        _COMMANDS[args.command](args)
        return EXIT_OK
    except (GraphFormatError, OSError) as exc:
        error, code = exc, EXIT_FILE
    except MemoryError as exc:  # numpy's says what it could not allocate; Python's says nothing
        error, code = ": ".join(filter(None, ("out of memory", str(exc)))), EXIT_FILE
    except LevelOverflowError as exc:
        error, code = exc, EXIT_GUARD
    except ValueError as exc:
        error, code = exc, EXIT_CONFIG
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
