"""Per-layer metrics computed from the spans and counts of one traced run.

Each metric is a function of one operation's span statistics; the run
reports the median over its traced operations.  A metric whose hooks are
missing (the hooked name no longer exists) is absent from the output.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from tracing import ROOT, Spans, self_times


@dataclass
class OpStats:
    """What the trace saw during one operation."""

    wall: float = 0.0
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    windows: int = 0  # packings nested directly under a windowed estimate


def op_stats(spans: Spans, counts: dict[int, dict[str, float]]) -> dict[int, OpStats]:
    selfs = self_times(spans.start, spans.end, spans.parent)
    names = spans.names
    out: dict[int, OpStats] = defaultdict(OpStats)
    parent = spans.parent.tolist()
    name = spans.name.tolist()
    for idx, op in enumerate(spans.op.tolist()):
        st = out[op]
        nm = names[name[idx]]
        st.self_s[nm] += float(selfs[idx])
        st.calls[nm] += 1
        if nm == ROOT:
            st.wall += float(spans.end[idx] - spans.start[idx])
        elif nm == "msf.msf_packing_bounded" and parent[idx] >= 0:
            if names[name[parent[idx]]] == "msf.msf_packing_windowed":
                st.windows += 1
    for op, c in counts.items():
        if op in out:
            out[op].counts.update(c)
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# name -> (unit, better, hooks it needs, value from one operation)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...], Callable[[OpStats], float]]] = {
    "msf.pack_s": ("s", "lower", ("msf.msf_packing_bounded",), lambda s: s.self_s["msf.msf_packing_bounded"]),
    "msf.pack_calls": ("count", "lower", ("msf.msf_packing_bounded",), lambda s: s.calls["msf.msf_packing_bounded"]),
    "msf.pack_edges": ("count", "lower", ("msf.msf_packing_bounded",), lambda s: s.counts["msf.pack_edges"]),
    "msf.pack_forests": ("count", "lower", ("msf.msf_packing_bounded",), lambda s: s.counts["msf.pack_forests"]),
    "msf.pack_edges_per_s": (
        "1/s", "higher", ("msf.msf_packing_bounded",),
        lambda s: _ratio(s.counts["msf.pack_edges"], s.self_s["msf.msf_packing_bounded"]),
    ),
    "dsu.forests": ("count", "lower", ("dsu.forests",), lambda s: s.counts["dsu.forests"]),
    "msf.bottleneck_s": ("s", "lower", ("msf.bottleneck_weights",), lambda s: s.self_s["msf.bottleneck_weights"]),
    "msf.bottleneck_calls": ("count", "lower", ("msf.bottleneck_weights",), lambda s: s.calls["msf.bottleneck_weights"]),
    "msf.windowed_self_s": ("s", "lower", ("msf.msf_packing_windowed",), lambda s: s.self_s["msf.msf_packing_windowed"]),
    "msf.windows": ("count", "lower", ("msf.msf_packing_windowed", "msf.msf_packing_bounded"), lambda s: s.windows),
    "graph.load_s": ("s", "lower", ("graph.load_graph",), lambda s: s.self_s["graph.load_graph"]),
    "graph.save_s": ("s", "lower", ("graph.save_graph",), lambda s: s.self_s["graph.save_graph"]),
    "graph.assemble_s": ("s", "lower", ("graph.SparseGraph.from_edges",), lambda s: s.self_s["graph.SparseGraph.from_edges"]),
    "graph.edges_loaded": ("count", "lower", ("graph.load_graph",), lambda s: s.counts["graph.edges_loaded"]),
    "graph.edges_saved": ("count", "lower", ("graph.save_graph",), lambda s: s.counts["graph.edges_saved"]),
    "sampling.binom_s": ("s", "lower", ("sampling.binom_sample",), lambda s: s.self_s["sampling.binom_sample"]),
    "sampling.binom_calls": ("count", "lower", ("sampling.binom_sample",), lambda s: s.calls["sampling.binom_sample"]),
    "sampling.draws": ("count", "lower", ("sampling.draws",), lambda s: s.counts["sampling.draws"]),
    "sampling.coin_flips_s": ("s", "lower", ("sampling.RngStream.coin_flips",), lambda s: s.self_s["sampling.RngStream.coin_flips"]),
    "ni.indices_s": ("s", "lower", ("ni.ni_indices",), lambda s: s.self_s["ni.ni_indices"]),
    "ni.preprocess_self_s": ("s", "lower", ("ni.ni_preprocess",), lambda s: s.self_s["ni.ni_preprocess"]),
    "oracles.min_cut_s": ("s", "lower", ("oracles.exact_min_cut",), lambda s: s.self_s["oracles.exact_min_cut"]),
    "oracles.min_cut_n": ("count", "lower", ("oracles.exact_min_cut",), lambda s: s.counts["oracles.min_cut_n"]),
    "sparsify.self_s": (
        "s", "lower", ("sparsify.sparsify_with_report", "sparsify.approx_min_cut"),
        lambda s: s.self_s["sparsify.sparsify_with_report"] + s.self_s["sparsify.approx_min_cut"],
    ),
    "sparsify.reduce_s": ("s", "lower", ("sparsify.reduce_real_weights",), lambda s: s.self_s["sparsify.reduce_real_weights"]),
    "sparsify.rounds": ("count", "lower", ("sparsify.sparsify_with_report",), lambda s: s.counts["sparsify.rounds"]),
    "sparsify.early_out_rounds": ("count", "lower", ("sparsify.sparsify_with_report",), lambda s: s.counts["sparsify.early_out_rounds"]),
    "sparsify.levels": ("count", "lower", ("sparsify.sparsify_with_report",), lambda s: s.counts["sparsify.levels"]),
    "sparsify.set_aside": ("count", "lower", ("sparsify.sparsify_with_report",), lambda s: s.counts["sparsify.set_aside"]),
    "sparsify.report_coverage": (
        "ratio", "higher", ("sparsify.sparsify_with_report",),
        lambda s: _ratio(s.counts["sparsify.report_s"], s.wall),
    ),
    "cli.self_s": ("s", "lower", (), lambda s: s.self_s[ROOT]),
}

# Reported separately: it compares the traced with the untraced operations.
OVERHEAD = "trace.overhead_frac"


def per_layer(stats: list[OpStats], missing: list[str]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over the traced operations, and the absent names."""
    values: dict[str, float] = {}
    absent: list[str] = []
    for name, (_, _, needs, fn) in PER_LAYER.items():
        if any(h in missing for h in needs):
            absent.append(name)
            continue
        values[name] = float(statistics.median(fn(s) for s in stats))
    return values, absent


def self_sum_gap(stats: OpStats) -> float:
    """|sum of self times - traced wall time| as a share of the wall time."""
    return abs(sum(stats.self_s.values()) - stats.wall) / stats.wall
