"""Locks the package's public names and the hooks the benchmark's tracer needs.

The benchmark in perfbench/ times the library by patching named functions;
a hook whose target disappears silently drops that layer's metrics, so the
lookup is checked here, where the default test run sees it.
"""

import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import cutsparse
from cutsparse import SparsifyConfig

PUBLIC_NAMES = [
    "MAX_WEIGHT",
    "OVER",
    "CutReport",
    "CutSpec",
    "GraphFormatError",
    "LevelOverflowError",
    "RunReport",
    "SparseGraph",
    "SparsifyConfig",
    "WeightedGraph",
    "approx_min_cut",
    "check_sparsifier",
    "cut_weight",
    "exact_min_cut",
    "load_graph",
    "load_sparse",
    "msf_packing_bounded",
    "save_graph",
    "sparsify",
]

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_all_is_the_locked_list():
    assert cutsparse.__all__ == PUBLIC_NAMES


def test_config_fields_are_the_locked_list():
    # the weight regime and the file format are settled on the input
    assert [f.name for f in fields(SparsifyConfig)] == ["epsilon", "seed", "rho_scale", "method", "mode"]


def test_every_public_name_resolves():
    for name in cutsparse.__all__:
        assert getattr(cutsparse, name, None) is not None, name


def test_sparsify_module_binds_the_benchmark_names():
    # perfbench/ imports the unbounded single-round run, hooks
    # sparsify_with_report and checks that the tracer restores the packing and
    # bottleneck bindings.  The package attribute `cutsparse.sparsify` is the
    # function, and `import cutsparse.sparsify as sp` binds it too, as README
    # "Library entry points" says, so look the module up directly
    import cutsparse.sparsify as sp

    assert sp is cutsparse.sparsify
    module = sys.modules["cutsparse.sparsify"]
    # sparsify is the one entry point: the polynomial single round lives in
    # tests/reference.py as single_round
    assert not hasattr(module, "sparsify_once_with_report")
    assert callable(module.sparsify_unbounded_with_report)
    assert module.sparsify_with_report is module.sparsify
    assert module.msf_packing_bounded is sys.modules["cutsparse.msf"].msf_packing_bounded
    assert module.bottleneck_weights is sys.modules["cutsparse.msf"].bottleneck_weights


def test_benchmark_tracer_finds_every_hook(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
