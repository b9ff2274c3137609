"""Cut sparsification toolkit built on partial maximum-spanning-forest packings."""

from .graph import (
    MAX_WEIGHT,
    CutSpec,
    GraphFormatError,
    SparseGraph,
    WeightedGraph,
    cut_weight,
    load_graph,
    load_sparse,
    save_graph,
)
from .msf import OVER, msf_packing_bounded
from .oracles import CutReport, check_sparsifier, exact_min_cut
from .sparsify import (
    LevelOverflowError,
    RunReport,
    SparsifyConfig,
    approx_min_cut,
    sparsify,
)

__version__ = "0.1.0"

__all__ = [
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
