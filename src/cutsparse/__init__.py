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
from .msf import (
    OVER,
    bottleneck_weights,
    msf_packing_bounded,
    msf_packing_windowed,
)
from .oracles import CutReport, check_sparsifier, exact_min_cut
from .sparsify import (
    LevelOverflowError,
    RunReport,
    SparsifyConfig,
    approx_min_cut,
    reduce_real_weights,
    scale_back,
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
    "bottleneck_weights",
    "check_sparsifier",
    "cut_weight",
    "exact_min_cut",
    "load_graph",
    "load_sparse",
    "msf_packing_bounded",
    "msf_packing_windowed",
    "reduce_real_weights",
    "save_graph",
    "scale_back",
    "sparsify",
]
