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
from .dsu import ForestDsu
from .msf import (
    OVER,
    EstimatedMsfPacking,
    MsfPacking,
    bottleneck_weights,
    msf_packing_bounded,
    msf_packing_windowed,
)
from .ni import ni_preprocess, ni_indices
from .oracles import CutReport, check_sparsifier, exact_min_cut
from .sampling import RngStream, binom_sample, compress_edge
from .sparsify import (
    LevelOverflowError,
    RunReport,
    SparsifyConfig,
    approx_min_cut,
    pipeline,
    practical_rho_scale,
    reduce_real_weights,
    rho,
    scale_back,
    sparsify,
    sparsify_once,
    sparsify_once_with_report,
    sparsify_unbounded,
    sparsify_unbounded_with_report,
    sparsify_with_report,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_WEIGHT",
    "OVER",
    "CutReport",
    "CutSpec",
    "EstimatedMsfPacking",
    "ForestDsu",
    "GraphFormatError",
    "LevelOverflowError",
    "MsfPacking",
    "RngStream",
    "RunReport",
    "SparseGraph",
    "SparsifyConfig",
    "WeightedGraph",
    "approx_min_cut",
    "binom_sample",
    "bottleneck_weights",
    "check_sparsifier",
    "compress_edge",
    "cut_weight",
    "exact_min_cut",
    "ni_preprocess",
    "load_graph",
    "load_sparse",
    "msf_packing_bounded",
    "msf_packing_windowed",
    "ni_indices",
    "pipeline",
    "practical_rho_scale",
    "reduce_real_weights",
    "rho",
    "save_graph",
    "scale_back",
    "sparsify",
    "sparsify_once",
    "sparsify_once_with_report",
    "sparsify_unbounded",
    "sparsify_unbounded_with_report",
    "sparsify_with_report",
]
