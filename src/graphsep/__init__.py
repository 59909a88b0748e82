"""Multipartite graph density matrices and certified separable decompositions.

The package builds adjacency/Laplacian/density matrices of multipartite-
labelled simple graphs, applies the layer-swap partial transpose at both the
graph and matrix level, tests degree and partial symmetry, and, for graphs
meeting the block-uniformity hypotheses, produces and verifies an explicit
fully separable decomposition of the signless-Laplacian density matrix.
"""

from .errors import ConstructionError, GraphFormatError, PreconditionError
from .generators import (
    SplitMix64,
    gen_degree_symmetric_only,
    gen_partially_symmetric,
    gen_theorem_graph,
)
from .graphs import (
    COMBINATORIAL,
    SIGNLESS,
    DensityMatrix,
    DimensionProfile,
    MultipartiteGraph,
    adjacency_matrix,
    degree_matrix,
    density_matrix,
    format_graph,
    format_matrix,
    laplacian,
    parse_graph,
    signless_laplacian,
    vertex_cap,
    vertex_index,
    vertex_label,
)
from .linalg import (
    Eigendecomposition,
    inf_norm,
    is_diagonally_dominant,
    is_psd,
    kron,
    partial_transpose_matrix,
    spectral_decomposition,
)
from .separability import (
    ConditionReport,
    DecompositionTerm,
    SeparableDecomposition,
    check_theorem_conditions,
    decompose,
    format_decomposition,
    parse_decomposition,
    ppt_check,
    theorem1_transfer,
    verify_decomposition,
)
from .transforms import (
    gtpt,
    gtpt_matrix_identity,
    is_degree_symmetric,
    is_partially_symmetric,
    swap_edge,
    swap_edges,
)

__version__ = "0.1.0"

__all__ = [
    "COMBINATORIAL",
    "SIGNLESS",
    "ConditionReport",
    "ConstructionError",
    "DecompositionTerm",
    "DensityMatrix",
    "DimensionProfile",
    "Eigendecomposition",
    "GraphFormatError",
    "MultipartiteGraph",
    "PreconditionError",
    "SeparableDecomposition",
    "SplitMix64",
    "adjacency_matrix",
    "check_theorem_conditions",
    "decompose",
    "degree_matrix",
    "density_matrix",
    "format_decomposition",
    "format_graph",
    "format_matrix",
    "gen_degree_symmetric_only",
    "gen_partially_symmetric",
    "gen_theorem_graph",
    "gtpt",
    "gtpt_matrix_identity",
    "inf_norm",
    "is_degree_symmetric",
    "is_diagonally_dominant",
    "is_partially_symmetric",
    "is_psd",
    "kron",
    "laplacian",
    "parse_decomposition",
    "parse_graph",
    "partial_transpose_matrix",
    "ppt_check",
    "signless_laplacian",
    "spectral_decomposition",
    "swap_edge",
    "swap_edges",
    "theorem1_transfer",
    "verify_decomposition",
    "vertex_cap",
    "vertex_index",
    "vertex_label",
]
