"""Tropical (min-plus) linear algebra toolkit.

Shortest-path matrices over the min-plus semiring, min-plus linear
regression in the infinity and Euclidean norms, min-plus low-rank
factorizations of distance matrices, and classical baselines (SVD, NNMF)
for comparison, plus a batch CLI.
"""

from .baselines import NnmfResult, SvdResult, nnmf, svd, svd_truncate
from .core import (
    INF,
    TropicalMatrix,
    frobenius_distance,
    is_idempotent,
    kleene_star,
    mp_multiply,
    mp_power,
    read_matrix_csv,
    write_matrix_csv,
)
from .errors import (
    DomainError,
    MinPlusError,
    NegativeCycleError,
    ParseError,
    ShapeError,
    UnboundedColumnError,
)
from .factorization import (
    FactorPair,
    NonsymFactorConfig,
    SymFactorConfig,
    actual_waypoint,
    actual_waypoint_search,
    jacobi_map,
    nonsym_factorize,
    residual_of_given_factor,
    sym_factorize,
)
from .graphs import (
    Graph,
    graph_to_adjacency,
    graph_to_tropical,
    load_edge_list,
    load_gml_subset,
    shortest_path_matrix,
)
from .regression import (
    RegressionConfig,
    RegressionOutcome,
    chebyshev_regression,
    newton_directed_line_search,
    principal_solution,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FactorPair",
    "Graph",
    "INF",
    "MinPlusError",
    "NegativeCycleError",
    "NnmfResult",
    "NonsymFactorConfig",
    "ParseError",
    "RegressionConfig",
    "RegressionOutcome",
    "ShapeError",
    "SvdResult",
    "SymFactorConfig",
    "TropicalMatrix",
    "UnboundedColumnError",
    "actual_waypoint",
    "actual_waypoint_search",
    "chebyshev_regression",
    "frobenius_distance",
    "graph_to_adjacency",
    "graph_to_tropical",
    "is_idempotent",
    "jacobi_map",
    "kleene_star",
    "load_edge_list",
    "load_gml_subset",
    "mp_multiply",
    "mp_power",
    "newton_directed_line_search",
    "nnmf",
    "nonsym_factorize",
    "principal_solution",
    "read_matrix_csv",
    "residual_of_given_factor",
    "shortest_path_matrix",
    "svd",
    "svd_truncate",
    "sym_factorize",
    "write_matrix_csv",
]
