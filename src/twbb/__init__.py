"""Exact anytime treewidth: branch and bound over elimination orders.

Quick start::

    from twbb import Graph, solve
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = solve(g)
    report.best_width   # 2, with report.optimal True
"""

from .bounds import mcs_lb, minor_min_width, minwidth_lb
from .decomposition import (
    TreeDecomposition,
    ValidationReport,
    build_decomposition,
    validate_decomposition,
)
from .formats import (
    ParseError,
    parse_dimacs_col,
    parse_pace_gr,
    parse_pace_td,
    write_pace_gr,
    write_pace_td,
)
from .generators import (
    PartialKTreeSpec,
    RandomGraphSpec,
    gen_partial_ktree,
    gen_random,
    mycielski,
    queen_graph,
)
from .graph import Graph, GraphError, connected_components, width_of_order
from .heuristics import EliminationOrder, best_upper_bound, min_fill_order
from .oracle import OracleResult, exact_treewidth, exact_treewidth_permutations
from .solver import (
    RunReport,
    SolverConfig,
    prune_fill_subset,
    prune_mutual_simplicial,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "EliminationOrder",
    "Graph",
    "GraphError",
    "OracleResult",
    "ParseError",
    "PartialKTreeSpec",
    "RandomGraphSpec",
    "RunReport",
    "SolverConfig",
    "TreeDecomposition",
    "ValidationReport",
    "best_upper_bound",
    "build_decomposition",
    "connected_components",
    "exact_treewidth",
    "exact_treewidth_permutations",
    "gen_partial_ktree",
    "gen_random",
    "mcs_lb",
    "min_fill_order",
    "minor_min_width",
    "minwidth_lb",
    "mycielski",
    "parse_dimacs_col",
    "parse_pace_gr",
    "parse_pace_td",
    "prune_fill_subset",
    "prune_mutual_simplicial",
    "queen_graph",
    "solve",
    "validate_decomposition",
    "width_of_order",
    "write_pace_gr",
    "write_pace_td",
]
