"""Exact Riemann-Roch machinery for full-rank sub-lattices of A_n.

The package computes divisor ranks, extremal and critical points, genus
bounds and reflection/uniformity classification for integer lattices given
by zero-sum basis rows, with graph and directed-graph Laplacian lattices as
the primary worked family.  All arithmetic is exact (ints and Fractions).
"""

from .core import (
    BudgetExceeded,
    LatticeBasis,
    deg_plus,
    degree,
    node_budget,
    project_H0,
)
from .graphs import (
    Multigraph,
    RegularDigraph,
    canonical_divisor,
    connected_simple_graphs,
    graph_from_json_dict,
    graph_from_text,
    laplacian_lattice,
    random_connected_multigraph,
    spanning_tree_count,
)
from .geometry import (
    CriticalPoint,
    covering_number,
    critical_distance,
    duality_probe,
    h_distance,
    is_extremal,
    sigma_contains,
    simplicial_distance,
    svg_render_2d,
    verify_critical,
)
from .extremal import (
    ExtremalClass,
    ExtremalSet,
    canonical_point,
    classify,
    extremal_set_general,
    extremal_set_graphical,
    nu_of_permutation,
    reflection_pairing,
    voronoi_cell_vertices,
)
from .rank import (
    RankResult,
    default_divisor_samples,
    linear_system_nonempty,
    rank_bruteforce,
    rank_extremal,
    verify_riemann_roch,
    verify_weak_rr,
)
from .a2 import (
    classify_a2,
    digraph_basis,
    digraph_of_basis,
    extend_family,
    is_multi_tree_lattice,
    random_a2_lattice,
)
from .chipfire import Configuration, fire, fire_script, kc_minus, winnable
from .hardness import (
    RationalSimplex,
    reduce_simplex_to_membership,
    simplex_has_integer_point,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "LatticeBasis",
    "deg_plus",
    "degree",
    "node_budget",
    "project_H0",
    "Multigraph",
    "RegularDigraph",
    "canonical_divisor",
    "connected_simple_graphs",
    "graph_from_json_dict",
    "graph_from_text",
    "laplacian_lattice",
    "random_connected_multigraph",
    "spanning_tree_count",
    "CriticalPoint",
    "covering_number",
    "critical_distance",
    "duality_probe",
    "h_distance",
    "is_extremal",
    "sigma_contains",
    "simplicial_distance",
    "svg_render_2d",
    "verify_critical",
    "ExtremalClass",
    "ExtremalSet",
    "canonical_point",
    "classify",
    "extremal_set_general",
    "extremal_set_graphical",
    "nu_of_permutation",
    "reflection_pairing",
    "voronoi_cell_vertices",
    "RankResult",
    "default_divisor_samples",
    "linear_system_nonempty",
    "rank_bruteforce",
    "rank_extremal",
    "verify_riemann_roch",
    "verify_weak_rr",
    "classify_a2",
    "digraph_basis",
    "digraph_of_basis",
    "extend_family",
    "is_multi_tree_lattice",
    "random_a2_lattice",
    "Configuration",
    "fire",
    "fire_script",
    "kc_minus",
    "winnable",
    "RationalSimplex",
    "reduce_simplex_to_membership",
    "simplex_has_integer_point",
    "__version__",
]
