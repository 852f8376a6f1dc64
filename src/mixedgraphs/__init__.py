"""Bipartite unit-degree mixed graphs: constructions, bounds, spectra, and
extremal search."""

from .bounds import (
    BoundsReport,
    bounds_report,
    crm_upper,
    eta,
    improved_bound,
    moore_bipartite,
)
from .core import (
    DegreeProfile,
    MixedGraph,
    are_isomorphic,
    bipartition,
    contract_edges,
    converse,
    format_edge_list,
    isomorphism_classes,
    parse_edge_list,
    validate_and_profile,
    verify_automorphism,
)
from .errors import (
    BadPermutationError,
    MalformedBaseError,
    MalformedGraphError,
    MixedGraphError,
    NoConvergenceError,
    NonDivisibleError,
    ParityError,
    UnsupportedParameterError,
)
from .families import (
    BdmVertex,
    CrmParams,
    LiftTemplate,
    arc_first_pattern,
    automorphism_permutation,
    bd_digraph,
    bdm,
    bdm5_base,
    bdm_canonical,
    bdm_star,
    canonical_m,
    cdrm,
    cdrm_voltage_graph,
    crm,
    crm_optimal,
    crm_voltage_graph,
    double_arc_pattern,
    doubling_parameter,
    edge_first_pattern,
    four_vertex_template,
    lift,
    named_automorphism,
    path_endpoint_formula,
    two_vertex_template,
    walk_pattern,
)
from .metrics import (
    INFINITE,
    UNREACHABLE,
    DistanceMatrix,
    EccentricityReport,
    diameter,
    distance_matrix,
    distances_from,
    eccentricity_report,
    lift_diameter,
)
from .search import (
    SearchReport,
    cdrm_scan,
    exhaustive_max_order,
    lift_search,
)
from .spectral import (
    PolynomialMatrix,
    bdm5_polynomial_matrix,
    char_poly_eigenvalues,
    evaluate_at_root,
    lift_spectrum,
    polynomial_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
