"""Activities, active filtrations and the active bijection for oriented
matroids on linearly ordered ground sets."""

from .activities import (
    Filtration,
    activity_class,
    active_filtration_basis,
    active_filtration_orientation,
    active_minors,
    basis_activities,
    basis_of_subset,
    interval_of_basis,
    is_connected_filtration,
    orientation_activities,
    reorientation_params,
    subset_params,
)
from .bijection import (
    ReorientationClassResult,
    active_basis,
    alpha_inverse_class,
    fully_optimal_basis,
    is_fully_optimal,
    refined_alpha,
    refined_alpha_inverse,
)
from .core import (
    GroundSetTooLarge,
    InvalidOrientedMatroid,
    OrientedMatroid,
    SignedSubset,
    bases,
    compose,
    contract,
    delete,
    dual,
    fundamental_circuit,
    fundamental_cocircuit,
    is_bounded,
    is_dual_bounded,
    om_from_lists,
    reorient,
)
from .graphs import (
    ParseError,
    format_elements,
    om_from_digraph,
    parse_file,
    parse_graph_file,
    parse_om_file,
    parse_reorientation,
)
from .oracles import check_active_duality, tutte_rank_oracle
from .tutte import (
    TuttePolynomial,
    beta,
    beta_star,
    four_var_reorientation_sum,
    four_var_subset_sum,
    tutte_from_bases,
    tutte_from_orientations,
)

__version__ = "0.1.0"
