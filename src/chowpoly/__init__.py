"""Exact Chow polynomials, gamma vectors and descent combinatorics for
matroids with building sets.

Everything is exact integer/rational arithmetic.  The main objects:

* :class:`~chowpoly.lattice.Matroid` — a rank oracle on subsets (bitmasks);
* :class:`~chowpoly.lattice.GeomLattice` — a materialized lattice of flats;
* :class:`~chowpoly.building.BuiltMatroid` — a lattice plus a building set
  plus a ground-set order;
* :func:`~chowpoly.chow.chow_polynomial` and its independent cross-checks
  (deletion recursion, filtration walk, toric Hilbert-series oracle);
* descent statistics on maximal nested sets, the gamma complex, and the
  stable-tree model for the moduli-space special case.
"""

from .building import (
    BuiltMatroid,
    binary_filtration,
    contract,
    delete_element,
    extend,
    find_complete_order,
    flag_nonface_witness,
    g_max,
    g_min,
    is_complete,
    is_flag,
    restrict,
    simplify_built,
    tl_chain,
    truncate,
    validate_building_set,
)
from .chow import (
    chow_by_deletion,
    chow_by_filtration,
    chow_polynomial,
    fy_monomials,
    gamma_by_descents,
    psi_fiber_of,
    psi_fibers,
    toric_hilbert_oracle,
)
from .errors import ChowpolyError
from .families import (
    augmented_built_matroid,
    built_from_matroid,
    chordal_building_sets,
    m0n_gamma,
    make_boolean,
    make_graphic,
    make_partition,
    make_uniform,
)
from .lattice import (
    GeomLattice,
    Matroid,
    lattice_of_flats,
    validate_modular_cut,
)
from .nested import (
    balanced_check,
    complex_stats,
    compose,
    completion,
    descent_set,
    gamma_complex,
    is_nested,
    lambda_label,
    link_decomposition,
    maximal_nested_sets,
    nested_complex,
    new_factor,
    stable_maximal_nested_sets,
)
from .polynomials import (
    gamma_expansion,
    gamma_to_poly,
    g_vector_report,
    is_gamma_positive,
    is_palindromic,
    is_real_rooted,
    kruskal_katona_check,
    poly_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "BuiltMatroid",
    "ChowpolyError",
    "GeomLattice",
    "Matroid",
    "augmented_built_matroid",
    "balanced_check",
    "binary_filtration",
    "built_from_matroid",
    "chordal_building_sets",
    "chow_by_deletion",
    "chow_by_filtration",
    "chow_polynomial",
    "complex_stats",
    "compose",
    "completion",
    "contract",
    "delete_element",
    "descent_set",
    "extend",
    "find_complete_order",
    "flag_nonface_witness",
    "fy_monomials",
    "g_max",
    "g_min",
    "g_vector_report",
    "gamma_by_descents",
    "gamma_complex",
    "gamma_expansion",
    "gamma_to_poly",
    "is_complete",
    "is_flag",
    "is_gamma_positive",
    "is_nested",
    "is_palindromic",
    "is_real_rooted",
    "kruskal_katona_check",
    "lambda_label",
    "lattice_of_flats",
    "link_decomposition",
    "m0n_gamma",
    "make_boolean",
    "make_graphic",
    "make_partition",
    "make_uniform",
    "maximal_nested_sets",
    "nested_complex",
    "new_factor",
    "poly_diagnostics",
    "psi_fiber_of",
    "psi_fibers",
    "restrict",
    "simplify_built",
    "stable_maximal_nested_sets",
    "toric_hilbert_oracle",
    "truncate",
    "validate_building_set",
    "validate_modular_cut",
]
