"""Exact counting of axis-split decompositions of the unit hypercube.

The central objects are the decompositions of the open unit d-cube obtained
by repeatedly splitting a region into equal slabs along one axis.  This
package computes their counts s_d(n) by exact series reversion, enumerates
the decompositions themselves (and, for d = 1, the equivalent natural exact
covering systems of the integers), realizes the structural bijections and
maps between these families, and evaluates the exponential growth rate of
s_d(n) with certified truncation error.
"""

import types as _types

from .asymptotics import (
    SaddleResult,
    asymptotic_estimate,
    check_growth_bounds,
    eval_M,
    eval_M_prime,
    eval_M_second,
    find_saddle,
    log_asymptotic_estimate,
    saddle_bracket,
)
from .covering import (
    Necs,
    ResidueClass,
    enumerate_necs,
    enumerate_necs_up_to,
    is_exact_cover,
    make_class,
    necs_from_json_dict,
    necs_gcd,
    necs_lcm,
    necs_to_json_dict,
    phi,
    split_class,
    split_necs,
    trivial_necs,
)
from .geometry import (
    Decomposition,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    enumerate_decompositions,
    enumerate_decompositions_up_to,
    gcd_of,
    grid_decomposition,
    is_split_generated,
    lcm_of,
    refines_grid,
    restrict_rescale,
    scale_map,
    split,
    split_decomposition,
    trivial_decomposition,
    unit_region,
    volume,
)
from .lcm_counts import g_count, h_count
from .number_theory import (
    dirichlet_convolve,
    divisors,
    factorize,
    mobius,
    mobius_d,
    mobius_d_values,
)
from .prime_sequences import (
    enumerate_A,
    enumerate_A_tilde,
    enumerate_B,
    find_oar,
    first_even_set,
    involution,
    is_reduced,
    iter_sequences,
    ratio_injection,
    sequence_from_json,
    sequence_sign,
    sequence_to_json,
    sequence_weight,
    set_sign,
    set_weight,
    signed_sum,
)
from .series import (
    TruncatedSeries,
    auxiliary_counts,
    decomposition_counts,
    decomposition_series,
    mobius_series,
    refined_counts,
    series_from_list,
)
from .trees import (
    LEAF,
    enumerate_trees,
    format_tree,
    leaf_count,
    parse_tree,
    psi,
    tree_counts,
    tree_from_json,
    tree_to_json,
)

__version__ = "0.1.0"

# every public name imported above, and the version
__all__ = sorted(
    name for name, value in globals().items()
    if not isinstance(value, _types.ModuleType) and (name[0] != "_" or name == "__version__")
)
