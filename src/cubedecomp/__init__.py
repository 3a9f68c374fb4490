"""Exact counting of axis-split decompositions of the unit hypercube.

The central objects are the decompositions of the open unit d-cube obtained
by repeatedly splitting a region into equal slabs along one axis.  This
package computes their counts s_d(n) by exact series reversion, enumerates
the decompositions themselves (and, for d = 1, the equivalent natural exact
covering systems of the integers), realizes the structural bijections and
maps between these families, and evaluates the exponential growth rate of
s_d(n) with certified truncation error.

The series layer, the gcd kernel and the structural maps load with the
package.  The brute-force oracles (the enumerations, the prime-sequence
partner maps, the Fraction-region helpers, the convolution route to mu_d and
the saddle-point estimates) live in the private module `_oracles`, which
loads on the first read of any of them, from here or from its home module.
"""

import types as _types
from importlib import import_module as _import_module


def _on_first_use(namespace: dict, homes: dict):
    """A module __getattr__ (PEP 562) for the names that homes lists under the name
    of the package module keeping them.  The first read of such a name imports its
    module and binds the name in namespace, so later reads are plain global reads;
    any other name raises AttributeError.  Defined before the submodule imports
    below, which read it."""
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_import_module(f".{home_of[name]}", __name__), name)
        return value

    return __getattr__

from .asymptotics import (
    SaddleResult,
    eval_M,
    eval_M_prime,
    eval_M_second,
    find_saddle,
    saddle_bracket,
)
from .covering import Necs, ResidueClass, necs_gcd, necs_lcm, necs_to_json_dict, phi
from .geometry import (
    Decomposition,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    gcd_of,
    is_split_generated,
    lcm_of,
)
from .lcm_counts import g_count, h_count
from .number_theory import factorize, mobius, mobius_d, mobius_d_values
from .prime_sequences import (
    enumerate_A,
    enumerate_B,
    iter_sequences,
    sequence_sign,
    sequence_weight,
    set_sign,
    set_weight,
    signed_sum,
)
from .series import (
    TruncatedSeries,
    auxiliary_counts,
    decomposition_counts,
    refined_counts,
    series_from_list,
)
from .trees import LEAF, parse_tree, psi, tree_counts

# Read through each home module, so a name rebound there (by a tracer) is the one read here.
_ORACLES = {
    "asymptotics": ("asymptotic_estimate", "check_growth_bounds", "log_asymptotic_estimate"),
    "covering": ("enumerate_necs", "enumerate_necs_up_to", "is_exact_cover", "make_class",
                 "necs_from_json_dict", "split_class", "split_necs", "trivial_necs"),
    "geometry": ("enumerate_decompositions", "enumerate_decompositions_up_to",
                 "grid_decomposition", "refines_grid", "restrict_rescale", "scale_map", "split",
                 "split_decomposition", "trivial_decomposition", "unit_region", "volume"),
    "number_theory": ("dirichlet_convolve", "divisors"),
    "prime_sequences": ("enumerate_A_tilde", "find_oar", "first_even_set", "involution",
                        "is_reduced", "ratio_injection", "sequence_from_json",
                        "sequence_to_json"),
    "series": ("decomposition_series", "mobius_series"),
    "trees": ("enumerate_trees", "format_tree", "leaf_count", "tree_from_json", "tree_to_json"),
}
__getattr__ = _on_first_use(globals(), _ORACLES)

__version__ = "0.1.0"

# every public name imported above, those bound on first use, and the version
__all__ = sorted([
    *(name for name, value in globals().items()
      if not isinstance(value, _types.ModuleType) and (name[0] != "_" or name == "__version__")),
    *(name for names in _ORACLES.values() for name in names),
])
