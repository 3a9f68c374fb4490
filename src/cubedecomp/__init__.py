"""Exact counting of axis-split decompositions of the unit hypercube.

The central objects are the decompositions of the open unit d-cube obtained
by repeatedly splitting a region into equal slabs along one axis.  This
package computes their counts s_d(n) by exact series reversion, enumerates
the decompositions themselves (and, for d = 1, the equivalent natural exact
covering systems of the integers), realizes the structural bijections and
maps between these families, and evaluates the exponential growth rate of
s_d(n) with certified truncation error.

A library import (`import cubedecomp`, a script, `python -c`) loads the
series layer, the gcd kernel, the structural maps and the saddle search, and
binds their names here at once, so no later call compiles a module.  The
brute-force oracles (the enumerations, the prime-sequence partner maps, the
Fraction-region helpers, the convolution route to mu_d and the saddle-point
estimates) live in the private module `_oracles`, which loads on the first
read of any of them, from here or from its home module.  `python -m
cubedecomp.cli` imports this package while sys.argv[0] is "-m"; then no name
binds up front and every name binds on first read.  CLI commands read public
names through this package, so a start loads only what its command reads.
"""

import sys as _sys
from importlib import import_module as _import_module


def _on_first_use(namespace: dict, homes: dict):
    """A module __getattr__ (PEP 562) for the names that homes lists under the name
    of the package module keeping them.  The first read of such a name imports its
    module and binds the name in namespace, so later reads are plain global reads;
    any other name raises AttributeError.  Defined before the submodule imports
    below, which read it.

    Names that no table command or session call uses live in _oracles, loaded on
    first read.  Each home module hands this its whole _HOMES entry under
    "_oracles": the hook runs only on a miss, so a name the module defines never
    reaches it, and moving a function to or from _oracles moves only its def."""
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_import_module(f".{home_of[name]}", __name__), name)
        return value

    return __getattr__


def _check_int(name: str, value: int, least: int = 1) -> None:
    """The one argument rule for an integer parameter: an int (not a bool or a float) >= least.
    A hot path makes the same test inline and calls this only to raise its text."""
    if type(value) is not int:  # a float or bool would reach the integer tables
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _malformed(kind: str, exc: object) -> ValueError:
    """The one text for JSON of the wrong shape, from what reading it raised (a KeyError
    names the missing field) or from a text of the reader's own."""
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"malformed {kind} JSON: {detail}")


__version__ = "0.1.0"
MAX_K = 16  # the largest truncation exponent of the asymptotics, whose tables hold 2^k - 1 terms
# The CLI's size caps, which --allow-large lifts, and its --suite names (not in __all__).
ENUM_CAP = 100_000
LCM_PRODUCT_CAP = 10_000
# Largest --max-n per table kind: each takes about 10 s or less at d = 3 on a
# 2-core x86-64 VM (sd 600: 7.1 s, ad 6000: 8.3 s, refined 600: 7.6 s).  td
# runs in under 1 s to 5000.
MAX_N_CAPS = {"sd": 600, "ad": 6000, "td": 5000, "refined": 600}
# mu --n A..B sieves B - A + 1 values by the primes up to isqrt(B); at either cap a fresh
# process takes under 1 s on that VM (1..10^6 at d = 3: 0.9 s, 10^14..10^14+2000: 0.55 s).
# Past the root cap, --allow-large still sieves every prime up to isqrt(B), however narrow
# the range, one block at a time (n = 10^16 alone: 4.1-4.6 s, 16.6 MB peak RSS); library
# mobius_d answers that point in 62 us.
MU_CAPS = {"width": 1_000_000, "root": 10_000_000}
# The suites of `_verify.SUITES`, in their order; `--suite` offers these and "all".
SUITE_NAMES = ("tables", "oracles", "bijection", "asymptotics")

# Every public name, under the package module that keeps it.  A name that lives in _oracles
# is read through its home module, so a name rebound there (by a tracer) is the one read here.
_HOMES = {
    "asymptotics": ("SaddleResult", "asymptotic_estimate", "check_growth_bounds", "eval_M",
                    "eval_M_prime", "eval_M_second", "find_saddle", "log_asymptotic_estimate",
                    "saddle_bracket"),
    "covering": ("Necs", "ResidueClass", "enumerate_necs", "enumerate_necs_up_to",
                 "is_exact_cover", "make_class", "necs_from_json_dict", "necs_gcd", "necs_lcm",
                 "necs_to_json_dict", "phi", "split_class", "split_necs", "trivial_necs"),
    "geometry": ("Decomposition", "decomposition_from_json_dict", "decomposition_to_json_dict",
                 "enumerate_decompositions", "enumerate_decompositions_up_to", "gcd_of",
                 "grid_decomposition", "is_split_generated", "lcm_of", "refines_grid",
                 "restrict_rescale", "scale_map", "split", "split_decomposition",
                 "trivial_decomposition", "unit_region", "volume"),
    "lcm_counts": ("g_count", "h_count"),
    "number_theory": ("dirichlet_convolve", "divisors", "factorize", "mobius", "mobius_d",
                      "mobius_d_values"),
    "prime_sequences": ("enumerate_A", "enumerate_A_tilde", "enumerate_B", "find_oar",
                        "first_even_set", "involution", "is_reduced", "iter_sequences",
                        "ratio_injection", "sequence_from_json", "sequence_sign",
                        "sequence_to_json", "sequence_weight", "set_sign", "set_weight",
                        "signed_sum"),
    "series": ("TruncatedSeries", "auxiliary_counts", "decomposition_counts",
               "decomposition_series", "mobius_series", "refined_counts", "series_from_list"),
    "trees": ("LEAF", "enumerate_trees", "format_tree", "leaf_count", "parse_tree", "psi",
              "tree_counts", "tree_from_json", "tree_to_json"),
}
__getattr__ = _on_first_use(globals(), _HOMES)
__all__ = sorted(["__version__", *(name for names in _HOMES.values() for name in names)])

# A library import binds every name that its home module defines, which leaves the oracles.
# While `python -m` locates the module to run, sys.argv[0] is "-m" (see the docs of -m).
if _sys.argv[:1] != ["-m"]:
    for _home, _names in _HOMES.items():
        _defined = vars(_import_module(f".{_home}", __name__))
        globals().update((name, _defined[name]) for name in _names if name in _defined)
    del _home, _names, _defined
