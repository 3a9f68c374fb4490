"""One dimension rule: every public entry point that takes d refuses the same d alike."""

import inspect
from types import GeneratorType

import pytest

import cubedecomp
from cubedecomp import LEAF, find_saddle, grid_decomposition
from cubedecomp.number_theory import mobius_d_by_convolution
from cubedecomp.trees import validate_tree

D = object()  # where the d under test goes in an entry's arguments
SADDLE = find_saddle(2)  # given, so that no saddle search checks d for the estimates

# name: (least d, the arguments with D for d), the others as small as the entry allows
ENTRIES = {
    "asymptotic_estimate": (1, (D, 10, SADDLE)),
    "auxiliary_counts": (1, (D, 3)),
    "check_growth_bounds": (2, (D,)),
    "decomposition_counts": (1, (D, 3)),
    "decomposition_series": (1, (D, 3)),
    "enumerate_A": (1, (D, 3)),
    "enumerate_A_tilde": (1, (D, 3)),
    "enumerate_B": (1, (D, 3)),
    "enumerate_decompositions": (1, (D, 2)),
    "enumerate_decompositions_up_to": (1, (D, 2)),
    "enumerate_trees": (1, (D, 2)),
    "eval_M": (1, (D, 0.1)),
    "eval_M_prime": (1, (D, 0.1)),
    "eval_M_second": (1, (D, 0.1)),
    "find_saddle": (1, (D,)),
    "iter_sequences": (1, (D, 3)),
    "log_asymptotic_estimate": (1, (D, 10, SADDLE)),
    "mobius_d": (0, (D, 6)),
    "mobius_d_by_convolution": (0, (D, 6)),
    "mobius_d_values": (0, (D, 6)),
    "mobius_series": (0, (D, 3)),
    "psi": (1, ((1, LEAF, LEAF), D)),
    "refined_counts": (1, (D, (2, 1), 5)),
    "saddle_bracket": (1, (D,)),
    "signed_sum": (1, (D, 3)),
    "tree_counts": (1, (D, 4)),
    "trivial_decomposition": (1, (D,)),
    "unit_region": (1, (D,)),
    "validate_tree": (1, ((1, LEAF, LEAF), D)),
}
OUTSIDE_ALL = {"mobius_d_by_convolution": mobius_d_by_convolution, "validate_tree": validate_tree}


def call(name: str, d):
    """The entry's result at d, a lazy one run to its end, so that its checks run."""
    entry = OUTSIDE_ALL.get(name) or getattr(cubedecomp, name)
    result = entry(*(d if a is D else a for a in ENTRIES[name][1]))
    return list(result) if isinstance(result, GeneratorType) else result


def test_the_table_lists_every_entry_point_that_takes_d():
    takes_d = {name for name in cubedecomp.__all__
               if callable(obj := getattr(cubedecomp, name)) and not inspect.isclass(obj)
               and "d" in inspect.signature(obj).parameters}
    assert set(ENTRIES) == takes_d | set(OUTSIDE_ALL)


@pytest.mark.parametrize("d", [2.0, True, "2"], ids=repr)
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_a_d_that_is_not_an_int_is_refused(name, d):
    with pytest.raises(ValueError) as refused:
        call(name, d)
    assert str(refused.value) == f"d must be an integer, got {d!r}"


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_a_d_below_the_least_is_refused(name):
    least = ENTRIES[name][0]
    with pytest.raises(ValueError) as refused:
        call(name, least - 1)
    assert str(refused.value) == f"d must be >= {least}, got {least - 1}"


def test_an_empty_grid_is_refused_as_a_zero_dimension():
    with pytest.raises(ValueError) as refused:
        grid_decomposition(())
    assert str(refused.value) == "d must be >= 1, got 0"
