"""One argument rule: every integer parameter of the public API refuses a bad value alike,
and so does every reader of values from outside, which words a malformed shape one way."""

import ast
import inspect
import io
import json
import sys
from pathlib import Path
from types import GeneratorType

import pytest

import cubedecomp
from cubedecomp import (cli, decomposition_from_json_dict, find_saddle, make_class,
                        necs_from_json_dict, sequence_from_json, trivial_decomposition,
                        trivial_necs, unit_region)
from cubedecomp.number_theory import mobius_d_by_convolution

X = object()  # where the value under test goes in an entry's arguments
TOL = 1e-12
SADDLE = find_saddle(2)  # given, so that no saddle search runs for the estimates
DEC = trivial_decomposition(1)

# (name, parameter): (least value or None for a type-only check, the arguments with X for
# the value), the others as small as the entry allows
ENTRIES = {
    ("asymptotic_estimate", "n"): (1, (2, X, SADDLE)),
    ("auxiliary_counts", "max_n"): (0, (2, X)),
    ("check_growth_bounds", "k"): (1, (2, TOL, X)),
    ("decomposition_counts", "max_n"): (1, (2, X)),
    ("decomposition_series", "order"): (1, (2, X)),
    ("divisors", "n"): (1, (X,)),
    ("enumerate_A", "n"): (0, (1, X)),
    ("enumerate_A_tilde", "n"): (0, (1, X)),
    ("enumerate_B", "n"): (0, (1, X)),
    ("enumerate_decompositions", "n"): (1, (1, X)),
    ("enumerate_decompositions_up_to", "max_n"): (1, (1, X)),
    ("enumerate_necs", "m"): (1, (X,)),
    ("enumerate_necs_up_to", "max_m"): (1, (X,)),
    ("enumerate_trees", "n"): (1, (1, X)),
    ("eval_M", "k"): (1, (1, 0.1, X)),
    ("eval_M_prime", "k"): (1, (1, 0.1, X)),
    ("eval_M_second", "k"): (1, (1, 0.1, X)),
    ("factorize", "n"): (1, (X,)),
    ("find_saddle", "k"): (1, (1, TOL, X)),
    ("iter_sequences", "n"): (0, (1, X)),
    ("log_asymptotic_estimate", "n"): (1, (2, X, SADDLE)),
    ("make_class", "a"): (None, (X, 2)),
    ("make_class", "n"): (1, (0, X)),
    ("mobius", "n"): (1, (X,)),
    ("mobius_d", "n"): (1, (2, X)),
    ("mobius_d_by_convolution", "max_n"): (0, (2, X)),
    ("mobius_d_values", "max_n"): (0, (2, X)),
    ("mobius_series", "order"): (1, (2, X)),
    ("ratio_injection", "colour"): (1, ((((2, 1),),), X)),
    ("refined_counts", "max_n"): (0, (2, (2, 1), X)),
    ("signed_sum", "n"): (0, (1, X)),
    ("split", "arity"): (2, (unit_region(1), 0, X)),
    ("split", "axis"): (0, (unit_region(1), X, 2)),
    ("split_class", "r"): (2, (make_class(0, 1), X)),
    ("split_decomposition", "arity"): (2, (DEC, DEC.regions[0], 0, X)),
    ("split_decomposition", "axis"): (0, (DEC, DEC.regions[0], X, 2)),
    ("split_necs", "r"): (2, (trivial_necs(), make_class(0, 1), X)),
    ("tree_counts", "max_n"): (0, (2, X)),
}
# name: the arguments with X for an arity vector r of length 2, whose entries are checked
VECTORS = {
    "g_count": (X,),
    "grid_decomposition": (X,),
    "h_count": (X,),
    "refined_counts": (2, X, 5),
    "refines_grid": (trivial_decomposition(2), X),
}
OUTSIDE_ALL = {"mobius_d_by_convolution": mobius_d_by_convolution}
INTEGER_NAMES = {"n", "max_n", "m", "max_m", "order", "k", "r", "arity", "axis", "colour", "a"}
NOT_INTEGERS = {("dirichlet_convolve", "a")}  # a sequence, not an integer


def call(name: str, args: tuple, value):
    """The entry's result with value for X, a lazy one run to its end, so that its checks run."""
    entry = OUTSIDE_ALL.get(name) or getattr(cubedecomp, name)
    result = entry(*(value if a is X else a for a in args))
    return list(result) if isinstance(result, GeneratorType) else result


def refusal(name: str, args: tuple, value) -> str:
    with pytest.raises(ValueError) as refused:
        call(name, args, value)
    return str(refused.value)


def test_the_tables_list_every_integer_parameter_of_the_public_api():
    params = {(name, p) for name in cubedecomp.__all__
              if callable(obj := getattr(cubedecomp, name)) and not inspect.isclass(obj)
              for p in inspect.signature(obj).parameters if p in INTEGER_NAMES}
    params |= {(name, p) for name, obj in OUTSIDE_ALL.items()
               for p in inspect.signature(obj).parameters if p in INTEGER_NAMES}
    assert set(ENTRIES) | {(name, "r") for name in VECTORS} == params - NOT_INTEGERS


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=repr)
@pytest.mark.parametrize("name,param", sorted(ENTRIES))
def test_a_value_that_is_not_an_int_is_refused(name, param, value):
    text = refusal(name, ENTRIES[name, param][1], value)
    assert text == f"{param} must be an integer, got {value!r}"


@pytest.mark.parametrize("name,param", sorted(key for key, (least, _) in ENTRIES.items()
                                              if least is not None))
def test_a_value_below_the_least_is_refused(name, param):
    least, args = ENTRIES[name, param]
    assert refusal(name, args, least - 1) == f"{param} must be >= {least}, got {least - 1}"


@pytest.mark.parametrize("entry", [2.0, True, "2"], ids=repr)
@pytest.mark.parametrize("name", sorted(VECTORS))
def test_a_vector_entry_that_is_not_an_int_is_refused(name, entry):
    text = refusal(name, VECTORS[name], (entry, 1))
    assert text == f"r entries must be an integer, got {entry!r}"


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_a_vector_entry_below_one_is_refused(name):
    assert refusal(name, VECTORS[name], (1, 0)) == "r entries must be >= 1, got 0"


@pytest.mark.parametrize("name", ["g_count", "grid_decomposition", "h_count"])
def test_an_empty_vector_is_refused_as_a_zero_dimension(name):
    assert refusal(name, (X,), ()) == "d must be >= 1, got 0"


def test_a_split_axis_past_the_dimension_keeps_its_range_text():
    region = unit_region(2)
    assert refusal("split", (region, X, 2), 2) == "axis 2 out of range for dimension 2"


def modules_building(*phrases: str) -> set:
    """The package modules that build a ValueError whose text holds one of phrases."""
    def builds(node) -> bool:
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ValueError"
                and any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                        and any(phrase in part.value for phrase in phrases)
                        for arg in node.args for part in ast.walk(arg)))

    src = Path(cubedecomp.__file__).resolve().parent
    return {path.name for path in src.glob("*.py")
            if any(map(builds, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))}


def test_no_library_module_but_the_root_raises_the_rule_texts():
    # the CLI's option bounds too: their texts name the option, as in "--d must be >= 1"
    assert modules_building("must be an integer", "must be >=") == {"__init__.py"}


def test_no_module_but_the_root_words_a_malformed_json_text():
    assert modules_building("malformed") == {"__init__.py"}


READERS = {"decomposition": decomposition_from_json_dict, "covering system": necs_from_json_dict,
           "prime sequence": sequence_from_json}
# (reader, case, input, its one error text): four readers of values from outside by five
# bad inputs; psi reads its input on stdin, as `psi --in -`
OUTSIDE = [
    ("decomposition", "missing field", {"d": 1},
     "malformed decomposition JSON: missing field 'regions'"),
    ("decomposition", "wrong shape", {"d": 1, "regions": 5},
     "malformed decomposition JSON: 'int' object is not iterable"),
    ("decomposition", "float field", {"d": 1.0, "regions": [[["0", "1"]]]},
     "d must be an integer, got 1.0"),
    ("decomposition", "bool field", {"d": True, "regions": [[["0", "1"]]]},
     "d must be an integer, got True"),
    ("decomposition", "below least", {"d": 0, "regions": [[["0", "1"]]]}, "d must be >= 1, got 0"),
    ("covering system", "missing field", {"classes": [{"a": 0}]},
     "malformed covering system JSON: missing field 'n'"),
    ("covering system", "wrong shape", {"classes": 5},
     "malformed covering system JSON: 'int' object is not iterable"),
    ("covering system", "float field", {"classes": [{"a": 0, "n": 1.0}]},
     "n must be an integer, got 1.0"),
    ("covering system", "bool field", {"classes": [{"a": True, "n": 1}]},
     "a must be an integer, got True"),
    ("covering system", "below least", {"classes": [{"a": 0, "n": 0}]}, "n must be >= 1, got 0"),
    ("prime sequence", "missing field", [[{"p": 2}]],
     "malformed prime sequence JSON: missing field 'colour'"),
    ("prime sequence", "wrong shape", 5,
     "malformed prime sequence JSON: 'int' object is not iterable"),
    ("prime sequence", "float field", [[{"p": 2.0, "colour": 1}]], "p must be an integer, got 2.0"),
    ("prime sequence", "bool field", [[{"p": 2, "colour": True}]],
     "colour must be an integer, got True"),
    ("prime sequence", "below least", [[{"p": 2, "colour": 0}]], "colour must be >= 1, got 0"),
    ("psi", "missing field", {"tree": "L"}, "malformed psi JSON: missing field 'd'"),
    ("psi", "wrong shape", 5, "malformed psi JSON: 'int' object is not subscriptable"),
    ("psi", "float field", {"d": 1.0, "tree": "L"}, "d must be an integer, got 1.0"),
    ("psi", "bool field", {"d": True, "tree": "L"}, "d must be an integer, got True"),
    ("psi", "below least", {"d": 0, "tree": "L"}, "d must be >= 1, got 0"),
]


@pytest.mark.parametrize("reader, case, data, text", OUTSIDE,
                         ids=[f"{reader}:{case}" for reader, case, _, _ in OUTSIDE])
def test_every_reader_of_outside_values_refuses_them_by_the_root_texts(reader, case, data, text,
                                                                     capsys, monkeypatch):
    if reader == "psi":
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
        assert cli.main(["psi", "--in", "-"]) == 1
        assert capsys.readouterr().err == f"cubedecomp: error: {text}\n"
        return
    with pytest.raises(ValueError) as refused:
        READERS[reader](data)
    assert str(refused.value) == text
