"""Labelled plane trees, their counts, and the map onto decompositions."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubedecomp.geometry import (
    Decomposition,
    enumerate_decompositions,
    gcd_of,
    grid_decomposition,
    split,
    split_decomposition,
    trivial_decomposition,
    unit_region,
    volume,
)
from cubedecomp.series import decomposition_counts, series_from_list
from cubedecomp.trees import (
    LEAF,
    enumerate_trees,
    format_tree,
    is_leaf,
    leaf_count,
    parse_tree,
    psi,
    tree_counts,
    tree_from_json,
    tree_to_json,
    validate_tree,
)

# Small Schroeder numbers and the 2-label analogue, n = 1..7.
T1_ROW = [1, 1, 3, 11, 45, 197, 903]
T2_ROW = [1, 2, 10, 62, 430, 3194, 24850]


def test_leaf_basics():
    assert is_leaf(LEAF)
    assert not is_leaf((1, LEAF, LEAF))
    assert leaf_count(LEAF) == 1
    assert leaf_count((1, LEAF, (2, LEAF, LEAF, LEAF))) == 4


def test_validate_tree():
    validate_tree((1, LEAF, (2, LEAF, LEAF)), d=2)
    with pytest.raises(ValueError):
        validate_tree((3, LEAF, LEAF), d=2)
    with pytest.raises(ValueError):
        validate_tree((0, LEAF, LEAF), d=2)
    with pytest.raises(ValueError):
        validate_tree((1, LEAF), d=1)


def test_boolean_labels_are_rejected():
    # bool is an int subclass, but format_tree would write "(True L L)", which
    # parse_tree rejects: a label is an int and nothing else
    with pytest.raises(ValueError, match="outside 1..2"):
        validate_tree((True, LEAF, LEAF), d=2)
    with pytest.raises(ValueError, match="outside 1..2"):
        psi((True, LEAF, (1, LEAF, LEAF)), 2)
    with pytest.raises(ValueError, match="malformed tree JSON"):
        tree_from_json([True, "L", "L"])
    with pytest.raises(ValueError, match="malformed tree JSON"):
        tree_from_json([1, "L", [False, "L", "L"]])


@pytest.mark.parametrize("d,row", [(1, T1_ROW), (2, T2_ROW)])
def test_tree_count_tables(d, row):
    assert list(tree_counts(d, 7).coeffs[1:]) == row


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tree_counts_satisfy_quadratic_equation(d):
    # t = x - x*t + (d+1)*t^2 as truncated series
    order = 300
    t = tree_counts(d, order)
    x = series_from_list([0, 1] + [0] * (order - 1))
    rhs = [u - v + (d + 1) * w for u, v, w in zip(x.coeffs, (x * t).coeffs, (t * t).coeffs)]
    assert list(t.coeffs) == rhs


@pytest.mark.parametrize("d,max_n", [(1, 6), (2, 5), (3, 4)])
def test_enumeration_matches_counts(d, max_n):
    counts = tree_counts(d, max_n)
    for n in range(1, max_n + 1):
        trees = enumerate_trees(d, n)
        assert len(trees) == counts.coefficient(n)
        for tree in trees:
            validate_tree(tree, d)
            assert leaf_count(tree) == n


@pytest.mark.parametrize("d", [1, 2])
def test_tree_counts_dominate_decomposition_counts(d):
    t = tree_counts(d, 12).coeffs
    s = decomposition_counts(d, 12)
    assert t[1:4] == tuple(s[1:4])
    for n in range(4, 13):
        assert t[n] > s[n]


def test_tree_growth_rate_approaches_limit():
    # t(n+1)/t(n) -> 2d + 1 + 2*sqrt(d^2 + d)
    for d in (1, 2):
        t = tree_counts(d, 60).coeffs
        limit = 2 * d + 1 + 2 * (d * d + d) ** 0.5
        ratio = t[60] / t[59]
        assert abs(ratio / limit - 1) < 0.05


def test_psi_on_documented_example():
    # label-1 root with three slabs; the middle one split into four rows,
    # the right one into two rows whose lower half is halved again
    tree = (1, LEAF, (2, LEAF, LEAF, LEAF, LEAF), (2, (1, LEAF, LEAF), LEAF))
    expected = trivial_decomposition(2)
    expected = split_decomposition(expected, expected.regions[0], 0, 3)
    expected = split_decomposition(expected, expected.regions[1], 1, 4)
    expected = split_decomposition(expected, expected.regions[5], 1, 2)
    expected = split_decomposition(expected, expected.regions[5], 0, 2)
    dec = psi(tree, 2)
    assert dec == expected
    assert gcd_of(dec) == (3, 1)
    assert volume(dec) == 1


def test_psi_collisions_identify_grids():
    six_leaves = (1,) + (LEAF,) * 6
    two_triples = (1, (1, LEAF, LEAF, LEAF), (1, LEAF, LEAF, LEAF))
    assert psi(six_leaves, 1) == psi(two_triples, 1) == grid_decomposition((6,))

    t3 = (1, (2, LEAF, LEAF, LEAF), (2, LEAF, LEAF, LEAF))
    t4 = (2, (1, LEAF, LEAF), (1, LEAF, LEAF), (1, LEAF, LEAF))
    assert psi(t3, 2) == psi(t4, 2) == grid_decomposition((2, 3))


@pytest.mark.parametrize("d,max_n", [(1, 5), (2, 4)])
def test_psi_is_surjective(d, max_n):
    for n in range(1, max_n + 1):
        images = {psi(tree, d) for tree in enumerate_trees(d, n)}
        assert images == enumerate_decompositions(d, n)


def test_psi_validates_labels():
    with pytest.raises(ValueError):
        psi((2, LEAF, LEAF), 1)
    for d in (0, -1):
        with pytest.raises(ValueError):
            psi(LEAF, d)


def split_rebuild(tree, d):
    """The tree's decomposition, made by split_decomposition one node at a time."""
    def place(dec, region, node):
        if is_leaf(node):
            return dec
        axis, children = node[0] - 1, node[1:]
        dec = split_decomposition(dec, region, axis, len(children))
        for slab, child in zip(split(region, axis, len(children)), children):
            dec = place(dec, slab, child)
        return dec
    return place(trivial_decomposition(d), unit_region(d), tree)


def test_psi_matches_split_rebuild():
    for n in range(1, 7):
        for tree in enumerate_trees(2, n):
            assert psi(tree, 2) == split_rebuild(tree, 2), format_tree(tree)


def fraction_boxes(tree, d):
    """The tree's leaf boxes with Fraction endpoints, by plain recursion."""
    def place(node, box):
        if is_leaf(node):
            return [tuple(box)]
        axis, children = node[0] - 1, node[1:]
        lo, hi = box[axis]
        step = (hi - lo) / len(children)
        out = []
        for j, child in enumerate(children):
            slab = list(box)
            slab[axis] = (lo + j * step, lo + (j + 1) * step)
            out += place(child, slab)
        return out
    return place(tree, [(F(0), F(1))] * d)


@pytest.mark.parametrize("d,max_n", [(1, 6), (2, 6), (3, 5)])
def test_psi_matches_fraction_boxes_on_every_small_tree(d, max_n):
    for n in range(1, max_n + 1):
        for tree in enumerate_trees(d, n):
            dec = psi(tree, d)
            assert dec == Decomposition(d, fraction_boxes(tree, d)), format_tree(tree)
            assert len(dec) == n


# (tree, d, exception type, message), each taken from the version of psi that
# validated the whole tree before its walk; the first bad node in preorder names it
BAD_TREES = [
    ((1, LEAF, (3, LEAF, LEAF), (0, LEAF)), 2, ValueError, "internal node label 3 outside 1..2"),
    ((1, (2, LEAF), (5, LEAF, LEAF)), 2, ValueError,
     "internal node must have at least 2 children"),
    ((1, (1, LEAF, LEAF), (2, LEAF), (3, LEAF, LEAF)), 2, ValueError,
     "internal node must have at least 2 children"),
    ((1, LEAF, [2, LEAF, LEAF], (1, LEAF)), 2, ValueError,
     "internal node must have at least 2 children"),
    ((1, LEAF, (1, LEAF, LEAF), (1, (2, LEAF, LEAF), LEAF), (0, LEAF, LEAF)), 1, ValueError,
     "internal node label 2 outside 1..1"),
    ((1, LEAF, (1.0, LEAF, LEAF)), 1, ValueError, "internal node label 1.0 outside 1..1"),
    ((1, LEAF, (True, LEAF, LEAF)), 2, ValueError, "internal node label True outside 1..2"),
    ((1, LEAF, "L"), 1, ValueError, "internal node label 'L' outside 1..1"),
    ("L", 1, ValueError, "internal node label 'L' outside 1..1"),
    ((1, LEAF, 5), 1, TypeError, "object of type 'int' has no len()"),
    ((1, None, LEAF), 1, TypeError, "object of type 'NoneType' has no len()"),
    ((1, LEAF, set()), 1, TypeError, "'set' object is not subscriptable"),
    (5, 1, TypeError, "object of type 'int' has no len()"),
]


@pytest.mark.parametrize("tree,d,exc,message", BAD_TREES)
def test_psi_and_validate_tree_raise_at_the_first_bad_node(tree, d, exc, message):
    for f in (psi, validate_tree):
        with pytest.raises(exc) as info:
            f(tree, d)
        assert type(info.value) is exc and str(info.value) == message


def test_psi_takes_list_nodes():
    assert psi([1, LEAF, LEAF], 1) == grid_decomposition((2,))
    assert psi((2, [1, LEAF, LEAF], LEAF), 2) == psi((2, (1, LEAF, LEAF), LEAF), 2)


def test_deep_trees_need_no_recursion():
    depth = 3000
    text = "L"
    for _ in range(depth):
        text = f"(1 L {text})"
    tree = parse_tree(text)
    validate_tree(tree, 2)
    dec = psi(tree, 2)
    assert len(dec) == depth + 1
    edges = [1 - F(1, 2 ** k) for k in range(depth + 1)] + [F(1)]
    assert dec.regions == tuple(((lo, hi), (F(0), F(1))) for lo, hi in zip(edges, edges[1:]))
    assert leaf_count(tree) == depth + 1
    assert format_tree(tree) == text
    # == on the nested tuples would itself recurse, so compare through the text form
    assert format_tree(tree_from_json(tree_to_json(tree))) == text


@pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 3)])
def test_format_parse_round_trip_exhaustive(d, n):
    for tree in enumerate_trees(d, n):
        text = format_tree(tree)
        assert parse_tree(text) == tree
        assert tree_from_json(tree_to_json(tree)) == tree


@given(st.recursive(
    st.just(LEAF),
    lambda kids: st.tuples(
        st.integers(min_value=1, max_value=3),
        kids, kids,
    ) | st.tuples(
        st.integers(min_value=1, max_value=3),
        kids, kids, kids,
    ),
    max_leaves=12,
))
def test_format_parse_round_trip_random(tree):
    assert parse_tree(format_tree(tree)) == tree


def test_parse_rejects_malformed_input():
    for bad in ("", "(1 L)", "(1 L L", "(1 L L) L", "(4x L L)", "L L", "()"):
        with pytest.raises(ValueError):
            parse_tree(bad)
    # a label is ASCII digits: str.isdigit takes "\u0661" (read as 1) and "\u00b2" too
    for bad in ("(\u0661 L L)", "(\u00b2 L L)"):
        with pytest.raises(ValueError) as refused:
            parse_tree(bad)
        assert str(refused.value) == "expected integer label after '('"
