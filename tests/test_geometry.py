"""Exact region geometry, split generation, grid gcd/lcm, and enumeration."""

import pickle
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubedecomp import geometry
from cubedecomp.geometry import (
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
    region_contains,
    regions_overlap,
    restrict_rescale,
    scale_map,
    split,
    split_decomposition,
    trivial_decomposition,
    unit_region,
    volume,
)
from cubedecomp.covering import necs_gcd, necs_lcm, phi
from cubedecomp.number_theory import divisors
from cubedecomp.series import decomposition_counts
from cubedecomp.trees import LEAF, psi


def box(*ivs):
    return tuple((F(a, b), F(c, d)) for a, b, c, d in ivs)


def interval_dec(*breaks):
    """1-d decomposition from interior breakpoints given as Fractions."""
    pts = [F(0)] + sorted(breaks) + [F(1)]
    return Decomposition(1, tuple(((lo, hi),) for lo, hi in zip(pts, pts[1:])))


# Two hand-drawn 2-d decompositions reused across tests: EIGHT has a whole
# left column, a middle column in quarters, and a right column whose lower
# half is split in two; ELEVEN additionally halves the left column and cuts
# the upper-right cell into three rows.
EIGHT = Decomposition(2, (
    box((0, 1, 1, 3), (0, 1, 1, 1)),
    box((1, 3, 2, 3), (0, 1, 1, 4)),
    box((1, 3, 2, 3), (1, 4, 1, 2)),
    box((1, 3, 2, 3), (1, 2, 3, 4)),
    box((1, 3, 2, 3), (3, 4, 1, 1)),
    box((2, 3, 1, 1), (1, 2, 1, 1)),
    box((2, 3, 5, 6), (0, 1, 1, 2)),
    box((5, 6, 1, 1), (0, 1, 1, 2)),
))
ELEVEN = Decomposition(2, (
    box((0, 1, 1, 3), (0, 1, 1, 2)),
    box((0, 1, 1, 3), (1, 2, 1, 1)),
    box((1, 3, 2, 3), (0, 1, 1, 4)),
    box((1, 3, 2, 3), (1, 4, 1, 2)),
    box((1, 3, 2, 3), (1, 2, 3, 4)),
    box((1, 3, 2, 3), (3, 4, 1, 1)),
    box((2, 3, 5, 6), (0, 1, 1, 2)),
    box((5, 6, 1, 1), (0, 1, 1, 2)),
    box((2, 3, 1, 1), (1, 2, 2, 3)),
    box((2, 3, 1, 1), (2, 3, 5, 6)),
    box((2, 3, 1, 1), (5, 6, 1, 1)),
))


fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=64)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=6),
       st.data())
def test_split_partitions_the_region(d, arity, data):
    axis = data.draw(st.integers(min_value=0, max_value=d - 1))
    parts = split(unit_region(d), axis, arity)
    assert len(parts) == arity
    assert sum((p[axis][1] - p[axis][0] for p in parts), F(0)) == 1
    for p1, p2 in zip(parts, parts[1:]):
        assert p1[axis][1] == p2[axis][0]
        assert not regions_overlap(p1, p2)


def test_split_validation():
    with pytest.raises(ValueError):
        split(unit_region(2), 0, 1)
    with pytest.raises(ValueError):
        split(unit_region(2), 2, 2)


@given(fractions_01, fractions_01, fractions_01, fractions_01)
def test_scale_map_round_trips(a, b, lo, hi):
    a, b = min(a, b), max(a, b)
    if a == b:
        b = a + F(1, 64)
        if b > 1:
            a, b = F(0), F(1, 64)
    lo = a + (b - a) * lo
    hi = a + (b - a) * hi
    lo, hi = min(lo, hi), max(lo, hi)
    src = ((a, b),)
    dst = ((F(1, 3), F(5, 7)),)
    image = scale_map(src, dst, ((lo, hi),))
    assert region_contains(dst, image)
    assert scale_map(dst, src, image) == ((lo, hi),)


def test_scale_map_requires_containment():
    with pytest.raises(ValueError):
        scale_map(((F(0), F(1, 2)),), ((F(0), F(1)),), ((F(1, 4), F(3, 4)),))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_grid_decomposition_shape(r1, r2):
    g = grid_decomposition((r1, r2))
    assert len(g) == r1 * r2
    assert volume(g) == 1
    assert gcd_of(g) == (r1, r2)
    assert lcm_of(g) == (r1, r2)
    assert is_split_generated(g)


def test_split_chain_stays_in_class():
    dec = trivial_decomposition(2)
    dec = split_decomposition(dec, dec.regions[0], 0, 3)
    assert volume(dec) == 1 and len(dec) == 3
    dec = split_decomposition(dec, dec.regions[1], 1, 4)
    assert volume(dec) == 1 and len(dec) == 6
    assert is_split_generated(dec)
    with pytest.raises(ValueError):
        split_decomposition(dec, unit_region(2), 0, 2)


def test_enumeration_matches_series_counts():
    levels = enumerate_decompositions_up_to(1, 6)
    s1 = decomposition_counts(1, 6)
    assert [len(levels[n]) for n in range(1, 7)] == s1[1:]
    levels2 = enumerate_decompositions_up_to(2, 4)
    s2 = decomposition_counts(2, 4)
    assert [len(levels2[n]) for n in range(1, 5)] == s2[1:]
    assert len(enumerate_decompositions(3, 3)) == decomposition_counts(3, 3)[3]


def test_enumerated_decompositions_are_valid():
    for n, decs in enumerate_decompositions_up_to(2, 3).items():
        for dec in decs:
            assert len(dec) == n
            assert volume(dec) == 1
            assert is_split_generated(dec)
            regs = dec.regions
            for i in range(len(regs)):
                for j in range(i + 1, len(regs)):
                    assert not regions_overlap(regs[i], regs[j])


def test_non_split_partition_detected():
    # a valid partition of (0,1) that no split sequence produces
    dec = interval_dec(F(1, 3), F(1, 2))
    assert volume(dec) == 1
    assert not is_split_generated(dec)


def test_containment_alone_does_not_certify_grid_refinement():
    # every region fits inside a quarter cell, yet the first quarter rescales
    # to the non-split partition {(0,2/3),(2/3,1)}; only the half grid works
    dec = interval_dec(F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(3, 4))
    assert is_split_generated(dec)
    cells = [((F(j, 4), F(j + 1, 4)),) for j in range(4)]
    assert all(
        any(region_contains(c, reg) for c in cells) for reg in dec.regions
    )
    assert not refines_grid(dec, (4,))
    assert refines_grid(dec, (2,))
    assert gcd_of(dec) == (2,)
    sub = restrict_rescale(dec, cells[0])
    assert not is_split_generated(sub)


def test_figure_decompositions_gcd_lcm():
    assert volume(EIGHT) == 1 and volume(ELEVEN) == 1
    assert is_split_generated(EIGHT) and is_split_generated(ELEVEN)
    assert gcd_of(EIGHT) == (3, 1)
    assert lcm_of(EIGHT) == (6, 4)
    assert gcd_of(ELEVEN) == (3, 2)
    assert lcm_of(ELEVEN) == (6, 12)
    assert refines_grid(EIGHT, (3, 1)) and not refines_grid(EIGHT, (3, 2))
    assert refines_grid(ELEVEN, (3, 2)) and refines_grid(ELEVEN, (3, 1))


def test_refines_grid_iff_componentwise_divisor_of_gcd():
    for n, decs in enumerate_decompositions_up_to(2, 4).items():
        for dec in decs:
            g = gcd_of(dec)
            for r1 in range(1, 5):
                for r2 in range(1, 5):
                    expected = g[0] % r1 == 0 and g[1] % r2 == 0
                    assert refines_grid(dec, (r1, r2)) == expected


def test_restrict_rescale_inverts_grid_refinement():
    dec = split_decomposition(
        grid_decomposition((2, 2)), grid_decomposition((2, 2)).regions[0], 1, 3
    )
    cell = box((0, 1, 1, 2), (0, 1, 1, 2))
    sub = restrict_rescale(dec, cell)
    assert sub == grid_decomposition((1, 3))


def test_gcd_lcm_of_trivial():
    t = trivial_decomposition(3)
    assert gcd_of(t) == (1, 1, 1)
    assert lcm_of(t) == (1, 1, 1)


def test_json_round_trip():
    for dec in (EIGHT, ELEVEN, trivial_decomposition(1)):
        data = decomposition_to_json_dict(dec)
        assert decomposition_from_json_dict(data) == dec
    payload = decomposition_to_json_dict(EIGHT)
    assert payload["d"] == 2
    assert all(len(reg) == 2 for reg in payload["regions"])
    assert all(
        isinstance(e, str) for reg in payload["regions"] for iv in reg for e in iv
    )
    for bad in (
        [1, 2],
        {"d": None, "regions": [[["0", "1"]]]},
        {"d": 1, "regions": 5},
        {"d": 1, "regions": []},
        {"d": 1, "regions": [[5]]},
        {"d": 1, "regions": [[["0", None]]]},
        {"d": 2, "regions": [[["0", "1"]]]},
        {"d": 1, "regions": [[["1/2", "1/2"]], [["1/2", "1"]]]},
        {"d": 1, "regions": [[["-1/2", "1/2"]], [["1/2", "1"]]]},
        {"d": 1, "regions": [[["0", "1/2"]], [["1/2", "3/2"]]]},
        {"d": 1, "regions": [[[False, True]]]},
        {"d": 1, "regions": [[[0, 0.5]], [[0.5, True]]]},
        {"d": 1, "regions": [[[0, 0.1]], [[0.1, 1]]]},
        {"d": 1, "regions": [[["0", "1/0"]]]},
        {"regions": [[["0", "1"]]]},
        {"d": 1},
    ):
        with pytest.raises(ValueError):
            decomposition_from_json_dict(bad)
    # a JSON integer endpoint is exact, like a string
    assert decomposition_from_json_dict({"d": 1, "regions": [[[0, "1/2"]], [["1/2", 1]]]}) == (
        interval_dec(F(1, 2)))


# (d, regions) that both doors refuse, and the one ValueError text each gives
BAD_REGIONS = [
    (2, (((F(0), F(1)),),), "region ((0, 1)) does not have 2 intervals"),
    (1, (((F(0), F(1)), (F(0), F(1))),), "region ((0, 1), (0, 1)) does not have 1 intervals"),
    (1, (((F(1, 2), F(1, 4)),),), "interval (1/2, 1/4) does not satisfy 0 <= lo < hi <= 1"),
    (1, (((F(-1, 2), F(1)),),), "interval (-1/2, 1) does not satisfy 0 <= lo < hi <= 1"),
    (1, (((F(0), F(3, 2)),),), "interval (0, 3/2) does not satisfy 0 <= lo < hi <= 1"),
    (1, (), "a decomposition needs d >= 1 and at least one region"),
    (0, (((F(0), F(1)),),), "a decomposition needs d >= 1 and at least one region"),
    ("1", (((F(0), F(1)),),), "a decomposition needs an integer d, got '1'"),
]


@pytest.mark.parametrize("d, regions, message", BAD_REGIONS, ids=[
    f"d={d!r}:" + " ".join("x".join(f"{lo}:{hi}" for lo, hi in reg) for reg in regions)
    for d, regions, _ in BAD_REGIONS])
def test_the_constructor_and_the_json_reader_refuse_a_bad_region_alike(d, regions, message):
    payload = {"d": d, "regions": [[[str(lo), str(hi)] for lo, hi in reg] for reg in regions]}
    for build in (lambda: Decomposition(d, regions), lambda: decomposition_from_json_dict(payload)):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message


@pytest.mark.parametrize("endpoint", [0.0, "0", False, None], ids=repr)
def test_the_constructor_refuses_an_endpoint_that_is_no_integer_or_fraction(endpoint):
    # as the JSON reader refuses a float and a bool: 0.1 is not 1/10, and False is no number
    with pytest.raises(ValueError) as refused:
        Decomposition(1, (((endpoint, F(1)),),))
    assert str(refused.value) == f"endpoint {endpoint!r} is not an integer or a Fraction"


@contextmanager
def shallow_stack(frames=80):
    """Allow only `frames` Python frames above the caller's depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def binary_chain(n):
    """{(0,1/2), (1/2,3/4), ..., (1-2^(1-n), 1)}: n regions, split depth n - 1."""
    pts = [F(0)] + [1 - F(1, 2 ** k) for k in range(1, n)] + [F(1)]
    return Decomposition(1, tuple(((lo, hi),) for lo, hi in zip(pts, pts[1:])))


def test_gcd_of_rejects_inputs_that_are_not_split_generated():
    half = box((0, 1, 1, 2), (0, 1, 1, 1))
    quarter_cell = interval_dec(F(2, 3))  # first quarter cell of the docstring example
    for bad in (
        Decomposition(2, (half, half)),  # overlapping boxes
        Decomposition(1, (((F(0), F(1, 2)),), ((F(3, 4), F(1)),))),  # a gap
        quarter_cell,
        interval_dec(F(1, 3), F(1, 2)),
        Decomposition(1, (((F(0), F(1, 2)),),)),
        interval_dec(F(1, 10000000000000061)),  # a large prime grid size: only 2 can cut it
    ):
        start = time.perf_counter()
        assert not is_split_generated(bad)
        with pytest.raises(ValueError):
            gcd_of(bad)
        assert time.perf_counter() - start < 0.5
    docstring_example = interval_dec(F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(3, 4))
    assert restrict_rescale(docstring_example, ((F(0), F(1, 4)),)) == quarter_cell
    assert gcd_of(docstring_example) == (2,)


def test_split_generation_needs_no_recursion():
    chain = binary_chain(300)
    with shallow_stack():
        assert is_split_generated(chain)
        assert gcd_of(chain) == (2,)
        assert refines_grid(chain, (2,)) and not refines_grid(chain, (4,))
        system = phi(chain)
    assert [(c.a, c.n) for c in system] == [(2 ** k - 1, 2 ** (k + 1)) for k in range(299)] + [
        (2 ** 299 - 1, 2 ** 299)]


@lru_cache(maxsize=None)
def all_decompositions(d, max_n):
    levels = enumerate_decompositions_up_to(d, max_n)
    return [dec for n in range(1, max_n + 1) for dec in sorted(levels[n], key=repr)]


@pytest.mark.parametrize("d,max_n", [(1, 9), (2, 6)])
def test_kernel_agrees_with_enumeration_and_covering_invariants(d, max_n):
    for dec in all_decompositions(d, max_n):
        assert is_split_generated(dec)
        if d == 1:
            system = phi(dec)
            assert necs_gcd(system) == gcd_of(dec)[0]
            assert necs_lcm(system) == lcm_of(dec)[0]


@pytest.mark.parametrize("d,max_n", [(1, 9), (2, 6)])
def test_gcd_of_is_the_largest_refined_grid(d, max_n):
    for dec in all_decompositions(d, max_n):
        refined = [r for r in product(*map(divisors, lcm_of(dec))) if refines_grid(dec, r)]
        assert tuple(map(max, zip(*refined))) == gcd_of(dec), dec


def test_cells_keep_the_parent_scale_and_hold_whole_regions():
    # grid form (L, regions) of {(0,1/3), (1/3,1/2), (1/2,1)}: L = 6
    grid = ((6,), ((0, 2), (2, 3), (3, 6)))
    assert geometry._cells(grid, 0, 2) == [((3,), ((0, 2), (2, 3))), ((3,), ((0, 3),))]
    assert geometry._cells(grid, 0, 3) is None  # (3, 6) straddles the cell boundary at 4
    assert geometry._cells(((6,), ((0, 4), (4, 6))), 0, 2) is None  # (0, 4) straddles 3
    assert geometry._cells(((6,), ((0, 1), (1, 2), (2, 3))), 0, 2) is None  # an empty cell
    assert geometry._cells(grid, 0, 4) is None  # 4 does not divide 6, and exceeds 3 regions


def random_partition(rng, parts):
    """A random partition of (0, 1) into at most `parts` intervals over one denominator."""
    q = rng.choice((4, 6, 8, 9, 12, 16, 18, 24, 30))
    pts = [0] + sorted(rng.sample(range(1, q), min(parts, q) - 1)) + [q]
    return [(F(a, q), F(b, q)) for a, b in zip(pts, pts[1:])]


def test_random_tilings_are_split_generated_exactly_when_enumerated():
    # most of these tilings are not split-generated, so they reach the rejecting
    # branches of the kernel that the enumerated inputs never do
    rng = random.Random(20221)
    levels = {1: enumerate_decompositions_up_to(1, 7), 2: enumerate_decompositions_up_to(2, 5)}
    decs = [Decomposition(1, tuple((iv,) for iv in random_partition(rng, rng.randint(1, 7))))
            for _ in range(2500)]
    for _ in range(1500):
        xs = random_partition(rng, rng.randint(1, 5))
        ys = random_partition(rng, rng.randint(1, 5 // len(xs)))
        decs.append(Decomposition(2, tuple(product(xs, ys))))
    rejected = 0
    for dec in decs:
        generated = dec in levels[dec.d][len(dec)]
        assert is_split_generated(dec) == generated, dec
        if generated:
            gcd_of(dec)
        else:
            rejected += 1
            with pytest.raises(ValueError, match="not a split-generated decomposition"):
                gcd_of(dec)
    assert rejected > len(decs) // 2


def random_tree(rng, d, leaves):
    """A random labelled plane tree with exactly `leaves` leaves and arities up to 4."""
    if leaves == 1:
        return LEAF
    r = rng.randint(2, min(4, leaves))
    cuts = sorted(rng.sample(range(1, leaves), r - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [leaves])]
    return (rng.randint(1, d), *(random_tree(rng, d, k) for k in sizes))


def replay(tree, d):
    """The tree's decomposition by split_decomposition, and its leaves' boxes by split."""
    dec, boxes = trivial_decomposition(d), []
    stack = [(tree, unit_region(d))]
    while stack:
        node, box = stack.pop()
        if node == LEAF:
            boxes.append(box)
            continue
        dec = split_decomposition(dec, box, node[0] - 1, len(node) - 1)
        stack += zip(node[1:], split(box, node[0] - 1, len(node) - 1))
    return dec, boxes


def spellings(x):
    """JSON spellings of the endpoint x that the reader accepts, the canonical one first."""
    p, q = x.numerator, x.denominator
    out = [str(x), f"{2 * p}/{2 * q}", f"{3 * p}/{3 * q}", f"+{p}/{q}"]
    if q == 1:
        out += [p, f"{p}.0"]
    digits = next((m for m in range(1, 12) if 10 ** m % q == 0), None)
    if digits is not None:
        out.append(f"0.{p * 10 ** digits // q:0{digits}d}" if p < q else "1.0")
    return out


def test_every_constructor_builds_the_same_canonical_form():
    rng = random.Random(20261018)
    limits = {1: 8, 2: 5, 3: 4}
    levels = {d: enumerate_decompositions_up_to(d, n) for d, n in limits.items()}
    samples = [(dec, list(dec.regions)) for d in levels for decs in levels[d].values()
               for dec in decs]
    for _ in range(600):
        d = rng.randint(1, 3)
        tree = random_tree(rng, d, rng.randint(1, 12))
        dec, boxes = replay(tree, d)
        assert psi(tree, d) == dec and hash(psi(tree, d)) == hash(dec)
        if len(dec) <= limits[d]:
            assert dec in levels[d][len(dec)]
        samples.append((dec, boxes))
    for dec, boxes in samples:
        rng.shuffle(boxes)
        assert dec.regions == tuple(sorted(boxes))
        json_forms = [[[[spellings(e)[0] for e in iv] for iv in box] for box in boxes],
                      [[[rng.choice(spellings(e)) for e in iv] for iv in box] for box in boxes]]
        for other in [Decomposition(dec.d, boxes)] + [
                decomposition_from_json_dict({"d": dec.d, "regions": regions})
                for regions in json_forms]:
            assert other == dec and hash(other) == hash(dec)


def test_non_canonical_endpoints_give_the_same_object():
    half = interval_dec(F(1, 2))
    for lo, hi in (("2/4", "4/4"), ("0.5", 1), ("1/2", "1.0"), ("01/2", "3/3"), (" 1/2", "+1")):
        dec = decomposition_from_json_dict({"d": 1, "regions": [[["0", lo]], [[lo, hi]]]})
        assert dec == half and hash(dec) == hash(half) and dec.Ls == (2,)


def test_decompositions_are_frozen_and_survive_pickling():
    with pytest.raises(AttributeError):
        EIGHT.grid = ELEVEN.grid
    copy = pickle.loads(pickle.dumps(ELEVEN))
    assert copy == ELEVEN and hash(copy) == hash(ELEVEN) and copy.regions == ELEVEN.regions


def test_enumeration_never_asks_the_gcd_search(monkeypatch):
    def kernel(*args):
        raise AssertionError("the enumeration oracle called the gcd kernel")

    for name in ("_gcd", "_search", "_cells"):
        monkeypatch.setattr(geometry, name, kernel)
    for d, n in ((1, 7), (2, 5), (3, 4)):
        levels = enumerate_decompositions_up_to(d, n)
        assert [len(levels[m]) for m in range(1, n + 1)] == decomposition_counts(d, n)[1:]
