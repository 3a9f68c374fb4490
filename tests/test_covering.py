"""Natural exact covering systems and the decomposition bijection."""

from fractions import Fraction as F
from math import gcd

import pytest

from cubedecomp import geometry

from cubedecomp.covering import (
    Necs,
    classes_intersect,
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
from cubedecomp.geometry import (
    Decomposition,
    enumerate_decompositions_up_to,
    gcd_of,
    lcm_of,
    trivial_decomposition,
)
from cubedecomp.series import decomposition_counts


def interval_dec(*breaks):
    pts = [F(0)] + sorted(F(a, b) for a, b in breaks) + [F(1)]
    return Decomposition(1, tuple(((lo, hi),) for lo, hi in zip(pts, pts[1:])))


def necs(*classes):
    return Necs(tuple(make_class(a, n) for a, n in classes))


# Hand-checked table: interior breakpoints -> image system, gcd, lcm,
# covering all 1-d decompositions with up to four regions.
GOLDEN_ROWS = [
    ([], [(0, 1)], 1, 1),
    ([(1, 2)], [(0, 2), (1, 2)], 2, 2),
    ([(1, 4), (1, 2)], [(0, 4), (2, 4), (1, 2)], 2, 4),
    ([(1, 2), (3, 4)], [(0, 2), (1, 4), (3, 4)], 2, 4),
    ([(1, 3), (2, 3)], [(0, 3), (1, 3), (2, 3)], 3, 3),
    ([(1, 6), (1, 3), (1, 2)], [(0, 6), (2, 6), (4, 6), (1, 2)], 2, 6),
    ([(1, 2), (2, 3), (5, 6)], [(0, 2), (1, 6), (3, 6), (5, 6)], 2, 6),
    ([(1, 8), (1, 4), (1, 2)], [(0, 8), (4, 8), (2, 4), (1, 2)], 2, 8),
    ([(1, 4), (3, 8), (1, 2)], [(0, 4), (2, 8), (6, 8), (1, 2)], 2, 8),
    ([(1, 2), (5, 8), (3, 4)], [(0, 2), (1, 8), (5, 8), (3, 4)], 2, 8),
    ([(1, 2), (3, 4), (7, 8)], [(0, 2), (1, 4), (3, 8), (7, 8)], 2, 8),
    ([(1, 6), (1, 3), (2, 3)], [(0, 6), (3, 6), (1, 3), (2, 3)], 3, 6),
    ([(1, 3), (1, 2), (2, 3)], [(0, 3), (1, 6), (4, 6), (2, 3)], 3, 6),
    ([(1, 3), (2, 3), (5, 6)], [(0, 3), (1, 3), (2, 6), (5, 6)], 3, 6),
    ([(1, 4), (1, 2), (3, 4)], [(0, 4), (1, 4), (2, 4), (3, 4)], 4, 4),
]


def test_split_class_partitions():
    c = make_class(1, 2)
    parts = split_class(c, 3)
    assert parts == (make_class(1, 6), make_class(3, 6), make_class(5, 6))
    assert is_exact_cover(parts + (make_class(0, 2),))
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            assert not classes_intersect(p, q)


def test_make_class_normalizes_representative():
    assert make_class(7, 4) == make_class(3, 4)
    with pytest.raises(ValueError):
        make_class(0, 0)


def test_split_chain_reaches_documented_system():
    c = trivial_necs()
    c = split_necs(c, make_class(0, 1), 2)
    c = split_necs(c, make_class(0, 2), 2)
    c = split_necs(c, make_class(2, 4), 2)
    c = split_necs(c, make_class(1, 2), 3)
    target = necs((0, 4), (2, 8), (6, 8), (1, 6), (3, 6), (5, 6))
    assert c == target
    assert is_exact_cover(target.classes)
    assert target in enumerate_necs(6)
    with pytest.raises(ValueError):
        split_necs(c, make_class(0, 2), 2)


def test_every_enumerated_system_is_an_exact_cover():
    for m, systems in enumerate_necs_up_to(5).items():
        for system in systems:
            assert len(system) == m
            assert is_exact_cover(system.classes)


def test_enumeration_counts_match_decomposition_counts():
    levels = enumerate_necs_up_to(7)
    s = decomposition_counts(1, 7)
    assert [len(levels[m]) for m in range(1, 8)] == s[1:]


def test_phi_on_golden_table():
    for breaks, classes, g, l in GOLDEN_ROWS:
        image = phi(interval_dec(*breaks))
        assert image == necs(*classes), breaks
        assert necs_gcd(image) == g
        assert necs_lcm(image) == l


def test_phi_rejects_higher_dimensions():
    with pytest.raises(ValueError):
        phi(trivial_decomposition(2))
    # a single region other than the unit interval is not a decomposition
    with pytest.raises(ValueError):
        phi(Decomposition(1, (((F(0), F(1, 2)),),)))


def test_phi_is_a_bijection_with_matching_invariants():
    decs = enumerate_decompositions_up_to(1, 5)
    systems = enumerate_necs_up_to(5)
    for n in range(1, 6):
        image = {}
        for dec in decs[n]:
            c = phi(dec)
            assert c not in image, "phi collided"
            image[c] = dec
            assert necs_gcd(c) == gcd_of(dec)[0]
            assert necs_lcm(c) == lcm_of(dec)[0]
        assert set(image) == systems[n]


def unphi(system):
    """The decomposition of a natural covering system, read off its moduli alone.

    r = the gcd of the moduli; class a mod n of group j = a mod r becomes
    (a - j)/r mod n/r, and group j fills block (j/r, (j+1)/r).  Integers and
    math.gcd only: nothing of the gcd search behind phi is used.
    """
    intervals = []
    stack = [([(c.a, c.n) for c in system.classes], F(0), F(1))]
    while stack:
        classes, lo, width = stack.pop()
        if len(classes) == 1:
            assert classes == [(0, 1)]
            intervals.append(((lo, lo + width),))
            continue
        r = gcd(*(n for _, n in classes))
        assert r >= 2, classes
        for j in range(r):
            group = [((a - j) // r, n // r) for a, n in classes if a % r == j]
            stack.append((group, lo + j * width / r, width / r))
    return Decomposition(1, intervals)


def test_unphi_inverts_phi_on_every_small_interval_decomposition():
    decs = [dec for level in enumerate_decompositions_up_to(1, 8).values() for dec in level]
    assert len(decs) == 3986
    geometry._memo.clear()  # the first pass searches, the second reads the memo
    for _ in range(2):
        for dec in decs:
            assert unphi(phi(dec)) == dec, dec


def test_phi_takes_every_block_from_the_gcd_record(monkeypatch):
    cells, calls = geometry._cells, []

    def recording_cells(*args):
        calls.append(args)
        return cells(*args)

    monkeypatch.setattr(geometry, "_cells", recording_cells)
    geometry._memo.clear()  # every record phi reads is made by the gcd_of call before it
    searched = 0
    for n, level in enumerate_decompositions_up_to(1, 7).items():
        for dec in level if n >= 2 else ():
            calls.clear()
            gcd_of(dec)
            searched += len(calls)
            calls.clear()
            phi(dec)
            assert not calls, dec  # phi cut no block itself
    assert searched > 0  # the recorder sees the search's cuts


def test_json_round_trip():
    system = necs((0, 4), (2, 8), (6, 8), (1, 6), (3, 6), (5, 6))
    data = necs_to_json_dict(system)
    assert data == {
        "classes": [
            {"a": 0, "n": 4},
            {"a": 1, "n": 6},
            {"a": 3, "n": 6},
            {"a": 5, "n": 6},
            {"a": 2, "n": 8},
            {"a": 6, "n": 8},
        ]
    }
    assert necs_from_json_dict(data) == system


@pytest.mark.parametrize("data", [
    {"classes": [{"a": True, "n": 2.9}, {"a": 0, "n": 2}]},  # read as {1 mod 2, 0 mod 2} before
    {"classes": [{"a": 0, "n": 2}, {"a": "1", "n": 2}]},
    {"classes": [{"a": 0, "n": 2}, {"a": 0, "n": 2}]},  # not a cover
    {"classes": [{"a": 0, "n": 2}, {"a": 1, "n": 4}]},  # disjoint, density 3/4
    {"classes": []},
    {"classes": [{"a": 0, "n": 0}]},
    {"classes": 5},
    [{"a": 0, "n": 1}],
])
def test_necs_from_json_rejects_what_is_not_an_integer_cover(data):
    with pytest.raises(ValueError):
        necs_from_json_dict(data)


@pytest.mark.parametrize("data, field", [
    ({"classes": [{"n": 1}]}, "a"),
    ({"classes": [{"a": 0}]}, "n"),
    ({}, "classes"),
])
def test_necs_from_json_names_a_missing_field(data, field):
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        necs_from_json_dict(data)
