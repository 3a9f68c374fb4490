"""Counts of decompositions and covering systems grouped by lcm."""

from itertools import product
from math import gcd, prod

import pytest

from cubedecomp.covering import enumerate_necs_up_to, necs_lcm
from cubedecomp.geometry import enumerate_decompositions_up_to, lcm_of
from cubedecomp.lcm_counts import g_count, h_count
from cubedecomp.number_theory import divisors

# Hand-checked scalar rows for r = 1..16.
G_ROW = [1, 2, 2, 5, 2, 12, 2, 26, 9, 36, 2, 206, 2, 132, 40, 677]
H_ROW = [1, 1, 1, 3, 1, 9, 1, 21, 7, 33, 1, 191, 1, 129, 37, 651]


def test_scalar_tables():
    assert [g_count((r,)) for r in range(1, 17)] == G_ROW
    assert [h_count((r,)) for r in range(1, 17)] == H_ROW


def test_prime_arguments_are_rigid():
    # only the trivial and the full p-fold split have lcm dividing a prime
    for p in (2, 3, 5, 7, 11, 13):
        assert g_count((p,)) == 2
        assert h_count((p,)) == 1


def test_h_is_mobius_transform_of_g():
    for r in range(1, 17):
        assert g_count((r,)) == sum(h_count((q,)) for q in divisors(r))
    for r1 in range(1, 5):
        for r2 in range(1, 5):
            total = sum(
                h_count((q1, q2)) for q1 in divisors(r1) for q2 in divisors(r2)
            )
            assert g_count((r1, r2)) == total


def test_symmetry_in_the_axes():
    assert g_count((2, 3)) == g_count((3, 2))
    assert g_count((4, 6, 2)) == g_count((2, 4, 6))
    assert h_count((2, 3)) == h_count((3, 2))


def test_coprime_axes_collapse_to_scalar():
    for r1, r2 in ((2, 3), (3, 4), (2, 9), (5, 4)):
        assert gcd(r1, r2) == 1
        assert g_count((r1, r2)) == g_count((r1 * r2,))
        assert h_count((r1, r2)) == h_count((r1 * r2,))
    # fails without coprimality
    assert g_count((2, 2)) != g_count((4,))


def test_validation():
    for bad in ((), (0,), (-1, 2)):
        with pytest.raises(ValueError):
            g_count(bad)
        with pytest.raises(ValueError):
            h_count(bad)


def test_h_matches_lcm_grouped_enumeration_in_one_dimension():
    # Decompositions with lcm exactly (l) have at most l regions, so the
    # level-capped enumeration is complete for each l below the cap.
    cap = 6
    by_lcm = {}
    for decs in enumerate_decompositions_up_to(1, cap).values():
        for dec in decs:
            (l,) = lcm_of(dec)
            by_lcm[l] = by_lcm.get(l, 0) + 1
    for l in range(1, cap + 1):
        assert by_lcm.get(l, 0) == h_count((l,)), l


@pytest.mark.parametrize("d,cap,vectors", [(2, 6, 14), (3, 5, 16)])
def test_h_matches_lcm_grouped_enumeration_in_two_and_three_dimensions(d, cap, vectors):
    # A decomposition with lcm exactly r has at most prod(r) regions, so the
    # level-capped enumeration holds every one with prod(r) <= cap.
    by_lcm = {}
    for decs in enumerate_decompositions_up_to(d, cap).values():
        for dec in decs:
            by_lcm[lcm_of(dec)] = by_lcm.get(lcm_of(dec), 0) + 1
    rs = [r for r in product(range(1, cap + 1), repeat=d) if prod(r) <= cap]
    assert len(rs) == vectors
    for r in rs:
        assert by_lcm.get(r, 0) == h_count(r), r


def test_h_matches_lcm_grouped_necs_enumeration():
    cap = 6
    by_lcm = {}
    for sys_set in enumerate_necs_up_to(cap).values():
        for system in sys_set:
            l = necs_lcm(system)
            by_lcm[l] = by_lcm.get(l, 0) + 1
    for l in range(1, cap + 1):
        assert by_lcm.get(l, 0) == h_count((l,)), l


def test_g_matches_grid_refining_enumeration_in_two_dimensions():
    # g((2,2)) counts decompositions whose lcm divides (2,2); all of them
    # have at most four regions
    count = 0
    for decs in enumerate_decompositions_up_to(2, 4).values():
        for dec in decs:
            l1, l2 = lcm_of(dec)
            if 2 % l1 == 0 and 2 % l2 == 0:
                count += 1
    assert count == g_count((2, 2))
