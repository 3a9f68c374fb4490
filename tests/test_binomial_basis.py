"""s_d(n) and a_d(n) as polynomials in d, in the binomial basis C(d, k).

mu_d(m) is a polynomial in d of degree at most m - 1, so s_d(n) (degree n - 1)
and a_d(n) (degree at most n) are too, and

    s_d(n) = sum_k C(d, k) e_k(n),    a_d(n) = sum_k C(d, k) f_k(n),

with e_k(n) and f_k(n) the k-th forward differences in d at d = 0 (binomial
inversion of the tables at d = 0..n; s_0(n) = [n = 1], a_0(n) = [n = 0]).
e_k(n) counts the decompositions of the k-cube into n regions that split every
axis, and f_k(n) is the signed count of the sequences of A_{k,n} that use every
one of k colours; the last two tests check those readings against enumeration.
"""

import math
from collections import Counter
from itertools import combinations

import pytest

from cubedecomp.geometry import enumerate_decompositions
from cubedecomp.prime_sequences import iter_sequences, sequence_sign
from cubedecomp.series import auxiliary_counts, decomposition_counts

TOP = 12


def s_row(d, top=TOP):
    """s_d(0..top), with s_0(n) = [n = 1]."""
    return decomposition_counts(d, top) if d else [0, 1] + [0] * (top - 1)


def a_row(d, top=TOP):
    """a_d(0..top), with a_0(n) = [n = 0]."""
    return auxiliary_counts(d, top) if d else [1] + [0] * top


def binomial_parts(values):
    """[c_0, ..., c_m] with values[j] = sum_k C(j, k) c_k for j = 0..m: c_k is the
    k-th forward difference of values at 0."""
    return [sum((-1) ** (k - j) * math.comb(k, j) * values[j] for j in range(k + 1))
            for k in range(len(values))]


def parts(row, n, top_k=None):
    """e_k(n) (row = s_row) or f_k(n) (row = a_row) for k = 0..top_k (default n), from
    d = 0..top_k; past the degree the differences are 0."""
    return binomial_parts([row(d)[n] for d in range((n if top_k is None else top_k) + 1)])


@pytest.mark.parametrize("row", [s_row, a_row], ids=["s", "a"])
def test_tables_at_d_0_to_n_fix_the_values_at_larger_d(row):
    for n in range(TOP + 1):
        coeffs = parts(row, n)
        for d in range(n + 1, n + 4):
            assert row(d)[n] == sum(math.comb(d, k) * c for k, c in enumerate(coeffs)), (n, d)


def test_top_coefficient_of_s_d_n():
    # e_(n-1)(n) = (2n-2)!/n!: n - 1 binary splits, one along each axis, shaped as a
    # binary tree with n leaves (Catalan(n-1) shapes) labelled by the axes, (n-1)! ways.
    # So s_d(n) has degree n - 1 in d, with leading coefficient (2n-2)!/(n!(n-1)!).
    for n in range(2, TOP + 1):
        e = parts(s_row, n)
        assert e[n] == 0 and e[n - 1] == math.factorial(2 * n - 2) // math.factorial(n), n


def test_decompositions_grouped_by_split_axes_count_e_k():
    # a 3-d decomposition whose axes with L_i > 1 are K is a |K|-d one splitting every axis
    for n in range(1, 6):
        e = parts(s_row, n, max(n, 3))
        groups = Counter(frozenset(i for i, L in enumerate(dec.Ls) if L > 1)
                         for dec in enumerate_decompositions(3, n))
        for k in range(4):
            for axes in combinations(range(3), k):
                assert groups[frozenset(axes)] == e[k], (n, axes)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sequences_grouped_by_colour_set_give_f_k(d):
    for n in range(7):
        f = parts(a_row, n, max(n, d))
        signed = Counter()
        for seq in iter_sequences(d, n):
            signed[frozenset(c for s in seq for _, c in s)] += sequence_sign(seq)
        for k in range(d + 1):
            for colours in combinations(range(1, d + 1), k):
                assert signed[frozenset(colours)] == f[k], (d, n, colours)
