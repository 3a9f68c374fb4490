"""The self-check suites that `cubedecomp verify` runs, and their frozen tables.

A check returns None or raises AssertionError.  `cli` imports this module only
when `verify` runs, so no other command compiles it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Dict, Iterable, List, Tuple

from . import (
    auxiliary_counts, check_growth_bounds, decomposition_counts, decomposition_series,
    enumerate_A, enumerate_A_tilde, enumerate_B, enumerate_decompositions,
    enumerate_decompositions_up_to, enumerate_necs, enumerate_necs_up_to, enumerate_trees,
    eval_M, eval_M_second, find_saddle, g_count, gcd_of, h_count, lcm_of, mobius_d,
    mobius_d_values, mobius_series, necs_gcd, necs_lcm, parse_tree, phi, psi, ratio_injection,
    refined_counts, signed_sum, tree_counts,
)
from .number_theory import mobius_d_by_convolution  # the oracles outside __all__
from .series import _revert_by_extraction

MU_TABLE = {
    1: [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1],
    2: [1, -2, -2, 1, -2, 4, -2, 0, 1, 4, -2, -2, -2, 4, 4],
    3: [1, -3, -3, 3, -3, 9, -3, -1, 3, 9, -3, -9, -3, 9, 9],
}
S_TABLE = {
    1: [1, 1, 3, 10, 39, 160, 691, 3081, 14095, 65757],
    2: [1, 2, 10, 59, 394, 2810, 20998, 162216, 1285185, 10384986],
    3: [1, 3, 21, 177, 1677, 17001, 180525, 1981909, 22314339, 256245783],
}
A_TABLE = {
    1: [1, 1, 2, 3, 6, 9, 17, 28, 50, 83, 147],
    2: [1, 2, 6, 15, 42, 108, 291, 766, 2041, 5395, 14328],
    3: [1, 3, 12, 42, 156, 558, 2028, 7318, 26490, 95730, 346218],
}
G_ROW = [1, 2, 2, 5, 2, 12, 2, 26, 9, 36, 2, 206, 2, 132, 40, 677]
H_ROW = [1, 1, 1, 3, 1, 9, 1, 21, 7, 33, 1, 191, 1, 129, 37, 651]
SCHROEDER = [1, 1, 3, 11, 45, 197, 903]
GROWTH_EXCESS = {2: 0.004290, 3: 0.007080, 30: 0.001910}


def _agree(cases: Callable[[], Iterable[tuple]], fast: Callable,
           oracle: Callable) -> Callable[[], None]:
    """A check that fast(*case) == oracle(*case) for every argument tuple of cases().

    cases is called when the check runs, so building SUITES computes nothing.
    """
    def check() -> None:
        for case in cases():
            assert fast(*case) == oracle(*case), case
    return check


def _check_tree_tables() -> None:
    series = tree_counts(1, 7)
    assert [series.coefficient(n) for n in range(1, 8)] == SCHROEDER
    for d in (1, 2):
        t = tree_counts(d, 8)
        s = decomposition_counts(d, 8)
        assert all(t.coefficient(n) > s[n] for n in range(4, 9)), d


def _check_growth_goldens() -> None:
    assert abs(find_saddle(1).growth_rate - 5.487452) < 1e-5
    for d, excess in GROWTH_EXCESS.items():
        got = find_saddle(d).growth_rate - (4 * d + 1.5)
        assert abs(got - excess) < 1e-5, (d, got)
    _check_growth_bounds_range()
    rates = [find_saddle(d).growth_rate for d in range(1, 31)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def _check_refined_oracle() -> None:
    for d, r, max_n in ((1, (2,), 6), (1, (3,), 6), (2, (2, 1), 5), (2, (2, 2), 5)):
        values = refined_counts(d, r, max_n)
        levels = enumerate_decompositions_up_to(d, max_n)
        for n in range(1, max_n + 1):
            count = sum(1 for dec in levels[n] if gcd_of(dec) == r)
            assert count == values[n], (d, r, n)


def _check_lcm_oracle() -> None:
    decs = chain.from_iterable(enumerate_decompositions_up_to(1, 8).values())
    systems = chain.from_iterable(enumerate_necs_up_to(8).values())
    dec_by_lcm = Counter(lcm_of(dec)[0] for dec in decs)
    necs_by_lcm = Counter(map(necs_lcm, systems))
    for ell in range(1, 9):
        assert dec_by_lcm[ell] == h_count((ell,)), ell
        assert necs_by_lcm[ell] == h_count((ell,)), ell


def _check_ratio_injection() -> None:
    for d in (1, 2):
        for n in range(1, 8):
            domain = enumerate_A(d, n)
            target = set(map(tuple, enumerate_A(d, n + 1)))
            for colour in range(1, d + 1):
                images = [ratio_injection(seq, colour) for seq in domain]
                assert len(set(images)) == len(domain), (d, n, colour)
                assert all(tuple(img) in target for img in images), (d, n, colour)


def _check_saddle_certification() -> None:
    for d in range(1, 31):
        saddle = find_saddle(d)
        assert saddle.M2_at_s < 0, d
        assert saddle.tail_bound_used < 1e-13, d


def _check_growth_bounds_range() -> None:
    assert all(check_growth_bounds(d) for d in range(2, 31))


def _check_series_ratio_consistency() -> None:
    for d in (1, 2, 3):
        s = decomposition_counts(d, 151)
        ratio = s[151] / s[150]
        rate = find_saddle(d).growth_rate
        assert abs(ratio - rate) / rate < 0.01, (d, ratio, rate)


def _check_truncation_stability() -> None:
    for d in (1, 2, 5, 30):
        saddle = find_saddle(d)
        for evaluator in (eval_M, eval_M_second):
            v6, t6 = evaluator(d, saddle.s, 6)
            v7, _ = evaluator(d, saddle.s, 7)
            assert abs(v7 - v6) <= t6, (d, evaluator.__name__)


# Rows are (check, provenance, check function).  Rows built by _agree compare a
# fast path with its oracle or a frozen table; the rest need tolerances,
# inequalities or several kinds of assertion.
SUITES: Dict[str, List[Tuple[str, str, Callable[[], None]]]] = {
    "tables": [
        ("mu-closed-form-vs-convolution", "series", _agree(
            lambda: [(d, 200) for d in (1, 2, 3)], mobius_d_values, mobius_d_by_convolution)),
        ("mu-tables", "series", _agree(
            lambda: [(d, n) for d in MU_TABLE for n in range(1, 16)],
            mobius_d, lambda d, n: MU_TABLE[d][n - 1])),
        ("count-tables", "series", _agree(
            lambda: [(d, 10) for d in S_TABLE],
            lambda d, n: (decomposition_counts(d, n)[1:], auxiliary_counts(d, n)),
            lambda d, n: (S_TABLE[d], A_TABLE[d]))),
        ("series-round-trip", "series", _agree(
            lambda: [(d, 40) for d in (1, 2, 3)],
            lambda d, n: mobius_series(d, n).compose(decomposition_series(d, n)).coeffs,
            lambda d, n: (0, 1) + (0,) * (n - 1))),
        ("dual-reversion-agreement", "series", _agree(
            lambda: [(d, 40) for d in (1, 2, 3)], decomposition_counts, _revert_by_extraction)),
        ("tree-count-tables", "series", _check_tree_tables),
        ("lcm-count-tables", "recursion", _agree(
            lambda: [(n,) for n in range(1, 17)],
            lambda n: (g_count((n,)), h_count((n,))),
            lambda n: (G_ROW[n - 1], H_ROW[n - 1]))),
        ("growth-goldens", "saddle", _check_growth_goldens),
    ],
    "oracles": [
        ("decomposition-enumeration-counts", "enumeration", _agree(
            lambda: ((1, 7), (2, 5)),
            lambda d, n: list(map(len, enumerate_decompositions_up_to(d, n).values())),
            lambda d, n: decomposition_counts(d, n)[1:])),
        ("necs-enumeration-counts", "enumeration", _agree(
            lambda: ((1, 7),),
            lambda d, n: list(map(len, enumerate_necs_up_to(n).values())),
            lambda d, n: decomposition_counts(d, n)[1:])),
        ("refined-counts-vs-enumeration", "enumeration", _check_refined_oracle),
        ("tree-enumeration-counts", "enumeration", _agree(
            lambda: [(d, n) for d in (1, 2) for n in range(1, 8)],
            lambda d, n: len(enumerate_trees(d, n)),
            lambda d, n: tree_counts(d, n).coefficient(n))),
        ("prime-set-cardinalities", "enumeration", _agree(
            lambda: [(d, n) for d in (1, 2, 3) for n in range(1, 13)],
            lambda d, n: len(enumerate_B(d, n)),
            lambda d, n: abs(mobius_d(d, n + 1)))),
        ("sequence-signed-sums", "enumeration", _agree(
            lambda: [(d, n) for d in (1, 2) for n in range(1, 11)],
            signed_sum, lambda d, n: auxiliary_counts(d, n)[n])),
        ("reduced-counts-line", "enumeration", _agree(
            lambda: [(1, n) for n in range(1, 11)],
            lambda d, n: len(enumerate_A_tilde(d, n)),
            lambda d, n: auxiliary_counts(d, n)[n])),
        ("lcm-count-oracle", "enumeration", _check_lcm_oracle),
    ],
    "bijection": [
        ("covering-map-bijective", "enumeration", _agree(
            lambda: [(n,) for n in range(1, 8)],
            lambda n: Counter(map(phi, enumerate_decompositions(1, n))),
            lambda n: Counter(enumerate_necs(n)))),
        ("covering-map-preserves-gcd-lcm", "enumeration", _agree(
            lambda: [(dec,) for n in range(1, 7) for dec in enumerate_decompositions(1, n)],
            lambda dec: (necs_lcm(phi(dec)), necs_gcd(phi(dec))),
            lambda dec: (lcm_of(dec)[0], gcd_of(dec)[0]))),
        ("tree-map-onto", "enumeration", _agree(
            lambda: [(n,) for n in range(1, 6)],
            lambda n: {psi(tree, 2) for tree in enumerate_trees(2, n)},
            lambda n: enumerate_decompositions(2, n))),
        ("tree-map-collisions", "enumeration", _agree(
            lambda: (("(1 L L L L L L)", "(1 (1 L L L) (1 L L L))", 1),
                     ("(1 (2 L L L) (2 L L L))", "(2 (1 L L) (1 L L) (1 L L))", 2)),
            lambda t, u, d: psi(parse_tree(t), d),
            lambda t, u, d: psi(parse_tree(u), d))),
        ("ratio-injection", "enumeration", _check_ratio_injection),
    ],
    "asymptotics": [
        ("saddle-certification", "saddle", _check_saddle_certification),
        ("growth-bounds", "saddle", _check_growth_bounds_range),
        ("series-ratio-consistency", "saddle", _check_series_ratio_consistency),
        ("truncation-stability", "saddle", _check_truncation_stability),
    ],
}
