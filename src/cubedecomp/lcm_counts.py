"""Counting decompositions by the grid they refine and by their exact lcm.

For a vector r = (r_1..r_d), d >= 1, of ints r_i >= 1 (the argument rule), g(r)
counts the decompositions of the d-cube refined by the grid D_r, and h(r) counts
those whose lcm is exactly r.  Both satisfy inclusion-exclusion recursions over the
divisor lattice:

    g(r) = 1 - sum_{q_i | r_i, prod q_i != 1} (prod mu(q_i)) g(r/q)^(prod q_i)
    h(r) = sum_{q_i | r_i} (prod mu(q_i)) g(r/q)

with g(1,..,1) = h(1,..,1) = 1 (componentwise division r/q).  The g recursion
comes from peeling one splitting round off every decomposition refined by the
grid; the tower of exponents prod q_i makes values explode quickly, hence big
integers throughout.  Both functions are symmetric in the coordinates and
collapse on coprime entries: g(r_1..r_d) = g(prod r_i) when the r_i are
pairwise coprime (and likewise h), so the d = 1 columns determine the rest.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from . import _check_int
from .number_theory import factorize

LcmKey = Tuple[int, ...]


def _check_key(r: LcmKey) -> None:
    if not r or not all(type(ri) is int and ri >= 1 for ri in r):
        _check_int("d", len(r))
        for ri in r:
            _check_int("r entries", ri)


def _signed_divisor_vectors(r: LcmKey) -> Tuple[Tuple[LcmKey, int, int], ...]:
    """All (q, prod(q), prod mu(q_i)) with q_i | r_i and every mu(q_i) != 0.

    Only squarefree q_i have mu(q_i) != 0, so each coordinate runs over the
    products of distinct primes of r_i, with sign (-1)^(number of primes).
    """
    vecs: Tuple[Tuple[LcmKey, int, int], ...] = (((), 1, 1),)
    for ri in r:
        squarefree = [(1, 1)]
        for p, _ in factorize(ri):
            squarefree += [(qi * p, -mu) for qi, mu in squarefree]
        vecs = tuple((q + (qi,), prod * qi, sign * mu)
                     for q, prod, sign in vecs for qi, mu in squarefree)
    return vecs


def g_count(r: LcmKey) -> int:
    """Number of decompositions refined by the grid with arity vector r."""
    _check_key(r)
    return _g_sorted(tuple(sorted(r)))


# The bound is at least the CLI's LCM_PRODUCT_CAP, so a table
# `lcm-count g --n 1..10000` never evicts a value it still needs.
@lru_cache(maxsize=1 << 14)
def _g_sorted(r: LcmKey) -> int:
    """g of a sorted vector; g_count sorts, since g is symmetric in the coordinates."""
    total = 0
    for q, prod, sign in _signed_divisor_vectors(r):
        if prod != 1:
            inner = _g_sorted(tuple(sorted(ri // qi for ri, qi in zip(r, q))))
            total += sign * inner ** prod
    return 1 - total


def h_count(r: LcmKey) -> int:
    """Number of decompositions whose lcm is exactly r."""
    _check_key(r)
    r = tuple(r)
    return sum(sign * g_count(tuple(ri // qi for ri, qi in zip(r, q)))
               for q, _, sign in _signed_divisor_vectors(r))
