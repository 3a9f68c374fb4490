"""Coloured prime multisets, signed sequences, and the sign-reversing involution.

A d-coloured prime set is a multiset of primes, each assigned a colour in
1..d, with equal primes receiving distinct colours; represented canonically
as a tuple of (prime, colour) pairs sorted ascending.  Its weight is
prod(primes) - 1 and its sign is (-1)^(size+1).

B_{d,n}: the sets of weight n (so prod = n+1; the exponent of each prime in
n+1 picks how many distinct colours it uses, impossible past exponent d).
A_{d,n}: sequences of nonempty sets with total weight n.  The signed count
of A_{d,n} equals the auxiliary coefficient a_d(n).

The partner map `involution` acts on every sequence that contains an
even-sized set or an odd-arity repetition run (OAR): it splits the first
even set at its smallest (prime, colour) element, or merges the first OAR
run, flipping the sign either way; `find_oar` is the one test for a run.
For d = 1 this pairs the non-reduced sequences perfectly, so the reduced
count equals a_1(n).  For d >= 2 two distinct sequences can share an image
(see `involution`), so the reduced count can exceed a_d(n) even though the
signed count always equals it.

What does hold for every d: a reduced sequence has only odd sets, so its
sign is +1; sequences the map pairs (s -> t -> s) cancel in the signed sum;
so the reduced count equals a_d(n) minus the signed count of the orphans,
the non-reduced s with involution(involution(s)) != s.  The surplus is not
the number of orphans: for d = 2 the two first differ at n = 10 (112
orphans, surplus 108).

Appending a weight-1 set (with a repair step when `find_oar` says that
would complete an OAR) injects reduced level n into reduced level n+1, so
the reduced counts never decrease.

Every (d, n) entry point takes an int d >= 1 and an int n >= 0 (the argument rule).
Both enumerations build the sets of each weight once per call.
`iter_sequences` yields every sequence of A_{d,n} as a tuple, for the
checks that inspect it; `signed_sum` only needs signs, so it walks the same
sequences on a stack of (weight left, sign so far) and builds no tuple.
"""

from itertools import combinations
from math import prod
from typing import Iterator, List, Tuple

from . import _HOMES, _check_int, _on_first_use
from .number_theory import factorize

__getattr__ = _on_first_use(globals(), {"_oracles": _HOMES["prime_sequences"]})

ColouredPrime = Tuple[int, int]          # (prime, colour)
PrimeSet = Tuple[ColouredPrime, ...]     # sorted by (prime, colour)
PrimeSequence = Tuple[PrimeSet, ...]


def set_weight(s: PrimeSet) -> int:
    return prod(p for p, _ in s) - 1


def set_sign(s: PrimeSet) -> int:
    return 1 if len(s) % 2 == 1 else -1


def sequence_weight(seq: PrimeSequence) -> int:
    return sum(set_weight(s) for s in seq)


def sequence_sign(seq: PrimeSequence) -> int:
    v = 1
    for s in seq:
        v *= set_sign(s)
    return v


def _check_domain(d: int, n: int) -> None:
    _check_int("d", d)
    _check_int("n", n, 0)


def enumerate_B(d: int, n: int) -> List[PrimeSet]:
    """All d-coloured prime sets of weight n >= 1, sorted canonically.

    Empty for n = 0: a set here always has at least one element.
    """
    _check_domain(d, n)
    if n == 0:
        return []
    choices: List[List[PrimeSet]] = []
    for p, m in factorize(n + 1):
        if m > d:
            return []
        choices.append([tuple((p, c) for c in cols) for cols in combinations(range(1, d + 1), m)])
    sets = [()]
    for ch in choices:
        sets = [s + extra for s in sets for extra in ch]
    return sorted(sets)


def iter_sequences(d: int, n: int) -> Iterator[PrimeSequence]:
    """All sequences of nonempty d-coloured prime sets with total weight n.

    Lazy, so a bad (d, n) raises at the first `next()`; distinct by
    construction (first-set weight then recursion).  The sets of each
    weight are built once per call.
    """
    _check_domain(d, n)
    sets = [[]] + [enumerate_B(d, w) for w in range(1, n + 1)]

    def walk(m: int) -> Iterator[PrimeSequence]:
        if m == 0:
            yield ()
        for w in range(1, m + 1):
            if sets[w]:
                for rest in walk(m - w):
                    for s in sets[w]:
                        yield (s,) + rest

    yield from walk(n)


def enumerate_A(d: int, n: int) -> List[PrimeSequence]:
    """The set A_{d,n} as a sorted list."""
    return sorted(iter_sequences(d, n))


def signed_sum(d: int, n: int) -> int:
    """Sum of sequence signs over A_{d,n}; equals the auxiliary count a_d(n).

    Walks every sequence of A_{d,n} on one stack of (weight left, sign so
    far), over the signs of the sets of each weight, built once per call.
    A sequence is one leaf: the step that adds its last set.  Nothing
    groups sequences, so this stays an enumeration, the independent side
    of the check against `auxiliary_counts`.
    """
    _check_domain(d, n)
    if n == 0:
        return 1
    signs = [[set_sign(s) for s in enumerate_B(d, w)] for w in range(n + 1)]
    total = 0
    stack = [n, 1]
    pop, push = stack.pop, stack.append
    while stack:
        sign = pop()
        left = pop()
        for w in range(1, left):
            for s in signs[w]:
                push(left - w)
                push(sign * s)
        for s in signs[left]:
            total += sign * s
    return total
