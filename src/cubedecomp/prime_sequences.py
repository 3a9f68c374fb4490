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

Every (d, n) entry point raises ValueError unless d >= 1 and n >= 0.
Both enumerations build the sets of each weight once per call.
`iter_sequences` yields every sequence of A_{d,n} as a tuple, for the
checks that inspect it; `signed_sum` only needs signs, so it walks the same
sequences on a stack of (weight left, sign so far) and builds no tuple.
"""

from itertools import combinations
from math import prod
from typing import Iterator, List, Optional, Tuple

from .number_theory import factorize

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
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"weight must be >= 0, got {n}")


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


def first_even_set(seq: PrimeSequence) -> Optional[int]:
    """0-based index of the first even-sized set, or None."""
    for i, s in enumerate(seq):
        if len(s) % 2 == 0:
            return i
    return None


def find_oar(seq: PrimeSequence) -> Optional[Tuple[int, int]]:
    """Earliest odd-arity repetition run: (start, ell), 0-based start, or None.

    A run starting at j needs A_j = {ell} a singleton prime, followed by
    exactly ell copies of one odd-sized set whose elements all exceed A_j's
    (prime, colour) as tuples.  Sets are sorted (see `PrimeSet`), so that
    set's first element decides.
    """
    for j, s in enumerate(seq):
        if len(s) == 1:
            ell = s[0][0]
            run = seq[j + 1:j + ell + 1]
            if (len(run) == ell and len(run[0]) % 2 and run[0][0] > s[0]
                    and run.count(run[0]) == ell):
                return (j, ell)
    return None


def involution(seq: PrimeSequence) -> PrimeSequence:
    """Weight-preserving, sign-reversing partner map on sequences that
    contain an even set or an OAR run.

    Whichever comes first wins:
      * even set at i: remove its smallest (prime, colour) element p0 and
        replace the set by ({p0}, then p0 copies of the remainder);
      * OAR run at j with singleton value p0: replace the run's first two
        sets by their union and drop the remaining p0 - 1 copies.

    A true involution for d = 1.  For d >= 2 it is not: splitting an even
    set can create overlapping OAR runs, letting two distinct sequences
    map to the same image.  Smallest case d = 3, n = 5, where
    ({2_1}, {2_2}, {2_2 2_3}) and ({2_1 2_2}, {2_3}, {2_3}) both map to
    ({2_1}, {2_2}, {2_2}, {2_3}, {2_3}), whose partner is only the latter.
    """
    i = first_even_set(seq)
    oar = find_oar(seq[:i])  # a run holds no even set, so it ends before seq[i]
    if oar is not None:
        j, ell = oar
        return seq[:j] + (tuple(sorted(seq[j] + seq[j + 1])),) + seq[j + ell + 1:]
    if i is None:
        raise ValueError("sequence has no even set and no repetition run")
    p0, remainder = seq[i][0], seq[i][1:]
    return seq[:i] + ((p0,),) + (remainder,) * p0[0] + seq[i + 1:]


def is_reduced(seq: PrimeSequence) -> bool:
    """No even set and no OAR run: the sequences counted by a_d(n)."""
    return first_even_set(seq) is None and find_oar(seq) is None


def enumerate_A_tilde(d: int, n: int) -> List[PrimeSequence]:
    """The reduced sequences of weight n, sorted.

    For d = 1 the count equals a_1(n); for d >= 2 it can exceed a_d(n)
    because the partner map orphans some non-reduced sequences (first at
    d = 2, n = 7: 768 reduced vs a_2(7) = 766).  Every reduced sequence has
    sign +1, and the surplus over a_d(n) is minus the signed count of the
    orphans (at d = 2, n = 7: two orphans of sign -1).  It is not the orphan
    count, which first differs at d = 2, n = 10 (112 orphans, surplus 108).
    """
    return sorted(seq for seq in iter_sequences(d, n) if is_reduced(seq))


def ratio_injection(seq: PrimeSequence, colour: int) -> PrimeSequence:
    """Inject a reduced weight-n sequence into the reduced weight-(n+1) set.

    Appends {2_colour}, unless that completes an OAR run; then the two
    copies of {2_colour} collapse into {3_colour} instead.  Only the tail
    {2_c'}, {2_colour} with c' < colour can be completed (a longer run needs
    elements above 2), so `find_oar` on those two sets and the new one decides.
    """
    new = ((2, colour),)
    if find_oar(seq[-2:] + (new,)) is not None:
        return seq[:-1] + (((3, colour),),)
    return seq + (new,)


def sequence_to_json(seq: PrimeSequence) -> list:
    """Lists of lists of {"p": prime, "colour": colour}."""
    return [[{"p": p, "colour": c} for p, c in s] for s in seq]


def sequence_from_json(data: list) -> PrimeSequence:
    """Inverse of sequence_to_json; raises ValueError on a malformed shape, a
    missing field, a p or colour that is not a JSON integer, and on a set that
    is not a coloured prime set: an empty set, a p that is not prime, a colour
    below 1 or a repeated (p, colour).  Each p is checked by `factorize`, so a
    huge p costs what factorize(p) costs."""
    try:
        sets = [[(e["p"], e["colour"]) for e in s] for s in data]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed prime sequence JSON: {exc!r}") from None
    bad = [x for s in sets for pair in s for x in pair if type(x) is not int]  # a bool, or 2.9
    if bad:
        raise ValueError(f"a prime sequence needs integer p and colour, got {bad[0]!r}")
    seq = tuple(tuple(sorted(s)) for s in sets)
    for s in seq:
        if not s:
            raise ValueError("a prime sequence has no empty set")
        for i, (p, c) in enumerate(s):
            if p < 2 or factorize(p) != ((p, 1),):
                raise ValueError(f"p = {p} is not a prime")
            if c < 1:
                raise ValueError(f"colour {c} of p = {p} is below 1")
            if i and s[i - 1] == (p, c):
                raise ValueError(f"the set {s} repeats ({p}, {c})")
    return seq
