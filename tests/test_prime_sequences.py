"""Coloured prime sets and sequences, the partner map, and the signed counts."""

import re
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubedecomp.number_theory import mobius_d
from cubedecomp.prime_sequences import (
    enumerate_A,
    enumerate_A_tilde,
    enumerate_B,
    find_oar,
    first_even_set,
    involution,
    is_reduced,
    iter_sequences,
    ratio_injection,
    sequence_from_json,
    sequence_sign,
    sequence_to_json,
    sequence_weight,
    set_sign,
    set_weight,
    signed_sum,
)
from cubedecomp.series import auxiliary_counts


def cs(*pairs):
    """A coloured prime set from (prime, colour) pairs."""
    return tuple(sorted(pairs))


def seq1(*sets):
    """A 1-coloured sequence from bare prime tuples."""
    return tuple(tuple((p, 1) for p in s) for s in sets)


def test_set_weight_and_sign():
    s = cs((2, 1), (3, 2), (3, 1))
    assert set_weight(s) == 17
    assert set_sign(s) == 1
    assert set_sign(cs((2, 1), (5, 1))) == -1
    assert sequence_weight((s, cs((2, 1)))) == 18
    assert sequence_sign((s, cs((2, 1)), cs((3, 1), (3, 2)))) == -1


def test_enumerate_B_small_cases():
    assert enumerate_B(1, 1) == [cs((2, 1))]
    assert enumerate_B(2, 1) == [cs((2, 1)), cs((2, 2))]
    # weight 3 needs 4 = 2^2: two distinct colours on the prime 2
    assert enumerate_B(1, 3) == []
    assert enumerate_B(2, 3) == [cs((2, 1), (2, 2))]
    # weight 5 gives 6 = 2*3: independent colour choices
    assert enumerate_B(2, 5) == [
        cs((2, 1), (3, 1)), cs((2, 1), (3, 2)), cs((2, 2), (3, 1)), cs((2, 2), (3, 2)),
    ]
    # weight 26 needs 27 = 3^3: impossible with two colours
    assert enumerate_B(2, 26) == []
    assert enumerate_B(3, 26) == [cs((3, 1), (3, 2), (3, 3))]
    assert enumerate_B(3, 0) == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_B_counts_match_mobius_magnitude_and_sign(d):
    for n in range(1, 61):
        sets = enumerate_B(d, n)
        mu = mobius_d(d, n + 1)
        assert len(sets) == abs(mu), (d, n)
        assert sum(set_sign(s) for s in sets) == -mu, (d, n)


def test_sequences_partition_by_first_set_weight():
    seqs = enumerate_A(2, 4)
    assert len(seqs) == len(set(seqs))
    assert all(sequence_weight(s) == 4 for s in seqs)
    assert list(iter_sequences(2, 0)) == [()]


def recursive_sequences(d, n):
    """Reference enumeration: the plain recursion on the first set's weight.

    It calls enumerate_B at every level.  The oracle for the order of
    iter_sequences: first-set weight, then the rest in this same order, then
    the first set.
    """
    if n == 0:
        yield ()
        return
    for w in range(1, n + 1):
        first_sets = enumerate_B(d, w)
        if not first_sets:
            continue
        for rest in recursive_sequences(d, n - w):
            for s in first_sets:
                yield (s,) + rest


@pytest.mark.parametrize("d", [1, 2, 3])
def test_iter_sequences_keeps_the_recursive_order(d):
    for n in range(11):
        for k, (new, old) in enumerate(zip_longest(iter_sequences(d, n), recursive_sequences(d, n))):
            assert new == old, (d, n, k)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_signed_sum_is_the_sum_of_signs_over_the_recursive_enumeration(d):
    for n in range(11):
        assert signed_sum(d, n) == sum(map(sequence_sign, recursive_sequences(d, n))), (d, n)


@pytest.mark.parametrize("d", [1, 2])
def test_signed_sum_matches_auxiliary_counts(d):
    a = auxiliary_counts(d, 10)
    assert [signed_sum(d, n) for n in range(11)] == a


DOMAIN_WALKS = [signed_sum, enumerate_B, iter_sequences, enumerate_A, enumerate_A_tilde]


def call(walk, d, n):
    """Call walk, draining iter_sequences: a generator checks (d, n) at its first next()."""
    result = walk(d, n)
    return list(result) if walk is iter_sequences else result


@pytest.mark.parametrize("walk", DOMAIN_WALKS)
def test_negative_weight_raises_value_error(walk):
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        call(walk, 1, -1)


@pytest.mark.parametrize("walk", DOMAIN_WALKS)
@pytest.mark.parametrize("d", [0, -5])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_colour_count_below_one_raises_value_error(walk, d, n):
    # d is checked before n, so a bad d names d even when n is bad too
    with pytest.raises(ValueError, match=f"^d must be >= 1, got {d}$"):
        call(walk, d, n)


def test_find_oar_examples():
    # run opens at the third set: {2} followed by exactly two equal odd sets
    s = seq1((3,), (2,), (2,), (3, 5, 11), (3, 5, 11), (2, 3))
    assert find_oar(s) == (2, 2)
    assert find_oar((cs((2, 1)), cs((2, 2)), cs((2, 2)))) == (0, 2)
    # too short: the singleton 2 would need two following copies
    assert find_oar((cs((2, 1)), cs((2, 2)))) is None
    # colour at or below the opener's blocks the run
    assert find_oar((cs((2, 2)), cs((2, 1)), cs((2, 1)))) is None
    assert find_oar(seq1((3,), (5,), (5,), (5,))) == (0, 3)
    assert first_even_set(seq1((2,), (3, 5))) == 1


def test_involution_examples():
    before = seq1((2,), (3, 11), (5, 7))
    after = seq1((2,), (3,), (11,), (11,), (11,), (5, 7))
    assert involution(before) == after
    assert involution(after) == before
    assert involution(seq1((2, 3))) == seq1((2,), (3,), (3,))
    assert involution(seq1((2,), (3,), (3,), (3,))) == seq1((2, 3), (3,))
    with pytest.raises(ValueError):
        involution(seq1((2,), (3,)))


@pytest.mark.parametrize("d,max_n", [(1, 9), (2, 8)])
def test_partner_map_preserves_weight_and_flips_sign(d, max_n):
    for n in range(1, max_n + 1):
        for s in iter_sequences(d, n):
            if is_reduced(s):
                continue
            t = involution(s)
            assert sequence_weight(t) == n
            assert sequence_sign(t) == -sequence_sign(s)
            assert not is_reduced(t)


def test_partner_map_is_involution_for_one_colour():
    for n in range(1, 10):
        for s in iter_sequences(1, n):
            if not is_reduced(s):
                assert involution(involution(s)) == s


def test_even_split_and_run_merge_never_tie():
    # when both moves are available the even set strictly precedes the run
    for d, max_n in ((1, 9), (2, 8)):
        for n in range(1, max_n + 1):
            for s in iter_sequences(d, n):
                i1 = first_even_set(s)
                oar = find_oar(s)
                if i1 is not None and oar is not None:
                    assert i1 != oar[0]


def test_reduced_enumeration_examples():
    assert enumerate_A_tilde(1, 2) == [seq1((2,), (2,)), seq1((3,))]
    assert all(is_reduced(s) for s in enumerate_A_tilde(2, 5))


def test_reduced_counts_match_signed_counts_for_one_colour():
    a = auxiliary_counts(1, 10)
    assert [len(enumerate_A_tilde(1, n)) for n in range(11)] == a


def test_reduced_counts_exceed_signed_counts_for_two_colours():
    # The partner map is not injective from d = 2 onward: splitting an even
    # set can overlap two runs, so some non-reduced sequences are orphaned
    # and the reduced count drifts above the signed count.  Frozen values
    # from the exhaustive enumeration.
    a = auxiliary_counts(2, 10)
    counts = [len(enumerate_A_tilde(2, n)) for n in range(11)]
    assert counts[:7] == a[:7]
    assert counts[7:] == [768, 2049, 5427, 14436]
    assert [c - x for c, x in zip(counts[7:], a[7:])] == [2, 8, 32, 108]


def test_smallest_orphaned_sequence():
    # Three colours, weight 5: splitting the even set of A lands on P, whose
    # own partner move is the run merge producing B, never A again.
    A = (cs((2, 1)), cs((2, 2)), cs((2, 2), (2, 3)))
    B = (cs((2, 1), (2, 2)), cs((2, 3)), cs((2, 3)))
    P = (cs((2, 1)), cs((2, 2)), cs((2, 2)), cs((2, 3)), cs((2, 3)))
    assert involution(A) == P
    assert involution(B) == P
    assert involution(P) == B
    assert involution(involution(A)) != A


def test_orphan_count_matches_reduced_surplus_at_first_failure():
    bad = [
        s
        for s in iter_sequences(2, 7)
        if not is_reduced(s) and involution(involution(s)) != s
    ]
    surplus = len(enumerate_A_tilde(2, 7)) - auxiliary_counts(2, 7)[7]
    assert len(bad) == surplus == 2


# Frozen reference forms of find_oar, involution and ratio_injection,
# written out rule by rule: every element of the repeated set is compared,
# involution compares the positions of both moves, and ratio_injection spells
# out its own repair test.  The partner maps must agree with them.
def oracle_find_oar(seq):
    k = len(seq)
    for j in range(k):
        s = seq[j]
        if len(s) != 1:
            continue
        ell, c0 = s[0]
        if j + ell >= k:
            continue
        nxt = seq[j + 1]
        if len(nxt) % 2 == 0:
            continue
        if any(seq[j + t] != nxt for t in range(2, ell + 1)):
            continue
        if all(p > ell or (p == ell and c > c0) for p, c in nxt):
            return (j, ell)
    return None


def oracle_involution(seq):
    i1 = first_even_set(seq)
    oar = oracle_find_oar(seq)
    i2 = oar[0] if oar is not None else None
    if i1 is None and i2 is None:
        raise ValueError("sequence has no even set and no repetition run")
    if i2 is None or (i1 is not None and i1 < i2):
        s = seq[i1]
        p0 = min(s)
        remainder = tuple(x for x in s if x != p0)
        block = ((p0,),) + (remainder,) * p0[0]
        return seq[:i1] + block + seq[i1 + 1:]
    j, ell = oar
    merged = tuple(sorted(seq[j] + seq[j + 1]))
    return seq[:j] + (merged,) + seq[j + ell + 1:]


def oracle_ratio_injection(seq, colour):
    new = ((2, colour),)
    if (
        len(seq) >= 2
        and seq[-1] == new
        and len(seq[-2]) == 1
        and seq[-2][0][0] == 2
        and seq[-2][0][1] < colour
    ):
        return seq[:-1] + (((3, colour),),)
    return seq + (new,)


def outcome(f, *args):
    """f's result, or ValueError when f raises it."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


def assert_partner_maps_match_oracles(seq, colours):
    assert find_oar(seq) == oracle_find_oar(seq), seq
    assert outcome(involution, seq) == outcome(oracle_involution, seq), seq
    for colour in colours:
        assert ratio_injection(seq, colour) == oracle_ratio_injection(seq, colour), (seq, colour)


@pytest.mark.parametrize("d,max_n", [(1, 10), (2, 10), (3, 8)])
def test_partner_maps_match_the_frozen_oracles(d, max_n):
    colours = range(1, d + 1)
    for n in range(max_n + 1):
        for seq in iter_sequences(d, n):
            assert_partner_maps_match_oracles(seq, colours)


# Sequences off B: sorted sets with repeated primes in distinct colours,
# composite and large singleton "primes", and would-be runs one copy short or
# long with even sets before, inside or after them.
PSEUDO_PRIMES = st.sampled_from([2, 3, 4, 5, 7, 9, 97])
SETS = st.frozensets(st.tuples(PSEUDO_PRIMES, st.integers(1, 3)), min_size=1, max_size=4).map(
    lambda s: tuple(sorted(s))
)


@st.composite
def near_runs(draw):
    ell = draw(st.sampled_from([2, 3, 4, 5]))
    seq = [((ell, draw(st.integers(1, 3))),)] + [draw(SETS)] * (ell + draw(st.integers(-1, 1)))
    for _ in range(draw(st.integers(0, 2))):
        even = draw(SETS.filter(lambda s: len(s) % 2 == 0))
        seq.insert(draw(st.integers(0, len(seq))), even)
    return tuple(draw(st.lists(SETS, max_size=3)) + seq + draw(st.lists(SETS, max_size=3)))


@settings(max_examples=200)
@given(st.one_of(st.lists(SETS, max_size=8).map(tuple), near_runs()))
# the repeated set's smallest element sits below the opener, its largest above
@example((((3, 1),), ((2, 1), (5, 1), (7, 1)), ((2, 1), (5, 1), (7, 1)), ((2, 1), (5, 1), (7, 1))))
# the tail a repair would collapse, then the same tail with the colours swapped
@example((((2, 1),), ((2, 2),)))
@example((((2, 2),), ((2, 1),)))
def test_partner_maps_match_the_frozen_oracles_off_B(seq):
    assert_partner_maps_match_oracles(seq, (1, 2, 3))


def test_ratio_injection_examples():
    assert ratio_injection((), 1) == (cs((2, 1)),)
    assert ratio_injection((cs((2, 1)),), 2) == (cs((2, 1)), cs((2, 2)))
    # appending would complete a run; the tail collapses to {3} instead
    assert ratio_injection((cs((2, 1)), cs((2, 2))), 2) == (cs((2, 1)), cs((3, 2)))


@pytest.mark.parametrize("d,max_n", [(1, 8), (2, 7)])
def test_ratio_injection_is_injective_into_reduced(d, max_n):
    for n in range(max_n + 1):
        source = enumerate_A_tilde(d, n)
        target = set(enumerate_A_tilde(d, n + 1))
        for colour in range(1, d + 1):
            images = [ratio_injection(s, colour) for s in source]
            assert len(set(images)) == len(images)
            for img in images:
                assert img in target


def test_json_round_trip():
    s = (cs((2, 2)), cs((3, 1), (11, 2)))
    data = sequence_to_json(s)
    assert data == [
        [{"p": 2, "colour": 2}],
        [{"p": 3, "colour": 1}, {"p": 11, "colour": 2}],
    ]
    assert sequence_from_json(data) == s


try:  # indexing a str by a str: the interpreter's text, which Python 3.11 extended
    "p".__getitem__("p")
except TypeError as exc:
    STR_INDEX = re.escape(str(exc))


@pytest.mark.parametrize("data,message", [
    ([[{"p": 2.9, "colour": True}]], "p must be an integer, got 2\\.9"),
    ([[{"p": 2, "colour": True}]], "colour must be an integer, got True"),
    ([[{"p": "2", "colour": 1}]], "p must be an integer, got '2'"),
    ([[{"p": 2}]], "malformed prime sequence JSON: missing field 'colour'"),
    ([[[2, 1]]], "malformed prime sequence JSON: list indices must be integers or slices, not str"),
    ([{"p": 2, "colour": 1}], f"malformed prime sequence JSON: {STR_INDEX}"),
    (5, "malformed prime sequence JSON: 'int' object is not iterable"),
    (None, "malformed prime sequence JSON: 'NoneType' object is not iterable"),
    ([[]], "^a prime sequence has no empty set$"),
    ([[{"p": 4, "colour": 1}]], "^p = 4 is not a prime$"),
    ([[{"p": 3, "colour": 1}], [{"p": -3, "colour": 1}]], "^p = -3 is not a prime$"),
    ([[{"p": 2, "colour": -7}]], "^colour must be >= 1, got -7$"),
    ([[{"p": 2, "colour": 1}, {"p": 2, "colour": 1}]],  # involution would make three {2_1}
     "^the set \\(\\(2, 1\\), \\(2, 1\\)\\) repeats \\(2, 1\\)$"),
])
def test_sequence_from_json_rejects_bad_input(data, message):
    with pytest.raises(ValueError) as refused:
        sequence_from_json(data)
    assert re.fullmatch(message, str(refused.value))  # the whole text, anchored or not
