"""Coloured prime sets and sequences, the partner map, and the signed counts."""

from itertools import zip_longest

import pytest

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


@pytest.mark.parametrize("walk", [signed_sum, enumerate_B])
def test_negative_weight_raises_value_error(walk):
    with pytest.raises(ValueError, match="weight must be >= 0, got -1"):
        walk(1, -1)


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
