"""Truncated integer series, series reversion, and the counting tables."""

import math
from operator import sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubedecomp import series
from cubedecomp.number_theory import mobius_d_values
from cubedecomp.series import (
    TruncatedSeries,
    _mul_school,
    _revert_by_extraction,
    auxiliary_counts,
    decomposition_counts,
    decomposition_series,
    mobius_series,
    refined_counts,
    series_from_list,
)

# Hand-checked reference rows (also used by the CLI self-check suite).
S_ROWS = {
    1: [1, 1, 3, 10, 39, 160, 691, 3081, 14095, 65757],
    2: [1, 2, 10, 59, 394, 2810, 20998, 162216, 1285185, 10384986],
    3: [1, 3, 21, 177, 1677, 17001, 180525, 1981909, 22314339, 256245783],
}
A_ROWS = {
    1: [1, 1, 2, 3, 6, 9, 17, 28, 50, 83, 147],
    2: [1, 2, 6, 15, 42, 108, 291, 766, 2041, 5395, 14328],
    3: [1, 3, 12, 42, 156, 558, 2028, 7318, 26490, 95730, 346218],
}

short_series = st.builds(
    series_from_list,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=25),
)


def cut(s, n):
    """s truncated at x^n."""
    return series_from_list(s.coeffs[:n + 1])


@given(short_series, short_series)
def test_ring_ops_are_componentwise_consistent(a, b):
    assert a * b == b * a


@given(short_series, short_series, short_series)
def test_multiplication_distributes(a, b, c):
    n = min(a.order, b.order, c.order)
    b_plus_c = series_from_list([u + v for u, v in zip(b.coeffs, c.coeffs)])
    rhs = [u + v for u, v in zip((a * b).coeffs, (a * c).coeffs)]
    assert list((a * b_plus_c).coeffs) == rhs[:n + 1]


# Coefficients of 0 to 3000 bits, sizes mixed within one operand.
wide_bits = st.integers(min_value=0, max_value=3000)
wide_signed = wide_bits.flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))
wide_nonnegative = wide_bits.flatmap(lambda bits: st.integers(0, 1 << bits))


@st.composite
def weighted_operands(draw):
    """(weight, powers, order): a signed weight and powers >= 0, all of order + 1 terms."""
    order = draw(st.integers(min_value=0, max_value=30))
    slots = st.lists(wide_signed, min_size=order + 1, max_size=order + 1)
    weight = draw(st.one_of(
        slots,
        st.just([0] * (order + 1)),
        # one term, weight_0 = 0 when it is not the first: refined_counts at max_n < 2P
        st.tuples(st.integers(min_value=0, max_value=order), wide_signed).map(
            lambda t: [0] * t[0] + [t[1]] + [0] * (order - t[0]))))
    power = st.one_of(
        st.lists(wide_nonnegative, min_size=order + 1, max_size=order + 1),
        st.just([0] * (order + 1)),
        st.lists(wide_nonnegative, min_size=order, max_size=order).map(lambda t: [1] + t))
    return weight, draw(st.lists(power, min_size=1, max_size=4)), order


@given(weighted_operands())
def test_weighted_product_matches_the_schoolbook_product(operands):
    weight, powers, order = operands
    assert series._weigh(weight, powers, order) == [_mul_school(weight, p, order) for p in powers]


# weights of each shape for one top value t: all terms at the bound, signed
# (lifted by an offset, or to zero), and one term past z^0, where the bound D
# falls below the power's own top coefficient
WEIGHT_SHAPES = {
    "full": lambda t, order: [[t] * (order + 1)],
    "signed": lambda t, order: [[(-1) ** i * t for i in range(order + 1)], [-t] * (order + 1)],
    "one-term": lambda t, order: [[0] * order + [t], [0] * order + [-t], [0] * order + [1]],
}


@pytest.mark.parametrize("shape", WEIGHT_SHAPES)
def test_weighted_product_at_the_slot_bound(shape):
    # Equal coefficients 2^k - 1 bring the lifted product closest to its bound D;
    # the bit sizes cover every residue of the width mod 8, so a slot one bit
    # narrower than the bound overflows in some case here.
    for bits in range(1, 41):
        for length in range(1, 10):
            order = length - 1
            power = [1] + [(1 << (bits + length % 3)) - 1] * order
            for weight in WEIGHT_SHAPES[shape]((1 << bits) - 1, order):
                expected = _mul_school(weight, power, order)
                assert series._weigh(weight, [power], order) == [expected], (bits, length)


def test_extraction_oracle_does_not_use_the_fast_product(monkeypatch):
    # the extraction route and TruncatedSeries.compose check the packed path
    expected = decomposition_counts(2, 12)
    inverse = decomposition_series(2, 12)

    def refuse(*args):
        raise AssertionError("an oracle packed a product")

    monkeypatch.setattr(series, "_pack", refuse)
    assert _revert_by_extraction(2, 12) == expected
    assert mobius_series(2, 12).compose(inverse).coeffs == (0, 1) + (0,) * 11


def test_coefficient_bounds_checked():
    s = series_from_list([1, 2, 3])
    assert s.coefficient(2) == 3
    with pytest.raises(IndexError):
        s.coefficient(3)


def test_compose_identity_and_valuation_guard():
    x = series_from_list([0, 1, 0, 0, 0, 0])
    s = series_from_list([3, -1, 4, 1, -5, 9])
    assert s.compose(x) == s
    with pytest.raises(ValueError):
        s.compose(series_from_list([1, 1]))


@given(short_series, short_series)
def test_compose_is_multiplicative(a, b):
    # (a*b) o inner == (a o inner) * (b o inner)
    inner = series_from_list([0, 1, -1, 2])
    n = min(a.order, b.order, inner.order)
    lhs = (a * b).compose(cut(inner, n))
    rhs = cut(a, n).compose(cut(inner, n)) * cut(b, n).compose(cut(inner, n))
    assert lhs == rhs


def test_mobius_series_leading_terms():
    m = mobius_series(2, 8)
    assert m.coeffs == (0, 1, -2, -2, 1, -2, 4, -2, 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_decomposition_count_tables(d):
    assert decomposition_counts(d, 10)[1:] == S_ROWS[d]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_auxiliary_count_tables(d):
    assert auxiliary_counts(d, 10) == A_ROWS[d]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_reversion_round_trip(d):
    order = 40
    composed = mobius_series(d, order).compose(decomposition_series(d, order))
    assert composed.coeffs == (0, 1) + (0,) * (order - 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reversion_against_extraction_route(d):
    # Every max_n up to 45: each block size B = isqrt(max_n - 1) + 1 from 1 to 7
    # and each count of giant powers, none (max_n < 2B) included.
    for max_n in range(1, 46):
        assert _revert_by_extraction(d, max_n) == decomposition_counts(d, max_n)


@pytest.mark.parametrize("phi", [[1, 2, -1, 3], [1, -1], [2, 1, 1, 1], [0, 1, 1], [-1, 3]])
def test_lagrange_refuses_a_phi_its_chains_cannot_pack(phi):
    # The chains pack without a sign bias and bound their widths through
    # phi_0 = 1 and phi >= 0; anything else raises, with no other route.
    with pytest.raises(ArithmeticError):
        series._lagrange(phi, len(phi))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("max_n", [2, 3, 10, 40, 140, 300])
def test_every_chain_power_fits_its_slot_width(monkeypatch, d, max_n):
    chains = []
    real_chain = series._power_chain

    def record(fixed, links, order):
        powers = list(real_chain(fixed, links, order))
        chains.append((fixed, powers))
        return iter(powers)

    monkeypatch.setattr(series, "_power_chain", record)
    decomposition_counts(d, max_n)
    order = max_n - 1
    step = math.isqrt(order) + 1
    phi = auxiliary_counts(d, order)
    (baby_fixed, baby), (giant_fixed, giant) = chains
    assert baby_fixed == phi and len(baby) == step - 1
    assert giant_fixed == baby[-1][0] and len(giant) == max_n // step - 1
    # Both chains, the baby phi^2..phi^B and the giant phi^(2B), phi^(3B), ...,
    # take each link's width from its own bound; phi is nondecreasing, so that
    # bound is the top coefficient and the width is the fewest bytes that hold
    # the largest coefficient.
    for fixed, powers in chains:
        power = fixed
        for got, nb in powers:
            power = _mul_school(power, fixed, order)
            assert got == power
            assert nb == (max(power).bit_length() + 7) // 8


@given(st.lists(st.integers(min_value=0, max_value=2 ** 40), min_size=1, max_size=20)
       .map(lambda tail: [1] + [c if c % 3 else 0 for c in tail])
       .filter(lambda f: any(a > b for a, b in zip(f, f[1:]))),
       st.integers(min_value=0, max_value=8))
def test_power_chain_matches_schoolbook_powers_of_any_nonnegative_operand(fixed, links):
    # Zeros and descents make the link bound D exceed the top coefficient,
    # so the width is no longer that coefficient's: each power must still fit.
    order = len(fixed) - 1
    power = fixed
    for got, nb in series._power_chain(fixed, links, order):
        power = _mul_school(power, fixed, order)
        assert got == power
        assert max(power) < 1 << 8 * nb


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_auxiliary_counts_invert_mobius_series(d):
    # (M_d(z)/z) * (z/M_d(z)) = 1 through z^N
    for order in (0, 1, 2, 3, 60, 300):
        m_over_z = mobius_d_values(d, order + 1)[1:]
        assert _mul_school(m_over_z, auxiliary_counts(d, order), order) == [1] + [0] * order


def _auxiliary_counts_by_value(d, max_n):
    # frozen copy of the recurrence grouped by every nonzero value of mu_d, with no
    # most-frequent value subtracted: an oracle for auxiliary_counts
    mu = mobius_d_values(d, max_n + 1)
    a = [1] + [0] * max_n
    groups = {}
    for n in range(1, max_n + 1):
        if mu[n + 1]:
            groups.setdefault(mu[n + 1], []).append(n - 1)
        get = a[n - 1::-1].__getitem__
        a[n] = -sum([v * sum(map(get, ks)) for v, ks in groups.items()])
    return a


@pytest.mark.parametrize("d", range(1, 9))
def test_auxiliary_counts_match_the_recurrence_grouped_by_value(d):
    # the mode c of mu_d(2..max_n+1) moves with max_n: for d = 3 it is 0, then -3,
    # then swaps with 9 from max_n = 35 on; for d = 2 it swaps between -2 and 4
    # from max_n = 216 on; for d = 1 it swaps between -1 and 0 from max_n = 24 on
    for max_n in (*range(0, 80), *range(210, 260), 400):
        assert auxiliary_counts(d, max_n) == _auxiliary_counts_by_value(d, max_n), max_n


def test_auxiliary_counts_are_positive_and_nondecreasing():
    for d in (1, 2, 3, 4):
        a = auxiliary_counts(d, 60)
        assert all(v > 0 for v in a)
        assert all(a[n + 1] >= a[n] for n in range(60))


def test_auxiliary_counts_are_binomial_sums_of_nonnegative_terms():
    # a_d(n) is a polynomial in d of degree <= n, so a_d(n) = sum_k C(d, k) f_k(n)
    # with f_k(n) = sum_j (-1)^(k-j) C(k, j) a_j(n), the k-th forward difference
    # at j = 0 (a_0(n) = [n = 0]).  f_k(n) >= 0 for k <= n then gives phi >= 0,
    # the precondition of the packed chains, for every d through z^top.
    top = 200
    rows = [[1] + [0] * top] + [auxiliary_counts(j, top) for j in range(1, top + 2)]
    a_1 = rows[1]
    for k in range(top + 2):
        f = rows[0]  # f_k(0..top)
        assert all(v == 0 for v in f[:k]) and all(v >= 0 for v in f[k:]), k
        if k <= top:
            assert f[k] == math.factorial(k)
        if k == 1:
            assert f[1:] == a_1[1:]
        rows = [list(map(sub, b, a)) for a, b in zip(rows, rows[1:])]


def test_counts_grow_with_dimension():
    for n in range(2, 30):
        s1, s2, s3 = (decomposition_counts(d, 30)[n] for d in (1, 2, 3))
        assert s1 < s2 < s3


def test_refined_counts_low_dimensional_cases():
    # d = 1, n = 3: three decompositions, one with gcd 3, two with gcd 2
    row2 = refined_counts(1, (2,), 6)
    row3 = refined_counts(1, (3,), 6)
    assert row2[2] == 1 and row2[3] == 2
    assert row3[3] == 1
    # exact-gcd classes partition the n-region decompositions
    s = decomposition_counts(1, 6)
    for n in range(1, 7):
        total = sum(refined_counts(1, (r,), 6)[n] for r in range(1, n + 1))
        assert total == s[n]


def test_refined_counts_partition_in_dimension_two():
    s = decomposition_counts(2, 4)
    for n in range(1, 5):
        total = sum(
            refined_counts(2, (r1, r2), 4)[n]
            for r1 in range(1, n + 1)
            for r2 in range(1, n + 1)
        )
        assert total == s[n]


# P = prod(r) = 1 with max_n at the edges of the giant steps (B = isqrt(max_n - 1) + 1),
# then larger products, up to P = max_n, where only the weight's first term is left.
@pytest.mark.parametrize("d, r, max_n", [
    (1, (1,), 1), (1, (1,), 3), (1, (1,), 4), (1, (1,), 8), (1, (1,), 9), (1, (1,), 10),
    (2, (1, 1), 30), (1, (3,), 30), (2, (2, 1), 25), (2, (3, 2), 40), (3, (2, 1, 1), 25),
    (2, (2, 2), 40), (1, (7,), 40), (1, (9,), 40), (2, (4, 4), 48),
    (2, (5, 5), 25), (1, (26,), 26),
] + [
    # both sides of the block edges: B grows after max_n = k^2 + 1, and the
    # giant chain gains a link at each multiple of B
    (d, r, max_n)
    for d, r in ((1, (1,)), (1, (2,)), (2, (1, 1)), (2, (2, 1)), (3, (1, 1, 2)))
    for max_n in (2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 15, 16, 17, 18, 20, 24, 25, 26, 27, 30)
])
def test_refined_counts_match_composition(d, r, max_n):
    # sum_m mu_d(m) y^(P m), evaluated independently by Horner in TruncatedSeries
    y = decomposition_series(d, max_n)
    power = series_from_list([1] + [0] * max_n)
    for _ in range(math.prod(r)):
        power = power * y
    expected = mobius_series(d, max_n).compose(power)
    assert refined_counts(d, r, max_n) == list(expected.coeffs)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_refined_counts_with_unit_grid_give_the_functional_equation(d):
    # r = (1,...,1): the generating function is M_d(y) = x
    for max_n in (1, 2, 3, 4, 5, 9, 10, 16, 17, 40):
        assert refined_counts(d, (1,) * d, max_n) == [0, 1] + [0] * (max_n - 1)


def test_refined_counts_validation():
    with pytest.raises(ValueError):
        refined_counts(2, (2,), 5)
    with pytest.raises(ValueError):
        refined_counts(1, (0,), 5)
    with pytest.raises(ValueError):
        refined_counts(1, (2,), -3)
    assert refined_counts(1, (2,), 0) == [0]
