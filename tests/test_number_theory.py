"""Factorization and the d-fold signed splitting weights mu_d."""

from math import comb, isqrt, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubedecomp import number_theory
from cubedecomp.number_theory import (
    dirichlet_convolve,
    divisors,
    factorize,
    mobius,
    mobius_cached,
    mobius_d,
    mobius_d_by_convolution,
    mobius_d_values,
)

# Classical mu row, n = 1..20.
MU_ROW = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


def test_factorize_basics():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


@given(st.integers(min_value=1, max_value=5000)
       | st.integers(min_value=10**7 - 1000, max_value=10**8))
def test_factorize_reconstructs(n):
    factors = factorize(n)
    assert prod(p**m for p, m in factors) == n
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))
    assert all(m >= 1 for _, m in factors)
    assert all(p >= 2 and all(p % k for k in range(2, isqrt(p) + 1)) for p in primes)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_mobius_row():
    assert [mobius(n) for n in range(1, 21)] == MU_ROW
    assert [mobius_cached(n) for n in range(1, 21)] == MU_ROW


def test_mobius_d_reduces_to_mobius_at_d_1():
    assert [mobius_d(1, n) for n in range(1, 200)] == [mobius(n) for n in range(1, 200)]


def test_mobius_d_at_d_0_is_convolution_identity():
    assert [mobius_d(0, n) for n in range(1, 50)] == [1] + [0] * 48


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3000))
def test_mobius_d_prime_power_formula(d, n):
    expected = prod((-1) ** m * comb(d, m) for _, m in factorize(n))
    assert mobius_d(d, n) == expected


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
def test_mobius_values_agree_with_pointwise(d):
    for max_n in (1, 2, 300, 1024):  # 1024 = 2^10 ends on a prime-power edge
        vals = mobius_d_values(d, max_n)
        assert vals == [0] + [mobius_d(d, n) for n in range(1, max_n + 1)], max_n


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_convolution_route_matches_multiplicative_route(d):
    assert mobius_d_by_convolution(d, 300) == mobius_d_values(d, 300)


def test_convolution_route_factors_nothing(monkeypatch):
    # the oracle checks the closed form over factorize, so it must not use it
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(number_theory, "factorize", refuse)
    for d in range(4):
        assert mobius_d_by_convolution(d, 200) == mobius_d_values(d, 200)


def test_mobius_d_of_one_and_squarefull_cutoff():
    assert mobius_d(3, 1) == 1
    # exponent above d kills the binomial
    assert mobius_d(2, 8) == 0
    assert mobius_d(3, 16) == 0
    assert mobius_d(3, 8) == -1


def test_dirichlet_identity_element():
    # dense 1-indexed convention: slot 0 unused
    e = [0, 1] + [0] * 48
    a = mobius_d_values(3, 49)
    assert dirichlet_convolve(a, e) == a
    assert dirichlet_convolve(e, a) == a


def test_dirichlet_convolve_rejects_length_mismatch():
    with pytest.raises(ValueError):
        dirichlet_convolve([0, 1], [0, 1, 1])


@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40),
)
def test_dirichlet_convolution_commutes(a, b):
    n = min(len(a), len(b))
    assert dirichlet_convolve(a[:n], b[:n]) == dirichlet_convolve(b[:n], a[:n])


@pytest.mark.parametrize("d1,d2", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_mobius_d_is_d_fold_convolution(d1, d2):
    lhs = dirichlet_convolve(mobius_d_values(d1, 200), mobius_d_values(d2, 200))
    assert lhs == mobius_d_values(d1 + d2, 200)


def test_mobius_sum_over_divisors():
    # sum_{k | n} mu(k) = [n == 1]
    for n in range(1, 500):
        total = sum(mobius(k) for k in divisors(n))
        assert total == (1 if n == 1 else 0), n


def test_divisors_sorted_and_complete():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_invalid_arguments_raise():
    with pytest.raises(ValueError):
        mobius_d(-1, 5)
    with pytest.raises(ValueError):
        mobius_d(2, 0)
    with pytest.raises(ValueError):
        mobius_d_values(-1, 5)


# The point query reads the primes up to B off one gcd and trial-divides above B
# only while the cofactor exceeds B^2; these tests sit on both edges.
B = number_theory._BOUND


def trial_division(n):
    """Plain trial division by 2, 3, 4, ... up to the square root: the reference."""
    out, p = [], 2
    while p * p <= n:
        m = 0
        while n % p == 0:
            n //= p
            m += 1
        if m:
            out.append((p, m))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def closed_form(d, pairs):
    """mu_d from a factorization: prod (-1)^m C(d, m) over its (p, m)."""
    return prod((-1) ** m * comb(d, m) for _, m in pairs)


def is_prime(n):
    return trial_division(n) == ((n, 1),)


PRIMES_ABOVE_B = [p for p in range(B + 1, B + 40) if is_prime(p)][:3]


def test_the_gcd_constant_is_the_product_of_the_primes_up_to_the_bound():
    assert number_theory._PRIMES == tuple(p for p in range(2, B + 1) if is_prime(p))
    assert number_theory._PRIMORIAL == prod(number_theory._PRIMES)


def test_factorize_at_the_edges_of_the_bound():
    p, q, r = PRIMES_ABOVE_B
    ns = [B - 1, B, B + 1, B * B - 1, B * B, B * B + 1,
          p, q, r, p * p, q * q, r * r, p * q, p * r, q * r, p * q * r, 2 * 3 * p * q,
          2**23, 2**40, 2**60 + 1, 3**14, 3**30, 2**11 * 3**14]
    for n in ns:
        assert factorize(n) == trial_division(n), n
    assert factorize(p * p) == ((p, 2),) and factorize(p * q) == ((p, 1), (q, 1))
    assert factorize(2**40) == ((2, 40),) and factorize(3**30) == ((3, 30),)


def test_factorize_semiprimes_near_10_to_the_12():
    # 999979, 999983 and 1000003 are the primes next to 10^6
    assert factorize(999983 * 1000003) == ((999983, 1), (1000003, 1))
    assert factorize(999979 * 999983) == ((999979, 1), (999983, 1))
    assert factorize(1000003**2) == ((1000003, 2),)
    assert factorize(2 * 3**2 * 999983 * 1000003) == ((2, 1), (3, 2), (999983, 1), (1000003, 1))
    assert factorize(999983) == ((999983, 1),)
    assert mobius_d(2, 999983 * 1000003) == 4 and mobius_d(1, 1000003**2) == 0
    # above B^2 mobius_d runs the candidate scan on what the gcd leaves over
    known = {999983 * 1000003: ((999983, 1), (1000003, 1)),
             999979 * 999983: ((999979, 1), (999983, 1)),
             1000003**2: ((1000003, 2),),
             2 * 3**2 * 999983 * 1000003: ((2, 1), (3, 2), (999983, 1), (1000003, 1)),
             2**40 * 1000003: ((2, 40), (1000003, 1)),
             7**3 * 999983 * 1000003: ((7, 3), (999983, 1), (1000003, 1)),
             2053**2: ((2053, 2),),  # the smallest cofactors above B^2 that are not prime
             2053 * 2063: ((2053, 1), (2063, 1)),
             3 * 2053 * 2063: ((3, 1), (2053, 1), (2063, 1))}
    for n, pairs in known.items():
        assert n > B * B
        for d in range(5):
            assert mobius_d(d, n) == closed_form(d, pairs), (d, n)


@pytest.mark.parametrize("centre", [B, B * B])
def test_factorize_matches_trial_division_around_the_bound(centre):
    for n in range(centre - 2000, centre + 2001):
        assert factorize(n) == trial_division(n), n


@pytest.mark.parametrize("d", range(7))
def test_point_query_matches_the_table(d):
    table = mobius_d_values(d, 5000)
    assert [mobius_d(d, n) for n in range(1, 5001)] == table[1:]


@pytest.mark.parametrize("lo,hi", [(1400000, 1402000), (B * B - 2000, B * B + 2000)])
def test_mobius_d_matches_the_closed_form_over_trial_division(lo, hi):
    # the band of the benchmark's point queries, and both sides of B^2, where the
    # cofactor left by the gcd stops being read as one prime
    for n in range(lo, hi + 1):
        pairs = trial_division(n)
        for d in range(5):
            assert mobius_d(d, n) == closed_form(d, pairs), (d, n)


def test_mobius_d_builds_no_factorization_up_to_b_squared(monkeypatch):
    ns = [*range(1, 3000), *range(1400000, 1400200), *range(B * B - 200, B * B + 1),
          2**21, 3**13, 2039**2, 2029 * 2039, 2 * 3 * 5 * 7 * 11 * 13 * 17]
    expected = {(d, n): closed_form(d, factorize(n)) for d in range(5) for n in ns}

    def refuse(n):
        raise AssertionError(f"mobius_d factorized {n}")
    monkeypatch.setattr(number_theory, "factorize", refuse)
    monkeypatch.setattr(number_theory, "_prime_powers", refuse)
    assert {(d, n): mobius_d(d, n) for d, n in expected} == expected


# mu_d over [lo, hi] is one prime-power sieve in blocks of max(2^13, isqrt(hi))
# values; the table over 1..max_n is its segment [1, max_n].  The segment near 10^7
# spans three blocks.
SEGMENTS = [(1, 1), (2, 2), (97, 97), (B * B, B * B), (10**12 + 39, 10**12 + 39),
            (B * B - 3000, B * B + 3000), (10**7 - 9000, 10**7 + 9000), (10**12, 10**12 + 300)]


@pytest.mark.parametrize("lo,hi", SEGMENTS)
def test_segment_matches_the_point_query(lo, hi):
    for d in range(5):
        assert list(number_theory._mobius_d_segment(d, lo, hi)) == [
            mobius_d(d, n) for n in range(lo, hi + 1)], (d, lo, hi)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
def test_table_on_both_sides_of_a_prime_square(d):
    # at max_n = p^2 - 1 the prime p is left to the found-part test, at p^2 it is sieved
    for max_n in (3, 4, 5, 24, 25, 48, 49, 50, 2208, 2209, 2210):
        assert mobius_d_values(d, max_n) == [0] + [mobius_d(d, n) for n in range(1, max_n + 1)]
    assert mobius_d_values(d, 0) == mobius_d_values(d, -3) == [0]


# A block up to hi is sieved by the primes up to isqrt(hi): the held ones while that is at
# most B, so below (B + 1)^2, and _primes' from there on.
HELD_PRIMES_EDGES = [(B * B - 300, B * B - 1, False), (B * B - 300, B * B + 300, False),
                     ((B + 1) ** 2 - 300, (B + 1) ** 2 - 1, False),
                     ((B + 1) ** 2 - 300, (B + 1) ** 2 + 300, True)]


@pytest.mark.parametrize("lo,hi,sieves", HELD_PRIMES_EDGES)
def test_segments_below_b_plus_one_squared_take_the_held_primes(monkeypatch, lo, hi, sieves):
    sieve, asked = number_theory._primes, []
    monkeypatch.setattr(number_theory, "_primes", lambda n: asked.append(n) or sieve(n))
    for d in range(5):
        assert list(number_theory._mobius_d_segment(d, lo, hi)) == [
            mobius_d(d, n) for n in range(lo, hi + 1)], (d, lo, hi)
    assert {n for n in asked if n > B} == ({isqrt(hi)} if sieves else set())
    assert sieves or not asked


def test_segment_validates_its_arguments():
    with pytest.raises(ValueError, match="d >= 0"):
        list(number_theory._mobius_d_segment(-1, 5, 9))
    with pytest.raises(ValueError, match="n >= 1"):
        list(number_theory._mobius_d_segment(-1, 0, 9))
