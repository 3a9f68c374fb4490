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
