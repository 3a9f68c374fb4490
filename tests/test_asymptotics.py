"""Certified series evaluation, saddle points, and growth-rate estimates."""

import math
from fractions import Fraction

import pytest

from cubedecomp.asymptotics import (
    DEFAULT_K,
    DEFAULT_TOL,
    asymptotic_estimate,
    check_growth_bounds,
    eval_M,
    eval_M_prime,
    eval_M_second,
    find_saddle,
    log_asymptotic_estimate,
    saddle_bracket,
)
from cubedecomp.number_theory import mobius_d
from cubedecomp.series import decomposition_counts


def direct_partial_sum(d, x, k, deriv):
    total = 0.0
    for n in range(1, 2**k):
        mu = mobius_d(d, n)
        if deriv == 0:
            total += mu * x**n
        elif deriv == 1:
            total += mu * n * x ** (n - 1)
        else:
            total += mu * n * (n - 1) * x ** (n - 2)
    return total


@pytest.mark.parametrize("d,x", [(1, 0.3), (2, 0.2), (3, 0.1)])
def test_partial_sums_match_direct_evaluation(d, x):
    for deriv, fn in enumerate((eval_M, eval_M_prime, eval_M_second)):
        value, tail = fn(d, x, k=5)
        assert value == pytest.approx(direct_partial_sum(d, x, 5, deriv), rel=1e-12)
        assert tail >= 0


@pytest.mark.parametrize("d,x", [(1, 0.35), (2, 0.22), (4, 0.1)])
def test_tail_bounds_cover_refinement(d, x):
    # adding more terms moves the value by no more than the certified tails
    for fn in (eval_M, eval_M_prime, eval_M_second):
        if fn is eval_M_prime and x > 1 / (2 * d) and d >= 2:
            continue
        v5, t5 = fn(d, x, k=5)
        v8, t8 = fn(d, x, k=8)
        assert abs(v8 - v5) <= t5 + t8


def test_domain_guards():
    with pytest.raises(ValueError):
        eval_M(2, 0.7)
    with pytest.raises(ValueError):
        eval_M_prime(2, 0.3)
    with pytest.raises(ValueError):
        eval_M_second(2, 0.99)
    with pytest.raises(ValueError):
        eval_M(0, 0.1)
    with pytest.raises(ValueError):
        eval_M(2, 0.1, k=2)
    with pytest.raises(ValueError):
        eval_M(1, -0.2)
    for call in (lambda: saddle_bracket(0), lambda: saddle_bracket(-1),
                 lambda: find_saddle(0), lambda: asymptotic_estimate(0, 10)):
        with pytest.raises(ValueError, match="d must be >= 1"):
            call()
    for call in (lambda: find_saddle(1.5), lambda: eval_M(2.5, 0.1),
                 lambda: check_growth_bounds(2.0), lambda: saddle_bracket(2.5),
                 lambda: find_saddle(True), lambda: eval_M("2", 0.1),
                 lambda: eval_M_prime("2", 0.1)):
        with pytest.raises(ValueError, match="d must be an integer"):
            call()
    for call, text in [(lambda: find_saddle(1, tol=0.0),
                        "tol must be finite and positive, got 0.0"),
                       (lambda: eval_M(1, 0.1, 17), "k must be in 1..16, got 17")]:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == text


@pytest.mark.parametrize("x", [0.0, 0.3, 0.7])
def test_empty_second_derivative_sum(x):
    # through n < 2 the partial sum of M_1'' has no term; the tail is all of M_1''
    value, tail = eval_M_second(1, x, k=1)
    assert value == 0.0
    assert tail == pytest.approx(2 / (1 - x) ** 3, rel=1e-12)
    assert eval_M(1, x, k=1)[0] == x
    assert eval_M_prime(1, x, k=1)[0] == 1.0


def test_saddle_results_are_critical_points():
    for d in (1, 2, 3, 5):
        res = find_saddle(d)
        lo, hi = saddle_bracket(d)
        assert lo <= res.s <= hi
        value, tail = eval_M_prime(d, res.s)
        assert abs(value) <= DEFAULT_TOL
        assert res.M2_at_s < 0
        assert res.growth_rate == pytest.approx(1 / res.M_at_s, rel=1e-14)
        assert res.truncation_order == 2**DEFAULT_K


@pytest.mark.parametrize("d", [1, 2, 5, 30])
def test_saddle_is_the_same_at_the_largest_truncation(d):
    assert find_saddle(d, k=16).s == find_saddle(d).s


def test_saddle_golden_values():
    r1 = find_saddle(1)
    assert r1.s == pytest.approx(0.3229939133, abs=2e-9)
    assert r1.M_at_s == pytest.approx(0.1822339340, abs=2e-9)
    assert r1.M2_at_s == pytest.approx(-4.426886, abs=2e-5)
    assert r1.growth_rate == pytest.approx(5.48745219, abs=2e-7)
    r2 = find_saddle(2)
    assert r2.s == pytest.approx(0.1971661347, abs=2e-9)
    assert r2.M_at_s == pytest.approx(0.1052155911, abs=2e-9)
    assert r2.growth_rate == pytest.approx(9.50429484, abs=2e-7)


def test_growth_rate_excess_over_linear_form():
    # K_d - (4d + 3/2) stays within (0, 1/(16d)) from d = 2 on
    for d, excess in ((2, 0.004295), (3, 0.007081), (30, 0.001906)):
        K = find_saddle(d).growth_rate
        assert K - (4 * d + 1.5) == pytest.approx(excess, abs=2e-6)
    assert check_growth_bounds(2)
    assert check_growth_bounds(17)
    assert check_growth_bounds(30)
    assert check_growth_bounds(10**3)
    with pytest.raises(ValueError):
        check_growth_bounds(1)


def expansion_3(d):
    """K_d through d^-3 of its series in 1/d, exactly.

    Put t = d x: d M_d(t/d) = sum_n mu_d(n) d^(1-n) t^n, and mu_d(n) is a polynomial in d of
    degree Omega(n), so each power of 1/d collects finitely many n (t - t^2 at order 0).
    Maximizing in t order by order gives the rational coefficients of K_d = d / M_d(s) up to
    395/3072; the paper's bounds are the first three terms."""
    return (4 * d + Fraction(3, 2) + Fraction(1, 16 * d) - Fraction(21, 128 * d**2)
            + Fraction(395, 3072 * d**3))


@pytest.mark.parametrize("d", [30, 40, 60, 100, 200, 300, 10**3, 3 * 10**3, 10**4, 89656,
                               95062, 10**5, 10**6, 10**9, 10**12])
def test_saddle_agrees_with_the_expansion_in_one_over_d(d):
    # the constant 0.05 was measured, not derived: (K_d - expansion_3(d)) d^4 reads 0.016-0.022
    # for d = 30..300, and from d = 10^3 on the two agree to within one ulp of K_d
    K = find_saddle(d).growth_rate
    assert abs(Fraction(K) - expansion_3(d)) <= Fraction(0.05) / d**4 + 4 * Fraction(math.ulp(K))


def test_saddle_json_payload():
    data = find_saddle(2).to_json_dict()
    assert sorted(data) == [
        "M2_at_s", "M_at_s", "d", "growth_rate", "s", "tail_bound_used",
        "truncation_order",
    ]
    assert data["d"] == 2


def test_estimate_tracks_exact_counts():
    for d in (1, 2):
        exact = decomposition_counts(d, 100)[100]
        est = asymptotic_estimate(d, 100)
        assert abs(est / float(exact) - 1) < 0.01


def test_estimate_consistent_with_growth_rate():
    res = find_saddle(1)
    e200, e201 = asymptotic_estimate(1, 200), asymptotic_estimate(1, 201)
    assert e201 / e200 == pytest.approx(res.growth_rate, rel=1e-2)


def test_estimate_overflow_returns_inf():
    assert math.isinf(asymptotic_estimate(2, 400))
    assert math.isfinite(asymptotic_estimate(1, 400))


def test_estimate_accepts_precomputed_saddle():
    res = find_saddle(2)
    assert asymptotic_estimate(2, 50, res) == asymptotic_estimate(2, 50)


def test_estimate_refuses_a_saddle_of_another_dimension():
    # Another d's saddle would give a finite, wrong estimate (4.4e108 for
    # s_2(100) from d = 3's saddle, against 3.3e93); it raises instead.
    res = find_saddle(3)
    for estimate in (asymptotic_estimate, log_asymptotic_estimate):
        with pytest.raises(ValueError, match="saddle is for d=3"):
            estimate(2, 100, res)
