"""Growth analytics for the decomposition counts.

The ordinary generating series of the signed splitting weights,
M_d(x) = sum mu_d(n) x^n, has a positive radius of convergence, and the
counts' growth constant is K_d = 1/M_d(s) where s is the first positive root
of M_d'.  M_d, M_d' and M_d'' are the derivatives of one partial sum
sum_{n < 2^k} mu_d(n) x^n; one Horner routine evaluates all three over the
weights n(n-1)..(n-deriv+1) mu_d(n), rounded to binary64 once per (d, k) as a
float + int addition would round them, with a certified bound on the discarded
tail.  The sign of a partial sum is a binary64 decision, which near the root of
M_d' is within rounding of zero and so is not certified there.  So `find_saddle`
certifies each end of `saddle_bracket` by one rule: an end stands when M_d'
there, with the sign that end needs, exceeds its tail bound, and otherwise
moves halfway toward the far edge of its side, at most 64 times: 0 on the
left, and on the right the end of the range where the M_d' tail bound holds.

Tail bounds.  A dyadic block n in [2^l, 2^(l+1)) has at most l prime factors
with multiplicity, so |mu_d(n)| <= d^l there; summing blocks geometrically
gives, for d >= 2 and k >= 3,

    |sum_{n >= 2^k} mu_d(n) x^n|          <= 2 d^k x^(2^k)        on [0, 1/d],
    |sum_{n >= 2^k} n mu_d(n) x^(n-1)|    <= 2^(k+1) d^k x^(2^k-1) on [0, 1/(2d)],
    |sum_{n >= 2^k} n(n-1) mu_d(n) x^(n-2)|
        <= 4^(k+1) d^k x^(2^k-2) / ((1-x)(1-4d x^(2^k)))  while 4d x^(2^k) < 1,

the last by the same block argument with n(n-1) < 4^(l+1) on block l.  For
d = 1, |mu(n)| <= 1 and the exact geometric tails are used instead.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from typing import Tuple

from . import MAX_K, _HOMES, _check_int, _on_first_use
from ._frozen import Frozen
from .number_theory import mobius_d_values

__getattr__ = _on_first_use(globals(), {"_oracles": _HOMES["asymptotics"]})

DEFAULT_K = 6  # k = 6..MAX_K give bit-identical saddles
DEFAULT_TOL = 1e-12
_CACHED_K = 8  # 64 tables of k <= 8 hold at most 0.4 MB; one table of k = 16 holds 1.6 MB


def _mu_weights(d: int, k: int) -> Tuple[array, ...]:
    """Per deriv = 0, 1, 2: n(n-1)..(n-deriv+1) mu_d(n) for n = 2^k - 1 down to deriv."""
    mu = mobius_d_values(d, 2 ** k - 1) + [0]  # n = 2: the constant of an empty M_1'' sum
    return tuple(array("d", (math.perm(n, j) * mu[n] for n in range(max(2 ** k - 1, j), j - 1, -1)))
                 for j in range(3))


# The tables of k <= _CACHED_K, and the last larger one, which a bisection reads at every step.
_mu_table, _last_mu_table = lru_cache(maxsize=64)(_mu_weights), lru_cache(maxsize=1)(_mu_weights)


def _partial_sum(d: int, x: float, k: int, deriv: int) -> float:
    """The deriv-th derivative of sum_{n < 2^k} mu_d(n) x^n at x, by Horner."""
    value = 0.0
    for c in (_mu_table if k <= _CACHED_K else _last_mu_table)(d, k)[deriv]:
        value = value * x + c
    return value


def _check_args(d: int, x: float, k: int, per_d: int = 0) -> None:
    """x must lie in [0, 1 / (per_d d)] for d >= 2 when per_d is given, else in [0, 1)."""
    if type(d) is not int or type(k) is not int or d < 1 or k < 1:  # the rule inline, hot
        _check_int("d", d)  # before the bound on x, which needs an integer d
        _check_int("k", k)
    upper = 1 / (per_d * d) if per_d and d >= 2 else math.nextafter(1.0, 0.0)
    if d >= 2 and k < 3:
        raise ValueError(f"tail bounds need k >= 3 for d >= 2, got k={k}")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    if not 0 <= x <= upper:
        raise ValueError(f"x={x} outside certified range [0, {upper}] for d={d}")


def eval_M(d: int, x: float, k: int = DEFAULT_K) -> Tuple[float, float]:
    """(partial sum of M_d at x through n < 2^k, certified tail magnitude)."""
    _check_args(d, x, k, 1)
    value = _partial_sum(d, x, k, 0)
    big_n = 2 ** k
    if d == 1:
        tail = x ** big_n / (1 - x)
    else:
        tail = 2.0 * d ** k * x ** big_n
    return value, tail


def eval_M_prime(d: int, x: float, k: int = DEFAULT_K) -> Tuple[float, float]:
    """(partial sum of M_d' at x through n < 2^k, certified tail magnitude)."""
    _check_args(d, x, k, 2)
    value = _partial_sum(d, x, k, 1)
    big_n = 2 ** k
    if d == 1:
        tail = x ** (big_n - 1) * (big_n / (1 - x) + x / (1 - x) ** 2)
    else:
        tail = 2.0 ** (k + 1) * d ** k * x ** (big_n - 1)
    return value, tail


def eval_M_second(d: int, x: float, k: int = DEFAULT_K) -> Tuple[float, float]:
    """(partial sum of M_d'' at x through n < 2^k, certified tail magnitude)."""
    _check_args(d, x, k)
    big_n = 2 ** k
    if d >= 2 and 4 * d * x ** big_n >= 1:
        raise ValueError(f"second-derivative tail bound needs 4*d*x^(2^k) < 1 at x={x}")
    value = _partial_sum(d, x, k, 2)
    if d == 1:
        one = 1 - x
        tail = (big_n * (big_n - 1) * x ** (big_n - 2) / one
                + 2 * big_n * x ** (big_n - 1) / one ** 2
                + 2 * x ** big_n / one ** 3)
    else:
        tail = (4.0 ** (k + 1) * d ** k * x ** (big_n - 2)
                / ((1 - x) * (1 - 4 * d * x ** big_n)))
    return value, tail


class SaddleResult(Frozen):
    """Located maximum of M_d on (0, 1) and the growth data derived from it.  Frozen."""

    __slots__ = ("d", "s", "M_at_s", "M2_at_s", "growth_rate", "truncation_order",
                 "tail_bound_used")

    def __init__(self, d: int, s: float, M_at_s: float, M2_at_s: float, growth_rate: float,
                 truncation_order: int, tail_bound_used: float):
        values = (d, s, M_at_s, M2_at_s, growth_rate, truncation_order, tail_bound_used)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return dict(zip(self._key, self._values()))


def saddle_bracket(d: int) -> Tuple[float, float]:
    """Interval known to contain the root of M_d'.

    For d >= 2 these are the closed-form endpoints used to prove the growth
    bounds (k1 below the root, k2 above, both < 1/(2d)); for d = 1 a fixed
    interval found by scanning.
    """
    _check_int("d", d)
    if d == 1:
        return 0.1, 0.45
    k1 = (4 * d + 5) / ((4 * d + 5) * (2 * d + 1) + 1)
    k2 = (d - 1) / d * k1 + 1 / (d * (2 * d + 1))
    return k1, k2


def find_saddle(d: int, tol: float = DEFAULT_TOL, k: int = DEFAULT_K) -> SaddleResult:
    """Bisect M_d' to its root with tail-certified signs at every step, or raise ValueError.

    An end of saddle_bracket(d) whose sign M_d' does not certify moves halfway toward 0
    (left) or 1/(2d), the end of eval_M_prime's range for d >= 2 (right), up to 64 times."""
    if not 0 < tol < math.inf:  # also rejects NaN, which would pass every tail check
        raise ValueError(f"tol must be finite and positive, got {tol}")
    lo, hi = saddle_bracket(d)
    tails = []  # every M_d' tail bound seen, for tail_bound_used

    def signed(x: float) -> Tuple[float, float]:
        value, tail = eval_M_prime(d, x, k)
        if tail >= tol / 10:
            raise ValueError(
                f"tail bound {tail} at x={x} too large for tol={tol}; increase k")
        tails.append(tail)
        return value, tail

    def certified(x: float, sign: int, edge: float) -> float:
        """x, or the first of 64 moves halfway toward edge, where sign M_d' exceeds its tail."""
        for _ in range(65):
            value, tail = signed(x)
            if sign * value > tail:
                return x
            x = 0.5 * (x + edge)
        raise ValueError(f"no certified {'left' if sign > 0 else 'right'} endpoint for d={d}")

    lo = certified(lo, 1, 0.0)
    hi = certified(hi, -1, 1 / (2 * d) if d >= 2 else math.nextafter(1.0, 0.0))

    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at binary64 resolution
            break
        f_mid, _ = signed(mid)
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    f_s, _ = signed(s)
    if abs(f_s) > tol:
        raise ValueError(f"tol={tol} is below what binary64 bisection reaches: "
                         f"|M'({s})| = {abs(f_s)}")

    m_value, m_tail = eval_M(d, s, k)
    m2_value, m2_tail = eval_M_second(d, s, k)
    if not m2_value < 0:
        raise ValueError(f"second derivative {m2_value} not negative at s={s}")
    return SaddleResult(d=d, s=s, M_at_s=m_value, M2_at_s=m2_value, growth_rate=1 / m_value,
                        truncation_order=2 ** k, tail_bound_used=max(*tails, m_tail, m2_tail))
