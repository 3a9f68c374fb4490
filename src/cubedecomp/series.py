"""Exact truncated power series and the counting sequences they generate.

Everything here is integer arithmetic on dense coefficient lists.  The three
central series, all tied to the d-fold Moebius function mu_d:

  * M_d(x)   = sum_{n>=1} mu_d(n) x^n            (`mobius_series`)
  * y_d(x)   = sum_{n>=1} s_d(n) x^n, the compositional inverse of M_d;
               s_d(n) counts n-region axis-split decompositions of (0,1)^d
               (`decomposition_counts`)
  * z/M_d(z) = sum_{n>=0} a_d(n) z^n, the auxiliary nonnegative coefficients
               (`auxiliary_counts`)

The inverse is computed by Lagrange inversion through the auxiliary series:
y = x*phi(y) with phi(z) = z/M_d(z).  By Lagrange-Buermann every series H(y)
has n*[x^n] H(y) = [z^(n-1)] H'(z) phi(z)^n; H(z) = z gives s_d, and
H(z) = M_d(z^P) gives the refined counts.  Only one coefficient of each power
is needed, so the powers are not all multiplied out: with B ~ sqrt(N), the
baby steps phi^0..phi^(B-1) and the giant steps phi^B, phi^2B, ... give every
coefficient as one dot product (Brent & Kung's baby-step/giant-step scheme),
about 2*sqrt(N) truncated multiplications in place of N, plus B for H'*phi^j.
The auxiliary coefficients come from their O(N^2) recurrence with the terms
grouped by the few values of mu_d: one big-integer addition per term whose
mu_d is not the most frequent value.
`_revert_by_extraction` (in `_oracles`, loaded on first use) is a slower
independent scheme kept as a cross-check; it and `TruncatedSeries` multiply by
schoolbook dot products (`_mul_school`).

Every fast product packs nonnegative coefficients, coefficient k in slot k of
nb bytes, into one int (`_pack`): one multiplication forms every coefficient,
and masking off the low order + 1 slots truncates, since carries only move up.
With b* the prefix maxima of b, every coefficient through z^order of a*b is at
most D = sum_i a_i b*_(order-i), and so are those of a and b if a_0, b_0 >= 1;
a product packs at the fewest bytes that hold D and its operands.  The signed
weight w of the refined counts is lifted by k = max(0, -min(w)):
w*p = (w + k)*p - k*(p_0 + ... + p_n) at z^n (`_weigh`).

The powers of phi in `_lagrange` are two chains of products by a fixed
operand, phi for the baby powers and phi^B for the giant ones, each link at the
bytes of its own D (`_power_chain`): the powers' bits grow by half along the
giant chain at N = 140, so one width would pack the early links too wide.
While phi is nondecreasing, so are its powers, and D is the top coefficient.
The chains need phi_0 = 1 and phi >= 0, which `_lagrange` checks
(ArithmeticError otherwise).  a_d(n) is a polynomial in d of degree <= n, so
a_d(n) = sum_k C(d, k) f_k(n), with f_k(n) the k-th difference of a_0(n),
a_1(n), ... (a_0(n) = [n = 0]).  f_k(n) >= 0 for 0 <= k <= n <= 200
(`test_auxiliary_counts_are_binomial_sums_of_nonnegative_terms`; one run of
that check reached n = 600), so phi >= 0 for every d through z^600.
"""

from itertools import accumulate
from math import isqrt, prod
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import _HOMES, _check_int, _on_first_use
from ._frozen import Frozen
from .number_theory import mobius_d_values

__getattr__ = _on_first_use(globals(), {"_oracles": (*_HOMES["series"], "_revert_by_extraction")})


class TruncatedSeries(Frozen):
    """A power series known exactly through x^order, with integer coefficients.  Frozen."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(_mul_school(self.coeffs, other.coeffs, n)))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)); inner must have zero constant term.

        Horner scheme: c_0 + inner*(c_1 + inner*(c_2 + ...)).  Truncation stays
        exact because inner has valuation >= 1.
        """
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        order = min(self.order, inner.order)
        acc = TruncatedSeries((self.coeffs[order],) + (0,) * order)
        for k in range(order - 1, -1, -1):
            acc = acc * inner
            acc = TruncatedSeries((acc.coeffs[0] + self.coeffs[k],) + acc.coeffs[1:])
        return acc


def series_from_list(coeffs: Sequence[int]) -> TruncatedSeries:
    return TruncatedSeries(tuple(int(c) for c in coeffs))


def auxiliary_counts(d: int, max_n: int) -> List[int]:
    """a_d(0..max_n) with z/M_d(z) = sum a_d(n) z^n.

    Recurrence from M_d(z) * sum a_d(i) z^i = z:
    a_d(0) = 1,  a_d(n) = -sum_{k=2}^{n+1} mu_d(k) a_d(n+1-k).

    For any constant c,
    a_d(n) = -(c * (a_d(0) + ... + a_d(n-1))
               + sum_{k : mu_d(k) != c} (mu_d(k) - c) a_d(n+1-k)),
    with the prefix sum kept as a running total.  c is the most frequent value
    of mu_d(2..max_n+1), 0 included, which leaves the fewest terms: at
    max_n = 1400, 70% of the k for d = 3 and 63% for d = 2, against the 92%
    and 83% with mu_d(k) != 0 (for d = 1, c = 0 there).  mu_d - c takes few
    distinct values (11 for d = 3), so the terms are grouped by value: each
    step costs one big-integer addition per kept k and one multiplication per
    group.  A group holds the offsets k - 1 into a_d(n), a_d(n-1), ..., a_d(0),
    where a_d(n) is still 0, plus offset 0, so that its itemgetter always
    returns a tuple; it gains one offset, and a new getter, per step.
    """
    _check_int("d", d)
    _check_int("max_n", max_n, 0)
    mu = mobius_d_values(d, max_n + 1)
    tail = mu[2:]
    c = max(set(tail), key=tail.count, default=0)
    a = [1] + [0] * max_n
    groups: Dict[int, List[int]] = {}  # mu_d(k) - c: offsets k - 1
    getters: Dict[int, itemgetter] = {}
    total = 0  # a_d(0) + ... + a_d(n - 1)
    for n in range(1, max_n + 1):
        total += a[n - 1]
        v = mu[n + 1] - c
        if v:
            offsets = groups.setdefault(v, [0])
            offsets.append(n)
            getters[v] = itemgetter(*offsets)
        rev = a[n::-1]
        a[n] = -(c * total + sum([v * sum(get(rev)) for v, get in getters.items()]))
    return a


def _pack(s: Sequence[int], nb: int) -> int:
    """Nonnegative coefficients, coefficient k in slot k of nb bytes."""
    return int.from_bytes(b"".join([c.to_bytes(nb, "little") for c in s]), "little")


def _unpack(v: int, nb: int, slots: int) -> List[int]:
    """The coefficients in the slots of nb bytes of 0 <= v < 2^(8*nb*slots)."""
    raw, from_bytes = v.to_bytes(nb * slots, "little"), int.from_bytes
    return [from_bytes(raw[k:k + nb], "little") for k in range(0, nb * slots, nb)]


def _power_chain(fixed: List[int], links: int, order: int) -> Iterator[Tuple[List[int], int]]:
    """(fixed^l through z^order, its slot bytes) for l = 2..links + 1.

    fixed is >= 0 with constant term 1 and order + 1 coefficients.  The
    running power stays packed between links, so a link is one
    multiplication, one mask and the unpacking of its result.  Each link
    takes the bytes of its own bound D (module docstring), and both operands
    are packed again when that changes.
    """
    slots = order + 1
    fixed_max = list(accumulate(fixed, max))[::-1]
    x, packed_nb = fixed, 0
    for _ in range(links):
        width = (sum(map(int.__mul__, x, fixed_max)).bit_length() + 7) >> 3
        if width != packed_nb:
            packed_nb, mask = width, (1 << 8 * width * slots) - 1
            pf = _pack(fixed, width)
            px = pf if x is fixed else _pack(x, width)
        px = px * pf & mask
        x = _unpack(px, width, slots)
        yield x, width


def _weigh(weight: List[int], powers: List[List[int]], order: int) -> List[List[int]]:
    """weight*p through z^order for each power p >= 0; a signed weight is lifted by an offset."""
    k = max(0, -min(weight))
    lifted = [w + k for w in weight]
    lifted_max = list(accumulate(lifted, max))[::-1]
    slots = order + 1
    out = []
    for p in powers:
        top = max(sum(map(int.__mul__, p, lifted_max)), lifted_max[0], max(p), 1)
        nb = (top.bit_length() + 7) >> 3
        wp = _unpack(_pack(lifted, nb) * _pack(p, nb) & ((1 << 8 * nb * slots) - 1), nb, slots)
        out.append([c - k * t for c, t in zip(wp, accumulate(p))] if k else wp)
    return out


def _lagrange(phi: List[int], max_n: int, weight: Optional[List[int]] = None) -> List[int]:
    """[0, c_1, ..., c_max_n] with n*c_n = [z^(n-1)] weight(z) phi(z)^n.

    By Lagrange-Buermann these are the coefficients of H(y) with H' = weight
    (default 1, so H(z) = z) and y = x*phi(y); phi and weight hold their
    coefficients 0..max_n-1, with phi_0 = 1 and every phi_k >= 0
    (ArithmeticError otherwise).  Writing n = i*B + j with 0 <= j < B and
    B = isqrt(max_n - 1) + 1, c_n is the dot product of phi^(iB) and
    weight*phi^j up to z^(n-1).  The baby powers phi^2..phi^B and the giant
    powers phi^(2B), phi^(3B), ... are two packed chains (`_power_chain`), and
    `_weigh` forms weight*phi^j, B more packed products.
    """
    order = max_n - 1
    if phi[0] != 1 or min(phi) < 0:
        raise ArithmeticError("the packed power chains need phi_0 = 1 and phi >= 0")
    step = isqrt(order) + 1
    baby = [[1] + [0] * order, phi] + [p for p, _ in _power_chain(phi, step - 1, order)]
    inner = baby if weight is None else _weigh(weight, baby[:step], order)
    giants = _power_chain(baby[step], max_n // step - 1, order)
    giant = baby[0]
    c = [0] * (max_n + 1)
    for n in range(1, max_n + 1):
        i, j = divmod(n, step)
        if j == 0:
            giant = next(giants)[0] if i > 1 else baby[step]
        q, r = divmod(sum(map(int.__mul__, giant[:n], inner[j][n - 1::-1])), n)
        if r:
            raise ArithmeticError(f"inversion coefficient at n={n} not divisible by n")
        c[n] = q
    return c


def decomposition_counts(d: int, max_n: int) -> List[int]:
    """[0, s_d(1), ..., s_d(max_n)]: coefficients of the inverse of M_d.

    Lagrange inversion: n*s_d(n) = [z^(n-1)] phi(z)^n with phi = z/M_d(z),
    O(N^2.5) coefficient products in all.
    """
    _check_int("max_n", max_n)
    return _lagrange(auxiliary_counts(d, max_n - 1), max_n)


def _mul_school(a: Sequence[int], b: Sequence[int], order: int) -> List[int]:
    """Coefficients 0..order of a*b, one dot product per coefficient."""
    la, lb = len(a), len(b)
    br = b[::-1]
    out = []
    for n in range(order + 1):
        lo = max(0, n - lb + 1)
        hi = min(n, la - 1)
        # b[n-i] for i = lo..hi is the contiguous slice br[lb-1-n+lo : lb-1-n+hi+1]; past
        # both operands (lo > hi) both slices are empty and the sum is 0
        out.append(sum(map(int.__mul__, a[lo:hi + 1], br[lb - 1 - n + lo:lb - n + hi])))
    return out


def refined_counts(d: int, r: Tuple[int, ...], max_n: int) -> List[int]:
    """[x^n] counts of n-region decompositions of (0,1)^d with grid-gcd exactly r.

    Generating function M_d(y(x)^P) = sum_{m>=1} mu_d(m) y^(P*m) with
    P = prod(r_i): replacing a decomposition's gcd grid cells by arbitrary
    sub-decompositions and Moebius-inverting over coarsenings.  Its
    coefficients come from the same extraction as s_d, weighted by
    H'(z) = sum_m P*m*mu_d(m) z^(P*m-1).
    """
    _check_int("d", d)
    if len(r) != d:
        raise ValueError(f"refinement vector has length {len(r)}, expected d={d}")
    for ri in r:
        _check_int("r entries", ri)
    _check_int("max_n", max_n, 0)
    cells = prod(r)
    if cells > max_n:
        return [0] * (max_n + 1)
    mu = mobius_d_values(d, max_n // cells)
    weight = [0] * max_n
    for m in range(1, len(mu)):
        weight[cells * m - 1] = cells * m * mu[m]
    return _lagrange(auxiliary_counts(d, max_n - 1), max_n, weight)
