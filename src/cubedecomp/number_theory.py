"""Generalized Moebius functions and Dirichlet convolution.

mu_d is the d-fold Dirichlet self-convolution of the classical Moebius
function mu.  On n = p_1^m_1 * ... * p_k^m_k it has the closed form

    mu_d(n) = prod_i (-1)^m_i * C(d, m_i)

(so mu_d(n) = 0 as soon as some exponent exceeds d).  A point query
(`factorize`, `mobius_d`, `divisors`) reads the prime factors of n up to
B = 2^11 (`_BOUND`) off one gcd of n with the product of the primes up to B,
the smooth-part step of Bernstein ("How to find smooth parts of integers",
2004).  Trial division runs over the primes of that gcd, and above B only
while what is left of n exceeds B^2.  The scan of the gcd stops once what is left
of it is prime.  `mobius_d` reads the exponents in one loop and builds no
factorization.  A range [lo, hi] applies the closed form through one prime-power
sieve segmented over [lo, hi] (Bays & Hudson, BIT 17, 1977), whose primes come
from a sieve of Eratosthenes segmented too; the table `mobius_d_values` is
[1, max_n].  `mobius_d_by_convolution` is the independent defining route.  No
state is kept but the primes up to B and their product.

Sequences are dense integer lists indexed by n with slot 0 unused (kept 0),
so seq[n] is the value at n for 1 <= n <= len(seq)-1.
"""

from itertools import chain, compress
from math import comb, gcd, isqrt, prod
from typing import Iterator, List, Tuple

from . import _HOMES, _check_int, _on_first_use

__getattr__ = _on_first_use(globals(), {"_oracles": (*_HOMES["number_theory"],
                                                     "mobius_d_by_convolution")})


_PRIME_BLOCK = 1 << 18  # the least block of _primes; 2^13 ran twice as slow at n = 10^7


def _primes(n: int) -> Iterator[int]:
    """The primes up to n, ascending, by the sieve of Eratosthenes segmented into
    blocks of max(isqrt(n), 2^18) values, each crossed off by the primes up to
    isqrt(n), which _primes(isqrt(n)) gives.  One block is held at a time."""
    root = isqrt(n)
    sievers = list(_primes(root)) if root > 1 else []
    size = max(root, _PRIME_BLOCK)

    def block(lo: int) -> Iterator[int]:  # the primes from lo to lo + size - 1
        hi = min(lo + size, n + 1)
        flags = bytearray([1]) * (hi - lo)
        for p in sievers:
            if p * p >= hi:
                break
            s = max(p * p, lo - lo % -p) - lo  # the offset of p's first multiple to cross off
            flags[s::p] = bytes(len(range(s, hi - lo, p)))
        return compress(range(lo, hi), flags)

    return chain.from_iterable(map(block, range(2, n + 1, size)))


_BOUND = 1 << 11
_PRIMES = tuple(_primes(_BOUND))  # the 309 primes up to B
_PRIMORIAL = prod(_PRIMES)  # 2865 bits
_PRIME_SET = frozenset(_PRIMES)


def _prime_powers(n: int) -> Iterator[Tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1, primes ascending, as they are found."""
    g = gcd(n, _PRIMORIAL)  # squarefree: the primes up to B that divide n
    primes = iter(_PRIMES)
    q = _BOUND // 6 * 6 - 1  # the pair 6j - 1, 6j + 1 with 6j <= B < 6j + 6
    while n > 1:
        if g > 1:  # the next prime of g
            if g in _PRIME_SET:  # one prime of g is left (a g above B has two or more)
                p = g
            else:
                for p in primes:
                    if g % p == 0:
                        break
            g //= p
        else:  # no prime factor up to B is left, so n is prime while n <= B^2
            p = n  # unless a candidate 6j - 1, 6j + 1 up to sqrt(n) divides it
            for q in range(q, isqrt(n) + 1, 6):
                if n % q == 0:
                    p = q
                    break
                if n % (q + 2) == 0:
                    p = q + 2
                    break
        m = 0
        while n % p == 0:
            n //= p
            m += 1
        yield p, m


def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a tuple of (prime, exponent), primes ascending.

    One gcd of n with the product of the primes up to B = 2^11 gives the
    primes up to B that divide n.  Trial division runs over those primes
    only, and stops once what is left of the gcd is prime.  What is then
    left of n has no prime factor up to B, so it is 1 or a prime while it is
    at most B^2.  Only above B^2 are the candidates 6j - 1 and 6j + 1 from B
    on tried, up to its square root.
    """
    if type(n) is not int or n < 1:  # the rule inline: factorize runs per lcm coordinate
        _check_int("n", n)
    return tuple(_prime_powers(n))


def mobius(n: int) -> int:
    """Classical Moebius function."""
    return mobius_d(1, n)


def mobius_d(d: int, n: int) -> int:
    """d-fold Moebius function mu_d(n) = prod (-1)^m_i C(d, m_i) over n's factorization.

    d = 0 gives the convolution identity delta(n=1).  One loop reads the exponents up to B
    off the gcd; what is left is 1 or one prime (factor -d) up to B^2, scanned only above.
    """
    if type(d) is not int or type(n) is not int or d < 0 or n < 1:  # the rule inline, hot
        _check_int("d", d, 0)
        _check_int("n", n)
    g, primes, result = gcd(n, _PRIMORIAL), iter(_PRIMES), 1
    while g > 1:
        if g in _PRIME_SET:  # one prime of g is left (a g above B has two or more)
            p = g
        else:
            for p in primes:
                if g % p == 0:
                    break
        g //= p
        n, m = n // p, 1
        while n % p == 0:
            n //= p
            m += 1
        if m > d:
            return 0
        result *= -comb(d, m) if m & 1 else comb(d, m)
    if n <= _BOUND * _BOUND:
        return result if n == 1 else -d * result
    return result * prod(-comb(d, m) if m & 1 else comb(d, m) for _, m in _prime_powers(n))


def _mobius_d_segment(d: int, lo: int, hi: int) -> Iterator[int]:
    """mu_d(lo), ..., mu_d(hi) by one prime-power sieve segmented over [lo, hi].

    Blocks of max(2^13, isqrt(hi)) values go one at a time: each multiple of p^m swaps
    its factor mu_d(p^(m-1)) for mu_d(p^m) = (-1)^m C(d, m) (exact while m <= d, and 0
    from m = d + 1) and its found part takes a p.  An n whose found part falls short of n
    has one prime factor above the block's square root: factor -d.  The sieving primes
    are the held ones (`_PRIMES`) while that root is at most B, and `_primes(root)` above.
    """
    _check_int("n", lo)
    _check_int("d", d, 0)
    size = max(isqrt(max(hi, 0)), 1 << 13)
    for start in range(lo, hi + 1, size):
        width = min(size, hi - start + 1)
        values, found = [1] * width, [1] * width
        root = isqrt(start + width - 1)
        for p in _PRIMES if root <= _BOUND else _primes(root):
            if p > root:
                break
            q, prev = p, 1
            for m in range(1, d + 2):
                s = -start % q  # the offset of the first multiple of p^m in the block
                if s >= width:
                    break
                w = -comb(d, m) if m & 1 else comb(d, m)
                values[s::q] = [v // prev * w for v in values[s::q]]
                found[s::q] = [f * p for f in found[s::q]]
                q, prev = q * p, w
        yield from [v if f == n else -d * v
                    for v, f, n in zip(values, found, range(start, start + width))]


def mobius_d_values(d: int, max_n: int) -> List[int]:
    """[0, mu_d(1), ..., mu_d(max_n)], max_n >= 0, dense (slot 0 unused): the segment [1, max_n]."""
    _check_int("max_n", max_n, 0)
    return [0, *_mobius_d_segment(d, 1, max_n)]


def mobius_cached(n: int) -> int:
    """The classical Moebius function; the same as `mobius`, kept under its old name."""
    return mobius(n)
