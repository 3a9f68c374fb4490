"""Independent checks of session-warm responses.

Nothing here imports cubedecomp: each check recomputes the answer from the
definitions with its own code, so a wrong library result cannot vouch for
itself, and checking never runs (or warms) a library cache.

  * mobius_d      trial-division factorization and the closed form;
  * phi, gcd_of   split generation searched directly on the boxes;
  * psi           the tree's splits applied to the unit box;
  * tables        the defining identities M_d(y(x)) = x, M_d(z) A(z) = z and
                  T = x - xT + (d+1)T^2, on this module's own series;
  * refined       sum_m mu_d(m) y^(P m) with y from coefficient extraction;
  * h_count       the g/h divisor-lattice recursions;
  * find_saddle   sign of M_d' on both sides of s, and growth = 1/M_d(s);
  * signed_sum    a_d(n) from the auxiliary recurrence.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, floor, lcm, prod

# Growth rates K_d pinned by the `verify` goldens (growth-goldens check).
GROWTH_GOLDENS = {1: 5.487452, 2: 9.504290, 3: 13.507080, 30: 121.501910}


def factor(n: int):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            m = 0
            while n % p == 0:
                n //= p
                m += 1
            out.append((p, m))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def mu_d(d: int, n: int) -> int:
    v = 1
    for _, m in factor(n):
        v *= (-1) ** m * comb(d, m)
    return v


@lru_cache(maxsize=None)
def mu_table(d: int, max_n: int):
    return (0,) + tuple(mu_d(d, n) for n in range(1, max_n + 1))


def mul(a, b, order: int):
    out = [0] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


# ------------------------------------------------------------ geometry


def _in_one_cell(lo, hi, r):
    return hi * r <= floor(lo * r) + 1


def _restrictions(boxes, axis, r):
    """The boxes of each of the r slabs along axis, rescaled to the unit cube."""
    cells = [[] for _ in range(r)]
    for box in boxes:
        lo, hi = box[axis]
        j = floor(lo * r)
        cells[j].append(box[:axis] + ((lo * r - j, hi * r - j),) + box[axis + 1:])
    return [tuple(sorted(c)) for c in cells]


def _axis_lcm(boxes, axis):
    return lcm(*(x.denominator for box in boxes for x in box[axis]))


@lru_cache(maxsize=None)
def split_generated(boxes) -> bool:
    """Whether sorted boxes arise from the unit cube by equal splits: some first split
    along some axis into p slabs, p a prime, must leave split-generated slabs."""
    if len(boxes) == 1:
        return all(iv == (0, 1) for iv in boxes[0])
    for axis in range(len(boxes[0])):
        for p, _ in factor(_axis_lcm(boxes, axis)):
            if (all(_in_one_cell(*box[axis], p) for box in boxes)
                    and all(split_generated(c) for c in _restrictions(boxes, axis, p))):
                return True
    return False


def gcd(boxes):
    """Largest r per axis such that the boxes refine the r slabs along that axis."""
    out = []
    for axis in range(len(boxes[0])):
        divisors = [1]
        for p, m in factor(_axis_lcm(boxes, axis)):
            divisors = [x * p ** e for x in divisors for e in range(m + 1)]
        out.append(max(r for r in divisors
                       if all(_in_one_cell(*box[axis], r) for box in boxes)
                       and all(split_generated(c) for c in _restrictions(boxes, axis, r))))
    return out


def phi(boxes):
    """Covering system of a 1-d decomposition as sorted [a, n] pairs."""
    if len(boxes) == 1:
        return [[0, 1]]
    (r,) = gcd(boxes)
    classes = []
    for j, cell in enumerate(_restrictions(boxes, 0, r)):
        classes += [[(j + r * a) % (r * n), r * n] for a, n in phi(cell)]
    return sorted(classes, key=lambda c: (c[1], c[0]))


def boxes_of(dec: dict):
    return tuple(sorted(tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
                        for box in dec["regions"]))


def _tree(tokens, pos):
    """(label, children) or None for a leaf, parsed from tokens[pos:]; returns (tree, next pos)."""
    if tokens[pos] == "L":
        return None, pos + 1
    label, pos, children = int(tokens[pos + 1]), pos + 2, []
    while tokens[pos] != ")":
        child, pos = _tree(tokens, pos)
        children.append(child)
    return (label, children), pos + 1


def _boxes(tree, box):
    if tree is None:
        return [box]
    label, children = tree
    axis = label - 1
    lo, hi = box[axis]
    step = (hi - lo) / len(children)
    out = []
    for j, child in enumerate(children):
        out += _boxes(child, box[:axis] + ((lo + j * step, lo + (j + 1) * step),) + box[axis + 1:])
    return out


def psi(text: str, d: int):
    """Sorted boxes of the tree's decomposition: each node splits its box along its label."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    tree, _ = _tree(tokens, 0)
    return sorted(_boxes(tree, ((Fraction(0), Fraction(1)),) * d))


# ------------------------------------------------------------ series


def mobius_coeffs(d: int, order: int):
    return list(mu_table(d, order))


def is_inverse_of_mobius(d: int, y) -> bool:
    """M_d(y(x)) == x through the order of y."""
    order = len(y) - 1
    mu = mobius_coeffs(d, order)
    total, power = [0] * (order + 1), [1] + [0] * order
    for k in range(1, order + 1):
        power = mul(power, y, order)
        if mu[k]:
            total = [t + mu[k] * p for t, p in zip(total, power)]
    return total == [0, 1] + [0] * (order - 1)


def auxiliary(d: int, max_n: int):
    mu = mobius_coeffs(d, max_n + 1)
    a = [1] + [0] * max_n
    for n in range(1, max_n + 1):
        a[n] = -sum(mu[k] * a[n + 1 - k] for k in range(2, n + 2))
    return a


def reverted(d: int, max_n: int):
    """y = M_d^{-1} by coefficient extraction: y_n = -sum_{k>=2} mu(k) [x^n] y^k."""
    mu = mobius_coeffs(d, max_n)
    y = [0, 1] + [0] * (max_n - 1)
    for n in range(2, max_n + 1):
        power, total = y, 0
        for k in range(2, n + 1):
            power = mul(power, y, n)
            total += mu[k] * power[n]
        y[n] = -total
    return y


def table_ok(fn: str, d: int, max_n: int, values) -> bool:
    if fn == "decomposition_counts":
        return len(values) == max_n + 1 and values[0] == 0 and is_inverse_of_mobius(d, values)
    if fn == "auxiliary_counts":
        mu = mobius_coeffs(d, max_n + 1)
        return mul(mu, values, max_n + 1) == [0, 1] + [0] * max_n
    t = values
    return (len(t) == max_n + 1 and t[0] == 0
            and all(t[n] == (n == 1) - t[n - 1] * (n >= 2) + (d + 1) * sum(
                t[j] * t[n - j] for j in range(1, n)) for n in range(1, max_n + 1)))


def refined(d: int, r, max_n: int):
    p = prod(r)
    out = [0] * (max_n + 1)
    if p > max_n:
        return out
    y = reverted(d, max_n)
    mu = mobius_coeffs(d, max_n // p)
    y_p = [1] + [0] * max_n
    for _ in range(p):
        y_p = mul(y_p, y, max_n)
    power = [1] + [0] * max_n
    for m in range(1, max_n // p + 1):
        power = mul(power, y_p, max_n)
        out = [o + mu[m] * c for o, c in zip(out, power)]
    return out


# ------------------------------------------------------------ lcm counts


def _divisor_vectors(r):
    vecs = [()]
    for ri in r:
        vecs = [q + (x,) for q in vecs for x in range(1, ri + 1) if ri % x == 0]
    return vecs


@lru_cache(maxsize=None)
def g(r) -> int:
    if all(x == 1 for x in r):
        return 1
    total = 0
    for q in _divisor_vectors(r):
        sign = prod(mu_d(1, x) for x in q)
        if sign and prod(q) > 1:
            total += sign * g(tuple(sorted(a // b for a, b in zip(r, q)))) ** prod(q)
    return 1 - total


def h(r) -> int:
    return sum(prod(mu_d(1, x) for x in q) * g(tuple(sorted(a // b for a, b in zip(r, q))))
               for q in _divisor_vectors(r))


# ------------------------------------------------------------ asymptotics


def saddle_ok(d: int, result: dict) -> bool:
    s = result["s"]
    mu = mu_table(d, 63)

    def m_prime(x):
        return sum(n * mu[n] * x ** (n - 1) for n in range(1, 64))

    m_at_s = sum(mu[n] * s ** n for n in range(1, 64))
    ok = (m_prime(s * (1 - 1e-7)) > 0 > m_prime(s * (1 + 1e-7))
          and abs(result["M_at_s"] - m_at_s) <= 1e-12
          and result["growth_rate"] == 1 / result["M_at_s"]
          and 0 <= result["tail_bound_used"] < 1e-12)
    if d in GROWTH_GOLDENS:
        ok = ok and abs(result["growth_rate"] - GROWTH_GOLDENS[d]) < 1e-5
    return ok


# ------------------------------------------------------------ dispatch


def check(request: dict, response) -> bool:
    """Whether a session-warm response is the right answer to its request.

    A response of the wrong shape is a wrong answer, not a harness error.
    """
    if isinstance(response, dict) and "error" in response:
        return False
    try:
        return _check(request["kind"], request["args"], response)
    except (ValueError, TypeError, KeyError, IndexError, AttributeError):
        return False


def _check(kind: str, a: dict, response) -> bool:
    if kind == "mobius_d":
        return response == [mu_d(a["d"], n) for n in range(a["lo"], a["hi"] + 1)]
    if kind == "phi":
        return response == phi(boxes_of(a["dec"]))
    if kind == "gcd_of":
        return response == gcd(boxes_of(a["dec"]))
    if kind == "psi":
        got = sorted(tuple((Fraction(lo), Fraction(hi)) for lo, hi in box) for box in response)
        return got == psi(a["text"], a["d"])
    if kind == "h_count":
        return response == str(h(tuple(sorted(a["r"]))))
    if kind == "table":
        return table_ok(a["fn"], a["d"], a["max_n"], [int(v) for v in response])
    if kind == "refined_counts":
        return [int(v) for v in response] == refined(a["d"], a["r"], a["max_n"])
    if kind == "find_saddle":
        return saddle_ok(a["d"], response)
    if kind == "signed_sum":
        return response == str(auxiliary(a["d"], a["n"])[a["n"]])
    return False
