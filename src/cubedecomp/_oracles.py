"""The functions of the package that no table command and no session call runs.

These are the brute-force oracles and the helpers only they, the checks and
the other commands use: the enumerations of decompositions, covering systems
and trees; the reversion and Moebius oracles (`_revert_by_extraction`,
`mobius_d_by_convolution` with `dirichlet_convolve`, `divisors`); the
Fraction-region helpers and the grid constructors; the covering-system
constructors and JSON reader; the tree text and JSON forms; the prime-sequence
partner maps and their JSON; and the saddle-point estimates.

Each name belongs to a home module, which binds it on its first read through a
module __getattr__ (PEP 562), and the package root re-exports it the same way.
So `import cubedecomp` and every table command compile none of this, and the
first use of any of it compiles all of it.  Import these names from their home
module or the package, not from here.

Every public function, here or in an eager module, is read through its home
module at call time, so a run that rebinds one there (the benchmark's
tracer) sees every call.  No Fraction is made at import: each function that
makes one imports it.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from . import asymptotics, covering, geometry, number_theory, prime_sequences, series, trees

# ------------------------------------------------------------ number_theory


def dirichlet_convolve(a: List[int], b: List[int]) -> List[int]:
    """Dirichlet convolution (a*b)(n) = sum_{ij=n} a(i)b(j) of dense 1-indexed lists.

    Inputs must have equal length; slot 0 is ignored and zero in the output.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    max_n = len(a) - 1
    out = [0] * (max_n + 1)
    for i in range(1, max_n + 1):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(1, max_n // i + 1):
            if b[j] != 0:
                out[i * j] += ai * b[j]
    return out


def mobius_d_by_convolution(d: int, max_n: int) -> List[int]:
    """mu_d via d-fold self-convolution of mu; the independent slow route."""
    if d < 0:
        raise ValueError(f"requires d >= 0, got {d}")
    delta = [0] * (max_n + 1)
    if max_n >= 1:
        delta[1] = 1
    result, mu1 = delta, delta[:]
    for k in range(1, max_n + 1):  # mu by sum_{k | n} mu(k) = [n = 1]: nothing is factored
        for m in range(2 * k, max_n + 1, k):
            mu1[m] -= mu1[k]
    for _ in range(d):
        result = number_theory.dirichlet_convolve(result, mu1)
    return result


def divisors(n: int) -> List[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, m in number_theory.factorize(n):
        divs = [dv * p ** e for dv in divs for e in range(m + 1)]
    return sorted(divs)


# ------------------------------------------------------------ series


def mobius_series(d: int, order: int) -> series.TruncatedSeries:
    """M_d(x) = sum mu_d(n) x^n through x^order."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return series.TruncatedSeries(tuple(number_theory.mobius_d_values(d, order)))


def decomposition_series(d: int, order: int) -> series.TruncatedSeries:
    return series.TruncatedSeries(tuple(series.decomposition_counts(d, order)))


def _revert_by_extraction(d: int, max_n: int) -> List[int]:
    """Independent reversion: iterative coefficient extraction.

    s(1) = 1 and s(n) = -sum_{k=2}^{n} mu_d(k) [x^n] y^k using only earlier
    coefficients ([x^n] y^k never involves s(n) for k >= 2).  Quartic-time;
    used as a cross-check at moderate orders.  Its products are the schoolbook
    ones of `series._mul_school`, so it shares no arithmetic with the packed products.
    """
    mu = number_theory.mobius_d_values(d, max_n)
    mul = series._mul_school
    y = [0] * (max_n + 1)
    y[1] = 1
    for n in range(2, max_n + 1):
        # y[n] is still 0 here; harmless, since [x^n] y^k for k >= 2 never uses it.
        p = mul(y, y, n)
        total = mu[2] * p[n]
        for k in range(3, n + 1):
            p = mul(p, y, n)
            if mu[k]:
                total += mu[k] * p[n]
        y[n] = -total
    return y


# ------------------------------------------------------------ geometry


def trivial_decomposition(d: int) -> geometry.Decomposition:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return geometry._decomposition(d, (1,) * d, ((0, 1) * d,))


def grid_decomposition(r: Tuple[int, ...]) -> geometry.Decomposition:
    """The grid decomposition D_r with r_i equal slabs along axis i."""
    if any(ri < 1 for ri in r):
        raise ValueError(f"grid arities must be >= 1, got {r}")
    cells = product(*[[(j, j + 1) for j in range(ri)] for ri in r])
    return geometry._decomposition(len(r), tuple(r), tuple(sum(cell, ()) for cell in cells))


def refines_grid(dec: geometry.Decomposition, r: Tuple[int, ...]) -> bool:
    """Whether dec refines D_r in the split order.

    True iff each grid cell contains whole regions only and its restriction,
    rescaled to the unit cube, is split-generated.  Cells are cut axis by axis
    on the integer grid form; their verdicts use the memo of the gcd search.
    """
    if len(r) != dec.d:
        raise ValueError(f"grid vector has length {len(r)}, expected {dec.d}")
    if any(ri < 1 for ri in r):
        raise ValueError(f"grid arities must be >= 1, got {r}")
    grids = [(dec.Ls, dec.grid)]
    for axis, ri in enumerate(r):
        cells = [geometry._cells(g, axis, ri) for g in grids]
        if None in cells:
            return False
        grids = [cell for cs in cells for cell in cs]
    return all(geometry._gcd(cell) is not None for cell in grids)


def unit_region(d: int) -> geometry.Region:
    from fractions import Fraction

    return ((Fraction(0), Fraction(1)),) * d


def _check_split(axis: int, arity: int, d: int) -> None:
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for dimension {d}")


def split(region: geometry.Region, axis: int, arity: int) -> Tuple[geometry.Region, ...]:
    """Split a region into `arity` equal open slabs along `axis` (0-based).

    Cut points are lo + j*(hi-lo)/arity for j = 1..arity-1; slabs come back in
    ascending order along the axis.
    """
    _check_split(axis, arity, len(region))
    lo, hi = region[axis]
    step = (hi - lo) / arity
    parts = []
    for j in range(arity):
        iv = (lo + j * step, lo + (j + 1) * step)
        parts.append(region[:axis] + (iv,) + region[axis + 1:])
    return tuple(parts)


def split_decomposition(dec: geometry.Decomposition, region: geometry.Region, axis: int,
                        arity: int) -> geometry.Decomposition:
    """Replace one region of dec by its arity-fold split along axis."""
    if region not in dec.regions:
        raise ValueError("region is not part of the decomposition")
    _check_split(axis, arity, dec.d)
    i = dec.regions.index(region)
    rest = dec.grid[:i] + dec.grid[i + 1:]
    return geometry._decomposition(dec.d, *_split_form(dec.Ls, rest, dec.grid[i], axis, arity))


def _split_form(Ls: Tuple[int, ...], rest: Tuple[Tuple[int, ...], ...], reg: Tuple[int, ...],
                axis: int, arity: int) -> geometry.Grid:
    """The form of rest and the arity slabs of reg along axis, (Ls, rest + (reg,)) being
    canonical.  Scaling the axis by s = arity / gcd(arity, hi - lo) makes the cuts
    integers, and its gcd stays 1: the old endpoints share s with s L_i, and the
    first cut is prime to s."""
    i = 2 * axis
    lo, hi = reg[i], reg[i + 1]
    g = math.gcd(arity, hi - lo)
    s, w = arity // g, (hi - lo) // g
    if s > 1:
        rest = [x[:i] + (x[i] * s, x[i + 1] * s) + x[i + 2:] for x in rest]
        Ls = Ls[:axis] + (Ls[axis] * s,) + Ls[axis + 1:]
    slabs = [reg[:i] + (lo * s + j * w, lo * s + j * w + w) + reg[i + 2:] for j in range(arity)]
    return Ls, tuple(sorted([*rest, *slabs]))


def region_contains(outer: geometry.Region, inner: geometry.Region) -> bool:
    """Closure containment of open boxes: inner subset of outer."""
    return all(a <= c and d_ <= b for (a, b), (c, d_) in zip(outer, inner))


def scale_map(src: geometry.Region, dst: geometry.Region,
              region: geometry.Region) -> geometry.Region:
    """Image of region under the affine map taking box src onto box dst.

    region must lie inside src.
    """
    if not geometry.region_contains(src, region):
        raise ValueError("region does not lie inside the source box")
    out = []
    for (a, b), (a2, b2), (lo, hi) in zip(src, dst, region):
        scale = (b2 - a2) / (b - a)
        out.append((a2 + scale * (lo - a), a2 + scale * (hi - a)))
    return tuple(out)


def volume(dec: geometry.Decomposition) -> "Fraction":
    from fractions import Fraction

    return Fraction(sum(math.prod(hi - lo for lo, hi in zip(reg[::2], reg[1::2]))
                        for reg in dec.grid), math.prod(dec.Ls))


def restrict_rescale(dec: geometry.Decomposition,
                     cell: geometry.Region) -> geometry.Decomposition:
    """Regions of dec inside cell, rescaled to a decomposition of the unit cube.

    Raises if any region straddles the cell boundary.
    """
    unit = geometry.unit_region(dec.d)
    inside = []
    for reg in dec.regions:
        if geometry.region_contains(cell, reg):
            inside.append(geometry.scale_map(cell, unit, reg))
        elif geometry.regions_overlap(cell, reg):
            raise ValueError("a region straddles the cell boundary")
    return geometry.Decomposition(dec.d, tuple(inside))


def enumerate_decompositions_up_to(d: int,
                                   max_n: int) -> Dict[int, Set[geometry.Decomposition]]:
    """All decompositions with at most max_n regions, keyed by region count.

    Brute-force oracle: breadth-first closure of the trivial decomposition
    under single-region splits of the canonical form (L, grid), which also
    deduplicates; the gcd search is never asked.  A split of arity p adds p-1
    regions, so from a level-m decomposition arity is capped at max_n - m + 1.
    """
    start = geometry.trivial_decomposition(d)
    levels: Dict[int, Set[geometry.Grid]] = {m: set() for m in range(1, max_n + 1)}
    levels[1].add((start.Ls, start.grid))
    for m in range(1, max_n):
        for Ls, grid in levels[m]:
            for idx, reg in enumerate(grid):
                rest = grid[:idx] + grid[idx + 1:]
                for axis in range(d):
                    for arity in range(2, max_n - m + 2):
                        levels[m + arity - 1].add(_split_form(Ls, rest, reg, axis, arity))
    make = geometry._decomposition
    return {m: {make(d, *form) for form in forms} for m, forms in levels.items()}


def enumerate_decompositions(d: int, n: int) -> Set[geometry.Decomposition]:
    """The set S_{d,n} of decompositions with exactly n regions."""
    if n < 1:
        raise ValueError(f"region count must be >= 1, got {n}")
    return geometry.enumerate_decompositions_up_to(d, n)[n]


# ------------------------------------------------------------ covering


def make_class(a: int, n: int) -> covering.ResidueClass:
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    return covering.ResidueClass(a % n, n)


def trivial_necs() -> covering.Necs:
    return covering.Necs((covering.ResidueClass(0, 1),))


def split_class(c: covering.ResidueClass, r: int) -> Tuple[covering.ResidueClass, ...]:
    """The r classes a + i*n mod r*n partitioning a mod n."""
    if r < 2:
        raise ValueError(f"split arity must be >= 2, got {r}")
    return tuple(covering.ResidueClass(i * c.n + c.a, r * c.n) for i in range(r))


def split_necs(system: covering.Necs, c: covering.ResidueClass, r: int) -> covering.Necs:
    if c not in system.classes:
        raise ValueError("class is not part of the system")
    rest = tuple(x for x in system.classes if x != c)
    return covering.Necs(rest + covering.split_class(c, r))


def classes_intersect(c1: covering.ResidueClass, c2: covering.ResidueClass) -> bool:
    """CRT: a mod n and b mod m share an integer iff a = b mod gcd(n, m)."""
    return (c1.a - c2.a) % math.gcd(c1.n, c2.n) == 0


def is_exact_cover(classes: Tuple[covering.ResidueClass, ...]) -> bool:
    """Pairwise disjoint and densities summing to 1 (hence a partition of Z)."""
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if covering.classes_intersect(classes[i], classes[j]):
                return False
    from fractions import Fraction

    return sum(Fraction(1, c.n) for c in classes) == 1


def necs_from_json_dict(data: dict) -> covering.Necs:
    """Inverse of necs_to_json_dict; raises ValueError on a malformed shape, a
    missing field, an a or n that is not a JSON integer, and on classes that do
    not partition the integers."""
    try:
        pairs = [(c["a"], c["n"]) for c in data["classes"]]
    except TypeError as exc:
        raise ValueError(f"malformed covering system JSON: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"malformed covering system JSON: missing field {exc}") from None
    bad = [x for pair in pairs for x in pair if type(x) is not int]  # a bool, or 2.9
    if bad:
        raise ValueError(f"a covering system needs integer a and n, got {bad[0]!r}")
    classes = tuple(covering.make_class(a, n) for a, n in pairs)
    if not covering.is_exact_cover(classes):
        raise ValueError("the classes are not an exact covering system")
    return covering.Necs(classes)


def enumerate_necs_up_to(max_m: int) -> Dict[int, Set[covering.Necs]]:
    """All natural exact covering systems with at most max_m classes, by size.

    Brute-force oracle mirroring the decomposition enumerator: closure of
    {0 mod 1} under single-class splits, deduplicated canonically.
    """
    levels: Dict[int, Set[covering.Necs]] = {m: set() for m in range(1, max_m + 1)}
    levels[1].add(covering.trivial_necs())
    for m in range(1, max_m):
        for system in levels[m]:
            for idx, c in enumerate(system.classes):
                rest = system.classes[:idx] + system.classes[idx + 1:]
                for r in range(2, max_m - m + 2):
                    levels[m + r - 1].add(covering.Necs(rest + covering.split_class(c, r)))
    return levels


def enumerate_necs(m: int) -> Set[covering.Necs]:
    """The set C_m of natural exact covering systems with exactly m classes."""
    if m < 1:
        raise ValueError(f"class count must be >= 1, got {m}")
    return covering.enumerate_necs_up_to(m)[m]


# ------------------------------------------------------------ trees


def is_leaf(tree: trees.PlaneTree) -> bool:
    return len(tree) == 0


def _preorder(tree) -> Iterator:
    """The nodes in preorder from an explicit stack, in tuple or JSON form alike.

    A node's children node[1:] (a leaf, () or "L", has none) are read only after
    the caller has seen the node, so the caller may check it first."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node[1:]))


def leaf_count(tree: trees.PlaneTree) -> int:
    return sum(map(trees.is_leaf, _preorder(tree)))


def validate_tree(tree: trees.PlaneTree, d: int) -> None:
    """Raise ValueError unless every internal node has a label in 1..d and >= 2 children."""
    for node in _preorder(tree):
        trees._children(node, d)


def format_tree(tree: trees.PlaneTree) -> str:
    """Parenthesised text form: leaf is "L", internal is "(label child ...)"."""
    words: List[str] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is None:  # pushed below the children of a node, so that node closes here
            words[-1] += ")"
        elif trees.is_leaf(node):
            words.append("L")
        else:
            words.append(f"({node[0]}")
            stack += [None, *reversed(node[1:])]
    return " ".join(words)


def tree_to_json(tree: trees.PlaneTree) -> Union[str, list]:
    """JSON form: "L" for a leaf, [label, child, ...] for an internal node."""
    root: list = []
    stack = [(tree, root)]
    while stack:  # each node's list is appended to its parent's, then filled
        node, parent = stack.pop()
        parent.append("L" if trees.is_leaf(node) else [node[0]])
        stack.extend((child, parent[-1]) for child in reversed(node[1:]))
    return root[0]


def tree_from_json(obj: Union[str, list]) -> trees.PlaneTree:
    """Inverse of tree_to_json; raises ValueError on the first malformed node in preorder."""
    nodes = []
    for node in _preorder(obj):
        if node != "L" and not (isinstance(node, list) and len(node) >= 3
                                and type(node[0]) is int):
            raise ValueError(f"malformed tree JSON: {node!r}")
        nodes.append(node)
    built: List[trees.PlaneTree] = []
    for node in reversed(nodes):  # a node's children are then the last built, last first
        if node == "L":
            built.append(trees.LEAF)
        else:
            children = built[1 - len(node):]
            del built[1 - len(node):]
            built.append((node[0], *reversed(children)))
    return built[0]


def _compositions(n: int, r: int) -> Iterator[Tuple[int, ...]]:
    """Ordered r-tuples of positive integers summing to n."""
    if r == 1:
        yield (n,)
        return
    for first in range(1, n - r + 2):
        for rest in _compositions(n - first, r - 1):
            yield (first, *rest)


def enumerate_trees(d: int, n: int) -> Set[trees.PlaneTree]:
    """All plane rooted trees with n leaves and internal labels in 1..d.

    Built bottom-up: level k holds the trees with k leaves, made from a root
    of arity r and the ordered subtrees of each composition of k into r
    parts.  The levels live only as long as the call.
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    levels: List[Tuple[trees.PlaneTree, ...]] = [(), (trees.LEAF,)]
    for k in range(2, n + 1):
        levels.append(tuple(
            (label, *children)
            for r in range(2, k + 1)
            for parts in _compositions(k, r)
            for children in product(*(levels[p] for p in parts))
            for label in range(1, d + 1)
        ))
    return set(levels[n])


# ------------------------------------------------------------ prime_sequences

PrimeSequence = prime_sequences.PrimeSequence


def first_even_set(seq: PrimeSequence) -> Optional[int]:
    """0-based index of the first even-sized set, or None."""
    for i, s in enumerate(seq):
        if len(s) % 2 == 0:
            return i
    return None


def find_oar(seq: PrimeSequence) -> Optional[Tuple[int, int]]:
    """Earliest odd-arity repetition run: (start, ell), 0-based start, or None.

    A run starting at j needs A_j = {ell} a singleton prime, followed by
    exactly ell copies of one odd-sized set whose elements all exceed A_j's
    (prime, colour) as tuples.  Sets are sorted (see `PrimeSet`), so that
    set's first element decides.
    """
    for j, s in enumerate(seq):
        if len(s) == 1:
            ell = s[0][0]
            run = seq[j + 1:j + ell + 1]
            if (len(run) == ell and len(run[0]) % 2 and run[0][0] > s[0]
                    and run.count(run[0]) == ell):
                return (j, ell)
    return None


def involution(seq: PrimeSequence) -> PrimeSequence:
    """Weight-preserving, sign-reversing partner map on sequences that
    contain an even set or an OAR run.

    Whichever comes first wins:
      * even set at i: remove its smallest (prime, colour) element p0 and
        replace the set by ({p0}, then p0 copies of the remainder);
      * OAR run at j with singleton value p0: replace the run's first two
        sets by their union and drop the remaining p0 - 1 copies.

    A true involution for d = 1.  For d >= 2 it is not: splitting an even
    set can create overlapping OAR runs, letting two distinct sequences
    map to the same image.  Smallest case d = 3, n = 5, where
    ({2_1}, {2_2}, {2_2 2_3}) and ({2_1 2_2}, {2_3}, {2_3}) both map to
    ({2_1}, {2_2}, {2_2}, {2_3}, {2_3}), whose partner is only the latter.
    """
    i = prime_sequences.first_even_set(seq)
    oar = prime_sequences.find_oar(seq[:i])  # a run holds no even set, so it ends before seq[i]
    if oar is not None:
        j, ell = oar
        return seq[:j] + (tuple(sorted(seq[j] + seq[j + 1])),) + seq[j + ell + 1:]
    if i is None:
        raise ValueError("sequence has no even set and no repetition run")
    p0, remainder = seq[i][0], seq[i][1:]
    return seq[:i] + ((p0,),) + (remainder,) * p0[0] + seq[i + 1:]


def is_reduced(seq: PrimeSequence) -> bool:
    """No even set and no OAR run: the sequences counted by a_d(n)."""
    return prime_sequences.first_even_set(seq) is None and prime_sequences.find_oar(seq) is None


def enumerate_A_tilde(d: int, n: int) -> List[PrimeSequence]:
    """The reduced sequences of weight n, sorted.

    For d = 1 the count equals a_1(n); for d >= 2 it can exceed a_d(n)
    because the partner map orphans some non-reduced sequences (first at
    d = 2, n = 7: 768 reduced vs a_2(7) = 766).  Every reduced sequence has
    sign +1, and the surplus over a_d(n) is minus the signed count of the
    orphans (at d = 2, n = 7: two orphans of sign -1).  It is not the orphan
    count, which first differs at d = 2, n = 10 (112 orphans, surplus 108).
    """
    return sorted(seq for seq in prime_sequences.iter_sequences(d, n)
                  if prime_sequences.is_reduced(seq))


def ratio_injection(seq: PrimeSequence, colour: int) -> PrimeSequence:
    """Inject a reduced weight-n sequence into the reduced weight-(n+1) set.

    Appends {2_colour}, unless that completes an OAR run; then the two
    copies of {2_colour} collapse into {3_colour} instead.  Only the tail
    {2_c'}, {2_colour} with c' < colour can be completed (a longer run needs
    elements above 2), so `find_oar` on those two sets and the new one decides.
    """
    new = ((2, colour),)
    if prime_sequences.find_oar(seq[-2:] + (new,)) is not None:
        return seq[:-1] + (((3, colour),),)
    return seq + (new,)


def sequence_to_json(seq: PrimeSequence) -> list:
    """Lists of lists of {"p": prime, "colour": colour}."""
    return [[{"p": p, "colour": c} for p, c in s] for s in seq]


def sequence_from_json(data: list) -> PrimeSequence:
    """Inverse of sequence_to_json; raises ValueError on a malformed shape, a
    missing field, a p or colour that is not a JSON integer, and on a set that
    is not a coloured prime set: an empty set, a p that is not prime, a colour
    below 1 or a repeated (p, colour).  Each p is checked by `factorize`, so a
    huge p costs what factorize(p) costs."""
    try:
        sets = [[(e["p"], e["colour"]) for e in s] for s in data]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed prime sequence JSON: {exc!r}") from None
    bad = [x for s in sets for pair in s for x in pair if type(x) is not int]  # a bool, or 2.9
    if bad:
        raise ValueError(f"a prime sequence needs integer p and colour, got {bad[0]!r}")
    seq = tuple(tuple(sorted(s)) for s in sets)
    for s in seq:
        if not s:
            raise ValueError("a prime sequence has no empty set")
        for i, (p, c) in enumerate(s):
            if p < 2 or number_theory.factorize(p) != ((p, 1),):
                raise ValueError(f"p = {p} is not a prime")
            if c < 1:
                raise ValueError(f"colour {c} of p = {p} is below 1")
            if i and s[i - 1] == (p, c):
                raise ValueError(f"the set {s} repeats ({p}, {c})")
    return seq


# ------------------------------------------------------------ asymptotics


def log_asymptotic_estimate(d: int, n: int,
                            saddle: asymptotics.SaddleResult | None = None) -> float:
    """Natural log of the first-order saddle-point estimate of the n-th count.

    log of n^(-3/2) M_d(s)^(1/2 - n) / sqrt(-2 pi M_d''(s)); usable far past
    the n where the estimate itself leaves binary64 range.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if saddle is None:
        saddle = asymptotics.find_saddle(d)
    elif saddle.d != d:
        raise ValueError(f"saddle is for d={saddle.d}, not d={d}")
    return (-1.5 * math.log(n)
            + (0.5 - n) * math.log(saddle.M_at_s)
            - 0.5 * math.log(-2 * math.pi * saddle.M2_at_s))


def asymptotic_estimate(d: int, n: int, saddle: asymptotics.SaddleResult | None = None) -> float:
    """First-order saddle-point estimate of the n-th decomposition count.

    Exponentiates log_asymptotic_estimate; returns inf if the value exceeds
    binary64 range.
    """
    try:
        return math.exp(asymptotics.log_asymptotic_estimate(d, n, saddle))
    except OverflowError:
        return math.inf


def check_growth_bounds(d: int, tol: float = asymptotics.DEFAULT_TOL,
                        k: int = asymptotics.DEFAULT_K) -> bool:
    """Whether K_d lies in [4d + 3/2, 4d + 3/2 + 1/(16d)]; defined for d >= 2 only."""
    if d < 2:
        raise ValueError(f"growth bounds are stated for d >= 2 only, got d={d}")
    rate = asymptotics.find_saddle(d, tol=tol, k=k).growth_rate
    lower = 4 * d + 1.5
    return lower <= rate <= lower + 1 / (16 * d)
