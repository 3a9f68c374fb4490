"""Exact geometry of axis-split decompositions of the open unit d-cube.

A region is a d-tuple of open intervals ((lo, hi), ...) with Fraction
endpoints; a decomposition is a set of regions obtained from the trivial
decomposition {(0,1)^d} by repeatedly replacing one region with p >= 2 equal
slabs along one axis.  All arithmetic is exact.

Refinement is the split order: S refines S' when S is obtainable from S' by
further splits.  S refines the grid D_r iff every region lies inside a single
grid cell AND the restriction to each cell, rescaled to the unit cube, is
itself split-generated (containment alone is not enough: {(0,1/6), (1/6,1/4),
(1/4,1/3), (1/3,1/2), (1/2,3/4), (3/4,1)} fits the quarter grid cellwise but
its first cell rescales to the non-split {(0,2/3), (2/3,1)}).

A Decomposition is its integer grid form.  Every endpoint on axis i lies on
the grid (1/L_i)Z, L = lcm_of(S), so S is (L, regions), a region being the
flat tuple (lo_1, hi_1, ..., lo_d, hi_d) of integers in 0..L_i, in sorted
order (on one axis the integer order is the Fraction order).  Constructors
build this form; Fractions are made only when regions is read, and each
function that makes one imports fractions, so importing the package does not.
With w = L_i / r, a region fits in the r-cell lo // w iff
hi <= (lo // w + 1) w; restricting to that cell shifts it by a multiple of w
and sets L_i = w.  A cell keeps its parent's scale, so the same cell reached
by two routes has the same form (L/r/s = L/(rs)).  One search computes a
grid's record (gcd vector, blocks), the blocks being its gcd[0] cells on
axis 0 (None if gcd[0] = 1), or None when the grid is not split-generated; a
bounded memo of the records, keyed by grid form, serves is_split_generated,
gcd_of, refines_grid and covering.phi.

Key structural facts used here:
  * any r_i with S refining the single-axis r_i-grid divides L_i, so gcd_of
    can search divisors;
  * the split-feasible grid set is closed under componentwise lcm, and along
    one axis under divisors, so the largest feasible divisor of L_i is the
    gcd grid's entry.
"""

from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Tuple

from . import _HOMES, _check_int, _malformed, _on_first_use
from ._frozen import Frozen

__getattr__ = _on_first_use(globals(), {"_oracles": (*_HOMES["geometry"], "region_contains")})

Region = Tuple[Tuple["Fraction", "Fraction"], ...]
Grid = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]  # (L, regions), see the module doc


class Decomposition(Frozen):
    """Disjoint open boxes tiling (0,1)^d as (d, Ls, grid): Ls = lcm_of(self), grid
    the sorted integer regions (see the module doc).  regions, the same boxes
    with Fraction endpoints, is built on first read.  Frozen, keyed by the form.  The
    constructor refuses what decomposition_from_json_dict does (see _checked)."""

    __slots__ = ("d", "Ls", "grid", "_regions")
    _key = ("d", "Ls", "grid")

    def __new__(cls, d: int, regions: Iterable[Region]):
        pairs = [[tuple(map(_ratio, iv)) for iv in reg] for reg in regions]
        return _decomposition(d, *_form(d, _checked(d, pairs)))

    def __reduce__(self):  # __new__ takes regions, not the form
        return _decomposition, self._values()

    @property
    def regions(self) -> Tuple[Region, ...]:
        if self._regions is None:  # one Fraction per distinct endpoint of an axis
            from fractions import Fraction

            cols = list(zip(*self.grid))  # lo_1, hi_1, ..., lo_d, hi_d
            axes = []
            for lo, hi, L in zip(cols[::2], cols[1::2], self.Ls):
                f = {e: Fraction(e, L) for e in {*lo, *hi}}
                axes.append(zip(map(f.__getitem__, lo), map(f.__getitem__, hi)))
            object.__setattr__(self, "_regions", tuple(zip(*axes)))
        return self._regions

    def __len__(self) -> int:
        return len(self.grid)

    def __iter__(self):
        return iter(self.regions)

    def __repr__(self) -> str:
        return f"Decomposition(d={self.d!r}, regions={self.regions!r})"


def _decomposition(d: int, Ls: Tuple[int, ...], grid: tuple) -> Decomposition:
    """The Decomposition of the canonical form (d, Ls, grid), which is not checked."""
    dec = object.__new__(Decomposition)
    for name, value in zip(Decomposition.__slots__, (d, Ls, grid, None)):
        object.__setattr__(dec, name, value)
    return dec


def _ratio(e) -> Tuple[int, int]:
    """(num, den) of an int or Fraction endpoint; else ValueError, as the JSON reader
    refuses a float (0.1 is not 1/10) and a bool (not a number)."""
    if type(e) is int:
        return e, 1
    from fractions import Fraction  # loaded already when e is one

    if not isinstance(e, Fraction):
        raise ValueError(f"endpoint {e!r} is not an integer or a Fraction")
    return e.numerator, e.denominator


def _checked(d: int, regions: list) -> list:
    """regions, (num, den) endpoints with den > 0, if d passes the argument rule (an int
    >= 1) and each of at least one region has d intervals with 0 <= lo < hi <= 1; else
    ValueError.  That the boxes tile the cube and are split generated is not checked."""
    _check_int("d", d)
    if not regions:
        raise ValueError("a decomposition needs at least one region")
    for region in regions:
        if len(region) != d:
            from fractions import Fraction

            text = ", ".join(f"({Fraction(*lo)}, {Fraction(*hi)})" for lo, hi in region)
            raise ValueError(f"region ({text}) does not have {d} intervals")
        for (a, b), (c, e) in region:  # a/b and c/e, b and e positive
            if not (0 <= a and a * e < c * b and c <= e):
                from fractions import Fraction

                raise ValueError(f"interval ({Fraction(a, b)}, {Fraction(c, e)}) "
                                 "does not satisfy 0 <= lo < hi <= 1")
    return regions


def _form(d: int, regions: List[List[Tuple[Tuple[int, int], Tuple[int, int]]]]) -> Grid:
    """The canonical form (Ls, grid) of regions with (num, den) endpoints, den > 0:
    each axis goes onto the lcm of its dens, divided by its gcd with the endpoints."""
    Ls, columns = [], []  # L_1, ..., L_d and the grid's columns lo_1, hi_1, ..., lo_d, hi_d
    for i in range(d):
        ends = [[region[i][0] for region in regions], [region[i][1] for region in regions]]
        L = lcm(*[den for side in ends for _, den in side])
        lo, hi = [[num * (L // den) for num, den in side] for side in ends]
        g = gcd(L, *lo, *hi)
        Ls.append(L // g)
        columns += ([e // g for e in lo], [e // g for e in hi]) if g > 1 else (lo, hi)
    return tuple(Ls), tuple(sorted(zip(*columns)))


def regions_overlap(r1: Region, r2: Region) -> bool:
    """Whether two open boxes intersect."""
    return all(max(a, c) < min(b, d_) for (a, b), (c, d_) in zip(r1, r2))


# ------------------------------------------------------------ integer-grid kernel

_MEMO_BOUND = 4096
_memo: Dict[Grid, Optional[tuple]] = {}  # records by grid form, oldest evicted first
_NEW = object()  # what the memo gives for a grid it does not hold


def _cells(grid: Grid, axis: int, r: int) -> Optional[List[Grid]]:
    """The r cells of grid along axis, shifted onto (0, w), in ascending order.

    None unless r divides L_axis, each region lies in one cell and each cell
    holds a region (so r is at most the region count).  Within a cell every
    region shifts alike, so the cells of a sorted grid are sorted.
    """
    Ls, regions = grid
    w, rem = divmod(Ls[axis], r)
    if rem or r > len(regions):
        return None
    i = 2 * axis
    buckets: List[list] = [[] for _ in range(r)]
    for reg in regions:
        lo, hi = reg[i], reg[i + 1]
        j = lo // w
        if hi > (j + 1) * w:
            return None
        buckets[j].append(reg[:i] + (lo - j * w, hi - j * w) + reg[i + 2:])
    if not all(buckets):
        return None
    Ls = Ls[:axis] + (w,) + Ls[axis + 1:]
    return [(Ls, tuple(bucket)) for bucket in buckets]


def _search(grid: Grid):
    """Coroutine of one grid's gcd search: yields the cells it needs, is sent their records.

    Returns the record (gcd vector, axis-0 blocks), or None unless the grid is
    split-generated.  One region is generated iff it fills its cell; more are iff
    some axis has an r >= 2 whose r cells are generated.  The feasible r on an axis
    are the divisors of the largest, so the scan from the top stops at the gcd's entry.
    """
    Ls, regions = grid
    out, blocks = [1] * len(Ls), None
    if len(regions) == 1:
        return (tuple(out), None) if regions[0] == tuple(e for L in Ls for e in (0, L)) else None
    for axis, L in enumerate(Ls):
        for r in range(min(len(regions), L), 1, -1):
            cells = _cells(grid, axis, r)
            if cells is not None:
                for cell in cells:
                    if (yield cell) is None:
                        break
                else:
                    out[axis] = r
                    blocks = blocks if axis else cells
                    break
    return (tuple(out), blocks) if max(out) > 1 else None


def _gcd(grid: Grid) -> Optional[tuple]:
    """grid's record (gcd vector, axis-0 blocks), or None unless it is split-generated.

    A depth-first search on an explicit stack, so deep inputs need no recursion.
    Every record goes into the memo.
    """
    result = _memo.get(grid, _NEW)
    stack, result = ([(grid, _search(grid))], None) if result is _NEW else ([], result)
    while stack:
        node, search = stack[-1]
        try:
            cell = search.send(result)
        except StopIteration as stop:
            result = _memo[node] = stop.value
            if len(_memo) > _MEMO_BOUND:
                del _memo[next(iter(_memo))]
            stack.pop()
            continue
        result = _memo.get(cell, _NEW)
        if result is _NEW:  # a fresh search is sent None
            result = None
            stack.append((cell, _search(cell)))
    return result


def is_split_generated(dec: Decomposition) -> bool:
    """Whether dec arises from the trivial decomposition by iterated equal splits.

    True iff the memoized gcd search gives a record, not None (see the module doc).
    """
    return _gcd((dec.Ls, dec.grid)) is not None


def lcm_of(dec: Decomposition) -> Tuple[int, ...]:
    """Componentwise-minimal grid refining dec: lcm of endpoint denominators.

    A grid refines dec iff every endpoint lies on it (the cells inside each
    region then form a product grid, which is always split-generated).
    """
    return dec.Ls


def gcd_of(dec: Decomposition) -> Tuple[int, ...]:
    """Componentwise-maximal grid that dec refines (split order).

    Per axis, split-feasible r divide lcm_of(dec) and are closed under lcm,
    so the per-axis maximum over divisors is attained and jointly feasible.
    The value is the gcd field of the memoized record behind
    is_split_generated.  Raises ValueError unless dec is split-generated.
    """
    record = _gcd((dec.Ls, dec.grid))
    if record is None:
        raise ValueError("the regions are not a split-generated decomposition")
    return record[0]


def decomposition_to_json_dict(dec: Decomposition) -> dict:
    """JSON form with exact endpoints as "num/den" strings."""
    return {
        "d": dec.d,
        "regions": [[[str(lo), str(hi)] for lo, hi in region] for region in dec.regions],
    }


def decomposition_from_json_dict(data: dict) -> Decomposition:
    """Inverse of decomposition_to_json_dict.

    Raises ValueError "malformed decomposition JSON: ..." on a malformed shape,
    a missing field, an endpoint that is neither a JSON string nor a JSON
    integer, and endpoint text that Fraction cannot read; then on a d that
    breaks the argument rule and on what the constructor refuses (see _checked).
    """
    def endpoint(e) -> Tuple[int, int]:  # (num, den), den > 0
        if type(e) is int:
            return e, 1
        if type(e) is not str:  # a bool is not a number; a float 0.1 is not 1/10
            raise TypeError(f"endpoint {e!r} is not a string or an integer")
        num, slash, den = e.partition("/")
        if e.isascii() and num.isdigit() and (den.isdigit() and den.strip("0") or not slash):
            return int(num), int(den or 1)
        from fractions import Fraction  # imported here, off the fast path above

        f = Fraction(e)  # "0.25", "+1/2", " 1/2", "1/0" and bad text, as Fraction reads them
        return f.numerator, f.denominator

    try:
        d = data["d"]
        regions = [[(endpoint(lo), endpoint(hi)) for lo, hi in reg] for reg in data["regions"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:  # the last: "1/0"
        raise _malformed("decomposition", exc) from None
    return _decomposition(d, *_form(d, _checked(d, regions)))
