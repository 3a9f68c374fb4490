"""Exact geometry of axis-split decompositions of the open unit d-cube.

A region is a d-tuple of open intervals ((lo, hi), ...) with Fraction
endpoints; a decomposition is a canonically sorted tuple of regions obtained
from the trivial decomposition {(0,1)^d} by repeatedly replacing one region
with p >= 2 equal slabs along one axis.  All arithmetic is exact.

Refinement is the split order: S refines S' when S is obtainable from S' by
further splits.  S refines the grid D_r iff every region lies inside a single
grid cell AND the restriction to each cell, rescaled to the unit cube, is
itself split-generated (containment alone is not enough: {(0,1/6), (1/6,1/4),
(1/4,1/3), (1/3,1/2), (1/2,3/4), (3/4,1)} fits the quarter grid cellwise but
its first cell rescales to the non-split {(0,2/3), (2/3,1)}).

Split generation, refines_grid and gcd_of run on an integer grid form.  Every
endpoint on axis i lies on the grid (1/L_i)Z, L = lcm_of(S), so S becomes
(L, regions), a region being the flat tuple (lo_1, hi_1, ..., lo_d, hi_d) of
integers in 0..L_i.  With w = L_i / r, a region fits in the r-cell lo // w iff
hi <= (lo // w + 1) w; restricting to that cell shifts it by a multiple of w
and sets L_i = w.  A cell keeps its parent's scale, so the same cell reached
by two routes has the same form (L/r/s = L/(rs)).  One search computes a
grid's gcd vector, or None when the grid is not split-generated; a bounded
memo of those results, keyed by grid form, serves is_split_generated, gcd_of,
refines_grid and covering.phi.  Fractions appear only where a Decomposition
is read or built.

Key structural facts used here:
  * any r_i with S refining the single-axis r_i-grid divides L_i, so gcd_of
    can search divisors;
  * the split-feasible grid set is closed under componentwise lcm, and along
    one axis under divisors, so the largest feasible divisor of L_i is the
    gcd grid's entry.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Set, Tuple

Interval = Tuple[Fraction, Fraction]
Region = Tuple[Interval, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Decomposition:
    """A finite set of disjoint open boxes tiling (0,1)^d, in canonical sorted order."""

    d: int
    regions: Tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(sorted(self.regions)))

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)


def unit_region(d: int) -> Region:
    return ((ZERO, ONE),) * d


def trivial_decomposition(d: int) -> Decomposition:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return Decomposition(d, (unit_region(d),))


def split(region: Region, axis: int, arity: int) -> Tuple[Region, ...]:
    """Split a region into `arity` equal open slabs along `axis` (0-based).

    Cut points are lo + j*(hi-lo)/arity for j = 1..arity-1; slabs come back in
    ascending order along the axis.
    """
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    if not 0 <= axis < len(region):
        raise ValueError(f"axis {axis} out of range for dimension {len(region)}")
    lo, hi = region[axis]
    step = (hi - lo) / arity
    parts = []
    for j in range(arity):
        iv = (lo + j * step, lo + (j + 1) * step)
        parts.append(region[:axis] + (iv,) + region[axis + 1:])
    return tuple(parts)


def split_decomposition(dec: Decomposition, region: Region, axis: int, arity: int) -> Decomposition:
    """Replace one region of dec by its arity-fold split along axis."""
    if region not in dec.regions:
        raise ValueError("region is not part of the decomposition")
    rest = tuple(r for r in dec.regions if r != region)
    return Decomposition(dec.d, rest + split(region, axis, arity))


def grid_decomposition(r: Tuple[int, ...]) -> Decomposition:
    """The grid decomposition D_r with r_i equal slabs along axis i."""
    if any(ri < 1 for ri in r):
        raise ValueError(f"grid arities must be >= 1, got {r}")
    axes = [[(Fraction(j, ri), Fraction(j + 1, ri)) for j in range(ri)] for ri in r]
    regions: List[Region] = [()]
    for ivs in axes:
        regions = [reg + (iv,) for reg in regions for iv in ivs]
    return Decomposition(len(r), tuple(regions))


def region_contains(outer: Region, inner: Region) -> bool:
    """Closure containment of open boxes: inner subset of outer."""
    return all(a <= c and d_ <= b for (a, b), (c, d_) in zip(outer, inner))


def regions_overlap(r1: Region, r2: Region) -> bool:
    """Whether two open boxes intersect."""
    return all(max(a, c) < min(b, d_) for (a, b), (c, d_) in zip(r1, r2))


def scale_map(src: Region, dst: Region, region: Region) -> Region:
    """Image of region under the affine map taking box src onto box dst.

    region must lie inside src.
    """
    if not region_contains(src, region):
        raise ValueError("region does not lie inside the source box")
    out = []
    for (a, b), (a2, b2), (lo, hi) in zip(src, dst, region):
        scale = (b2 - a2) / (b - a)
        out.append((a2 + scale * (lo - a), a2 + scale * (hi - a)))
    return tuple(out)


def volume(dec: Decomposition) -> Fraction:
    total = ZERO
    for reg in dec.regions:
        v = ONE
        for lo, hi in reg:
            v *= hi - lo
        total += v
    return total


# ------------------------------------------------------------ integer-grid kernel

Grid = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]  # (L, regions), see the module doc

_MEMO_BOUND = 4096
_memo: Dict[Grid, Optional[Tuple[int, ...]]] = {}  # gcd vectors by grid form, oldest evicted first


def _grid_form(dec: Decomposition) -> Grid:
    """dec on the grid of lcm_of(dec)."""
    Ls = lcm_of(dec)
    return Ls, tuple(tuple(e.numerator * (L // e.denominator) for iv, L in zip(reg, Ls) for e in iv)
                     for reg in dec.regions)


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
    """Coroutine of one grid's gcd search: yields the cells it needs, is sent their gcds.

    Returns the gcd vector, or None unless the grid is split-generated.  One
    region is generated iff it fills its cell; more are iff some axis has an
    r >= 2 whose r cells are generated.  The feasible r on an axis are the
    divisors of the largest, so the scan from the top stops at the gcd's entry.
    """
    Ls, regions = grid
    if len(regions) == 1:
        return (1,) * len(Ls) if regions[0] == tuple(e for L in Ls for e in (0, L)) else None
    out = [1] * len(Ls)
    for axis, L in enumerate(Ls):
        for r in range(min(len(regions), L), 1, -1):
            cells = _cells(grid, axis, r)
            if cells is not None:
                for cell in cells:
                    if (yield cell) is None:
                        break
                else:
                    out[axis] = r
                    break
    return tuple(out) if max(out) > 1 else None


def _gcd(grid: Grid) -> Optional[Tuple[int, ...]]:
    """grid's gcd vector, or None unless it is split-generated.

    A depth-first search on an explicit stack, so deep inputs need no
    recursion.  Every result goes into the memo.
    """
    result = _memo.get(grid)
    stack = [] if grid in _memo else [(grid, _search(grid))]
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
        result = _memo.get(cell)  # None also for a new cell: a fresh search is sent None
        if cell not in _memo:
            stack.append((cell, _search(cell)))
    return result


def is_split_generated(dec: Decomposition) -> bool:
    """Whether dec arises from the trivial decomposition by iterated equal splits.

    Reads the gcd search: results live in a bounded memo shared by all
    callers and keyed by the integer grid form (L, sorted integer regions).
    """
    return _gcd(_grid_form(dec)) is not None


def refines_grid(dec: Decomposition, r: Tuple[int, ...]) -> bool:
    """Whether dec refines D_r in the split order.

    True iff each grid cell contains whole regions only and its restriction,
    rescaled to the unit cube, is split-generated.  Cells are cut axis by axis
    on the integer grid form; their verdicts use the memo of the gcd search.
    """
    if len(r) != dec.d:
        raise ValueError(f"grid vector has length {len(r)}, expected {dec.d}")
    if any(ri < 1 for ri in r):
        raise ValueError(f"grid arities must be >= 1, got {r}")
    grids = [_grid_form(dec)]
    for axis, ri in enumerate(r):
        cells = [_cells(g, axis, ri) for g in grids]
        if None in cells:
            return False
        grids = [cell for cs in cells for cell in cs]
    return all(_gcd(cell) is not None for cell in grids)


def lcm_of(dec: Decomposition) -> Tuple[int, ...]:
    """Componentwise-minimal grid refining dec: lcm of endpoint denominators.

    A grid refines dec iff every endpoint lies on it (the cells inside each
    region then form a product grid, which is always split-generated).
    """
    out = []
    for axis in range(dec.d):
        m = 1
        for reg in dec.regions:
            lo, hi = reg[axis]
            m = lcm(m, lo.denominator, hi.denominator)
        out.append(m)
    return tuple(out)


def gcd_of(dec: Decomposition) -> Tuple[int, ...]:
    """Componentwise-maximal grid that dec refines (split order).

    Per axis, split-feasible r divide lcm_of(dec) and are closed under lcm,
    so the per-axis maximum over divisors is attained and jointly feasible.
    The value is the memoized result of the gcd search behind
    is_split_generated.  Raises ValueError unless dec is split-generated.
    """
    out = _gcd(_grid_form(dec))
    if out is None:
        raise ValueError("the regions are not a split-generated decomposition")
    return out


def restrict_rescale(dec: Decomposition, cell: Region) -> Decomposition:
    """Regions of dec inside cell, rescaled to a decomposition of the unit cube.

    Raises if any region straddles the cell boundary.
    """
    unit = unit_region(dec.d)
    inside = []
    for reg in dec.regions:
        if region_contains(cell, reg):
            inside.append(scale_map(cell, unit, reg))
        elif regions_overlap(cell, reg):
            raise ValueError("a region straddles the cell boundary")
    return Decomposition(dec.d, tuple(inside))


def enumerate_decompositions_up_to(d: int, max_n: int) -> Dict[int, Set[Decomposition]]:
    """All decompositions with at most max_n regions, keyed by region count.

    Brute-force oracle: breadth-first closure of the trivial decomposition
    under single-region splits, deduplicated by canonical form.  A split of
    arity p adds p-1 regions, so from a level-m decomposition arity is capped
    at max_n - m + 1.
    """
    levels: Dict[int, Set[Decomposition]] = {m: set() for m in range(1, max_n + 1)}
    levels[1].add(trivial_decomposition(d))
    for m in range(1, max_n):
        for dec in levels[m]:
            for idx, reg in enumerate(dec.regions):
                rest = dec.regions[:idx] + dec.regions[idx + 1:]
                for axis in range(d):
                    for arity in range(2, max_n - m + 2):
                        new = Decomposition(d, rest + split(reg, axis, arity))
                        levels[m + arity - 1].add(new)
    return levels


def enumerate_decompositions(d: int, n: int) -> Set[Decomposition]:
    """The set S_{d,n} of decompositions with exactly n regions."""
    if n < 1:
        raise ValueError(f"region count must be >= 1, got {n}")
    return enumerate_decompositions_up_to(d, n)[n]


def decomposition_to_json_dict(dec: Decomposition) -> dict:
    """JSON form with exact endpoints as "num/den" strings."""
    return {
        "d": dec.d,
        "regions": [[[str(lo), str(hi)] for lo, hi in region] for region in dec.regions],
    }


def decomposition_from_json_dict(data: dict) -> Decomposition:
    """Inverse of decomposition_to_json_dict.

    Raises ValueError on a malformed shape or a missing field, on a d that is
    not a JSON integer, on an endpoint that is neither a JSON string nor a
    JSON integer, and on an interval that does not satisfy 0 <= lo < hi <= 1.
    That the boxes tile the cube and are split generated is not checked here.
    """
    def endpoint(e) -> Fraction:
        if type(e) not in (str, int):  # a bool is not a number; a float 0.1 is not 1/10
            raise TypeError(f"endpoint {e!r} is not a string or an integer")
        return Fraction(e)

    try:
        d = data["d"]
        regions = tuple(
            tuple((endpoint(lo), endpoint(hi)) for lo, hi in region)
            for region in data["regions"]
        )
    except (TypeError, ZeroDivisionError) as exc:  # a non-sequence, or "1/0"
        raise ValueError(f"malformed decomposition JSON: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"malformed decomposition JSON: missing field {exc}") from None
    if type(d) is not int:
        raise ValueError(f"a decomposition needs an integer d, got {d!r}")
    if d < 1 or not regions:
        raise ValueError("a decomposition needs d >= 1 and at least one region")
    for region in regions:
        if len(region) != d:
            raise ValueError(f"region {region} does not have {d} intervals")
        for lo, hi in region:
            if not ZERO <= lo < hi <= ONE:
                raise ValueError(f"interval ({lo}, {hi}) does not satisfy 0 <= lo < hi <= 1")
    return Decomposition(d, regions)
