"""Natural exact covering systems (NECS) and their bijection with interval splits.

An exact covering system is a finite set of residue classes a mod n that
partition the integers.  The natural ones are those reachable from {0 mod 1}
by repeatedly replacing one class a mod n with its r-fold split
{a + i*n mod r*n : 0 <= i < r}.  C_m denotes the natural systems with m
classes.

`phi` realizes the bijection S_{1,m} -> C_m: an interval decomposition S with
gcd r decomposes into r blocks, and block j's sub-system lifts by
a mod n -> j + r*a mod r*n, which multiplies each modulus by r and hence
preserves the componentwise gcd and lcm of the two worlds.
"""

from math import gcd as _gcd, lcm as _lcm
from typing import Dict, List, NamedTuple, Set, Tuple

from . import geometry
from ._frozen import Frozen


class ResidueClass(NamedTuple):
    a: int
    n: int


class Necs(Frozen):
    """A natural exact covering system, classes sorted by (modulus, representative).  Frozen."""

    __slots__ = ("classes",)

    def __init__(self, classes: Tuple[ResidueClass, ...]):
        object.__setattr__(self, "classes", tuple(sorted(classes, key=lambda c: (c.n, c.a))))

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


def make_class(a: int, n: int) -> ResidueClass:
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    return ResidueClass(a % n, n)


def trivial_necs() -> Necs:
    return Necs((ResidueClass(0, 1),))


def split_class(c: ResidueClass, r: int) -> Tuple[ResidueClass, ...]:
    """The r classes a + i*n mod r*n partitioning a mod n."""
    if r < 2:
        raise ValueError(f"split arity must be >= 2, got {r}")
    return tuple(ResidueClass(i * c.n + c.a, r * c.n) for i in range(r))


def split_necs(system: Necs, c: ResidueClass, r: int) -> Necs:
    if c not in system.classes:
        raise ValueError("class is not part of the system")
    rest = tuple(x for x in system.classes if x != c)
    return Necs(rest + split_class(c, r))


def classes_intersect(c1: ResidueClass, c2: ResidueClass) -> bool:
    """CRT: a mod n and b mod m share an integer iff a = b mod gcd(n, m)."""
    return (c1.a - c2.a) % _gcd(c1.n, c2.n) == 0


def is_exact_cover(classes: Tuple[ResidueClass, ...]) -> bool:
    """Pairwise disjoint and densities summing to 1 (hence a partition of Z)."""
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if classes_intersect(classes[i], classes[j]):
                return False
    from fractions import Fraction

    return sum(Fraction(1, c.n) for c in classes) == 1


def necs_gcd(system: Necs) -> int:
    return _gcd(*(c.n for c in system.classes)) if system.classes else 1


def necs_lcm(system: Necs) -> int:
    return _lcm(*(c.n for c in system.classes)) if system.classes else 1


def enumerate_necs_up_to(max_m: int) -> Dict[int, Set[Necs]]:
    """All natural exact covering systems with at most max_m classes, by size.

    Brute-force oracle mirroring the decomposition enumerator: closure of
    {0 mod 1} under single-class splits, deduplicated canonically.
    """
    levels: Dict[int, Set[Necs]] = {m: set() for m in range(1, max_m + 1)}
    levels[1].add(trivial_necs())
    for m in range(1, max_m):
        for system in levels[m]:
            for idx, c in enumerate(system.classes):
                rest = system.classes[:idx] + system.classes[idx + 1:]
                for r in range(2, max_m - m + 2):
                    levels[m + r - 1].add(Necs(rest + split_class(c, r)))
    return levels


def enumerate_necs(m: int) -> Set[Necs]:
    """The set C_m of natural exact covering systems with exactly m classes."""
    if m < 1:
        raise ValueError(f"class count must be >= 1, got {m}")
    return enumerate_necs_up_to(m)[m]


def phi(dec: "geometry.Decomposition") -> Necs:
    """The bijection from 1-dimensional decompositions to natural covering systems.

    With r the gcd of dec, the part of dec in block (j/r, (j+1)/r) rescales to
    a smaller decomposition whose classes lift by a mod n -> j + r*a mod r*n.
    Lifts compose to a mod n -> A + M*a mod M*n, so an explicit stack holds
    (block in the integer grid form of geometry, A, M); a one-region block is
    the class A mod M.  Each internal block's children are the blocks of its
    record in the memoized gcd search that also answers is_split_generated and gcd_of.
    """
    if dec.d != 1:
        raise ValueError(f"phi is defined on 1-dimensional decompositions, got d={dec.d}")
    if len(dec.grid) == 1 and (dec.Ls, dec.grid) != ((1,), ((0, 1),)):
        raise ValueError("a one-region decomposition must be the unit interval (0, 1)")
    classes: List[Tuple[int, int]] = []  # (n, a), which sorts in Necs order
    stack = [((dec.Ls, dec.grid), 0, 1)]
    while stack:
        grid, a, m = stack.pop()
        if len(grid[1]) == 1:
            classes.append((m, a))
            continue
        record = geometry._gcd(grid)
        if record is None:
            raise ValueError("a nontrivial decomposition must have gcd >= 2")
        blocks = record[1]
        stack.extend((block, a + m * j, m * len(blocks)) for j, block in enumerate(blocks))
    system = object.__new__(Necs)  # the classes are in Necs order: no second sort
    object.__setattr__(system, "classes", tuple(ResidueClass(a, n) for n, a in sorted(classes)))
    return system


def necs_to_json_dict(system: Necs) -> dict:
    return {"classes": [{"a": c.a, "n": c.n} for c in system.classes]}


def necs_from_json_dict(data: dict) -> Necs:
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
    classes = tuple(make_class(a, n) for a, n in pairs)
    if not is_exact_cover(classes):
        raise ValueError("the classes are not an exact covering system")
    return Necs(classes)
