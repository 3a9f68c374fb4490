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
from typing import List, NamedTuple, Tuple

from . import _on_first_use, geometry
from ._frozen import Frozen

# Names that no table command or session call uses live in _oracles, loaded on first read.
__getattr__ = _on_first_use(globals(), {"_oracles": (
        "make_class", "trivial_necs", "split_class", "split_necs", "classes_intersect",
        "is_exact_cover", "necs_from_json_dict", "enumerate_necs_up_to", "enumerate_necs")})


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


def necs_gcd(system: Necs) -> int:
    return _gcd(*(c.n for c in system.classes)) if system.classes else 1


def necs_lcm(system: Necs) -> int:
    return _lcm(*(c.n for c in system.classes)) if system.classes else 1


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
