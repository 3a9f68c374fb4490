"""Labelled plane rooted trees and the tree-to-decomposition map.

A tree is a nested tuple: a leaf is the empty tuple ``()``, and an internal
node is ``(label, child_1, ..., child_r)`` with ``label`` in 1..d and r >= 2.
Trees with n leaves map onto n-region decompositions of the d-cube: the root's
label picks an axis, its arity picks an equal split along that axis, and the
children recurse into the resulting slabs from the low end up.  The map is
onto but not injective (an axis-i split of every slab of an axis-i split can
be reparenthesised, and two nested single-axis splits along different axes
commute), so leaf counts t_d(n) strictly dominate the decomposition counts
from n = 4 on.

For d = 1 the labels carry no information and t_1(n) is the n-th small
Schroeder number (1, 1, 3, 11, 45, 197, ...).
"""

from __future__ import annotations

from math import lcm
from operator import add, mul
from typing import List, Tuple

from . import _on_first_use
from .geometry import Decomposition, _decomposition
from .series import TruncatedSeries

# Names that no table command or session call uses live in _oracles, loaded on first read.
__getattr__ = _on_first_use(globals(), {"_oracles": (
        "is_leaf", "leaf_count", "validate_tree", "format_tree", "tree_to_json", "tree_from_json",
        "enumerate_trees")})

PlaneTree = Tuple  # () for a leaf, (label, *children) otherwise

LEAF: PlaneTree = ()


def _children(node, d: int):
    """node[1:], once node is checked: a leaf, or a label in 1..d over >= 2 children."""
    if len(node):  # not a leaf
        if type(node[0]) is not int or not 1 <= node[0] <= d:  # bool is an int subclass
            raise ValueError(f"internal node label {node[0]!r} outside 1..{d}")
        if len(node) < 3:
            raise ValueError("internal node must have at least 2 children")
    return node[1:]


def tree_counts(d: int, max_n: int) -> TruncatedSeries:
    """Leaf-count series T with coefficient[n] = t_d(n), truncated at max_n.

    T satisfies T = x + d T^2 / (1 - T) (a root is a leaf, or one of d labels
    over at least two ordered subtrees); clearing the denominator gives
    T = x - xT + (d+1) T^2, so t_d(1) = 1 and t_d(2) = d.

    T is algebraic, so its coefficients satisfy a linear recurrence with
    polynomial coefficients (Stanley, "Differentiably finite power series",
    Europ. J. Combin. 1980).  Put U = 2(d+1)T - (1+x); the quadratic gives
    U^2 = D = 1 - 2(2d+1)x + x^2, so 2 D U' = D' U.  T is affine in U, and
    reading off [x^n] gives, for n >= 2,

        (n+1) t_d(n+1) = (2d+1)(2n-1) t_d(n) - (n-2) t_d(n-1),

    whose t_d(n-1) term vanishes at n = 2.  For d = 1 this is the little
    Schroeder recurrence.  Each step is O(1) big-integer operations.
    """
    if d < 1 or max_n < 0:
        raise ValueError("need d >= 1 and max_n >= 0")
    t = [0, 1, d][:max_n + 1] + [0] * (max_n - 2)
    for n in range(2, max_n):
        q, r = divmod((2 * d + 1) * (2 * n - 1) * t[n] - (n - 2) * t[n - 1], n + 1)
        if r:
            raise ArithmeticError(f"tree count recurrence at n={n + 1} not divisible by {n + 1}")
        t[n + 1] = q
    return TruncatedSeries(tuple(t))


def psi(tree: PlaneTree, d: int) -> Decomposition:
    """Decomposition obtained by splitting along the root label's axis and recursing.

    The root's r children land in the r slabs of the axis split, ascending.  A stack
    holds (node, box), box = (k_1, den_1, ..., k_d, den_d) for the slabs
    (k_i/den_i, (k_i+1)/den_i), and checks each node in preorder as validate_tree
    does.  A leaf's ends on axis i are k_i L_i/den_i, (k_i+1) L_i/den_i, L_i = lcm(den_i).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    leaves, stack = [], [(tree, (0, 1) * d)]
    while stack:
        node, box = stack.pop()
        children = _children(node, d)
        if not children:  # a leaf
            leaves.append(box)
            continue
        i, r = 2 * node[0] - 2, len(children)
        k, den, head, tail = box[i] * r, box[i + 1] * r, box[:i], box[i + 2:]
        stack += [(children[j], head + (k + j, den) + tail) for j in range(r - 1, -1, -1)]
    cols = list(zip(*leaves))  # k_1, den_1, ..., k_d, den_d over the leaves
    Ls = tuple(lcm(*dens) for dens in cols[1::2])
    ends = []  # lo_1, hi_1, ..., lo_d, hi_d: their gcd divides each L_i/den_i, so it is 1
    for ks, dens, L in zip(cols[::2], cols[1::2], Ls):
        widths = [L // den for den in dens]
        lo = list(map(mul, ks, widths))
        ends += lo, map(add, lo, widths)
    return _decomposition(d, Ls, tuple(sorted(zip(*ends))))


def parse_tree(text: str) -> PlaneTree:
    """Inverse of format_tree; raises ValueError on malformed input.

    Open nodes wait on an explicit stack, so any nesting depth parses.
    """
    tokens = iter(text.replace("(", " ( ").replace(")", " ) ").split())
    open_nodes: List[list] = []  # [label, child, ...] of each node not yet closed
    for tok in tokens:
        if tok == ")" and open_nodes:
            tree = tuple(open_nodes.pop())
            if len(tree) < 3:
                raise ValueError("internal node must have at least 2 children")
        elif tok == "L":
            tree = LEAF
        elif tok == "(":
            label = next(tokens, "")
            if not label.isdigit():
                raise ValueError("expected integer label after '('")
            open_nodes.append([int(label)])
            continue
        else:
            raise ValueError(f"expected 'L' or '(', got {tok!r}")
        if not open_nodes:
            rest = " ".join(tokens)
            if rest:
                raise ValueError(f"trailing tokens after tree: {rest}")
            return tree
        open_nodes[-1].append(tree)
    raise ValueError("missing ')'" if open_nodes else "unexpected end of input")
