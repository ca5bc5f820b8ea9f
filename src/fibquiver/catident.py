"""Exact-sequence style identities, checked as tree-vector equalities.

Every check here verifies that one oracle-built vector equals a sum of
smaller oracle-built vectors, entry by entry in exact integers, plus the
scalar Fibonacci identity that the vector identity shadows.

A path is a plain walk, a sequence of vertices each a neighbor of the last
that never steps straight back: x_0 .. x_t for Cor. 4.2, and x_{-1} ..
x_{t+1} for Cor. 4.3, whose anchors are the walk's two ends. Each check
returns None when every identity holds, else the first failure's text (the
identity's name and any detail): the counterexample a caller prints. A check
draws its vectors from the `families` table it is given, under that table's
oracle cap, so a suite that hands every check one table grows each vector
family once. A far end, asked for once per check, is grown outside the table.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional, Sequence

from . import reflect, tree
from .fibcore import fib
from .reflect import Families, TreeVector
from .tree import BASE, Vertex, distance, neighbors


def require_walk(walk: Sequence[Vertex], n: int) -> tuple[Vertex, ...]:
    """The walk as a tuple, once it is known to have n vertices, each a word
    and a neighbor of the last, and never to step straight back."""
    walk = tuple(walk)
    if len(walk) != n:
        raise ValueError(f"need {n} walk vertices, got {len(walk)}")
    for v in walk:
        tree.code(v)
    for a, b in zip(walk, walk[1:]):
        if distance(a, b) != 1:
            raise ValueError(f"path vertices {a!r}, {b!r} are not neighbors")
    for a, b, c in zip(walk, walk[1:], walk[2:]):
        if a == c:
            raise ValueError(f"path backtracks at {b!r}")
    return walk


def straight_path(n: int, letter: str = "0") -> list[Vertex]:
    """n vertices walking away from the base along one repeated child letter:
    the prefixes of one word, since the base is the empty word."""
    return [letter * i for i in range(n)]


def path_variants(n: int) -> list[list[Vertex]]:
    """The distinct n-vertex walks among the straight walk from the base,
    the zigzag, the walk through the base and the walk along "1", at most
    three in that order. Only n = 2 needs the last: there the zigzag is the
    straight walk."""
    zig = [("01" * n)[:i] for i in range(n)]
    through = ["1", BASE, *("2" + "0" * i for i in range(n - 2))] if n >= 3 else straight_path(n, letter="2")
    walks = (straight_path(n), zig, through, straight_path(n, letter="1"))
    return [list(w) for w in dict.fromkeys(map(tuple, walks))][:3]


def _sum_check(label: str, lhs: TreeVector, terms: Sequence[TreeVector]) -> Optional[str]:
    """None when lhs is the sum of the terms, else the first vertex, in code
    order, where the two sides differ. The sides are compared by code, so a
    faulty vector holding a code that names no vertex is reported as such."""
    rhs = reduce(TreeVector.add, terms)
    if lhs.equals(rhs):
        return None
    a, b = lhs._entries, rhs._entries
    c = min(c for c in a.keys() | b.keys() if a.get(c, 0) != b.get(c, 0))
    try:
        where = f"vertex {tree.word(c)!r}"
    except KeyError:
        where = f"code {c}, which names no vertex"
    return f"{label} first differing {where}: lhs {a.get(c, 0)}, rhs {b.get(c, 0)}"


def _scalar_shadow(holds: bool) -> Optional[str]:
    return None if holds else "scalar-shadow"


def check_prop41(t: int, families: Families, *, y_letter: str = "0") -> Optional[str]:
    """Two peeling identities at the base vertex x with marked neighbor y:
    the step-t vertex vector is the step-(t-1) vector at y plus the step-t
    edge vector, and the edge vector peels into the step-(t-1) vector at a
    second neighbor plus the step-(t-1) edge vector entering from the third.
    """
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    x = BASE
    y = y_letter
    letters = neighbors(x)
    if y not in letters:
        raise ValueError(f"y_letter must be one of {letters}, got {y!r}")
    y2, y3 = [n for n in letters if n != y]

    s_t = families.s_vec_at(t, x)
    r_t = families.r_vec_at(t, x, y)
    return (
        _sum_check("vertex-splits-into-neighbor-plus-edge", s_t, [families.s_vec_at(t - 1, y), r_t])
        or _sum_check("edge-splits-into-neighbor-plus-turned-edge", r_t,
                      [families.s_vec_at(t - 1, y2), families.r_vec_at(t - 1, y3, x)])
        or _scalar_shadow(
            fib(2 * t + 2) == fib(2 * t) + fib(2 * t + 1)
            and fib(2 * t) == fib(2 * t - 2) + fib(2 * t - 1)
        )
    )


def check_cor42(t: int, walk: Sequence[Vertex], families: Families) -> Optional[str]:
    """Filtration identity along a walk x_0 .. x_t: the step-t vector at the
    far end equals the unit at the start plus the edge vectors picked up one
    step at a time. Scalar shadow: f(2t) is the sum of the first t odd-index
    Fibonacci numbers."""
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    xs = require_walk(walk, t + 1)

    terms = [reflect.unit(xs[0])] + [families.r_vec_at(i, xs[i], xs[i - 1]) for i in range(1, t + 1)]
    return (
        _sum_check("filtration-sum", reflect.s_vec_at(t, xs[t], cap=families.cap), terms)
        or _scalar_shadow(fib(2 * t) == sum(fib(2 * i - 1) for i in range(1, t + 1)))
    )


def check_cor43(t: int, walk: Sequence[Vertex], families: Families) -> Optional[str]:
    """Side-branch identity along an anchored walk x_{-1} .. x_{t+1}, given
    as its t+3 vertices: the step-(t+1) edge vector at the far end equals the
    starting edge vector plus one vertex vector grown at each side branch
    z_i. Scalar shadow: f(2t+1) = 1 + sum of the first t even-index
    Fibonacci numbers."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    xs = require_walk(walk, t + 3)

    # z_i is the one neighbor of x_{i+1} outside (x_i, x_{i+2}).
    zs = [next(z for z in neighbors(xs[i + 1]) if z not in (xs[i], xs[i + 2])) for i in range(t + 1)]
    terms = [reflect.edge_unit(xs[0], xs[1])] + [families.s_vec_at(i, z) for i, z in enumerate(zs)]
    return (
        _sum_check("side-branch-sum", reflect.r_vec_at(t + 1, xs[t + 1], xs[t + 2], cap=families.cap), terms)
        or _scalar_shadow(fib(2 * t + 1) == 1 + sum(fib(2 * i) for i in range(1, t + 1)))
    )
