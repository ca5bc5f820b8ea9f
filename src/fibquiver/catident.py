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

from typing import Optional, Sequence

from . import reflect
from .errors import NotNeighbors
from .fibcore import fib
from .reflect import Families, TreeVector
from .tree import BASE, Vertex, distance, neighbors


def require_walk(walk: Sequence[Vertex], n: int) -> tuple[Vertex, ...]:
    """The walk as a tuple, once it is known to have n vertices, each a
    neighbor of the last, and never to step straight back."""
    walk = tuple(walk)
    if len(walk) != n:
        raise ValueError(f"need {n} walk vertices, got {len(walk)}")
    for a, b in zip(walk, walk[1:]):
        if distance(a, b) != 1:
            raise NotNeighbors(f"path vertices {a!r}, {b!r} are not neighbors")
    for a, b, c in zip(walk, walk[1:], walk[2:]):
        if a == c:
            raise ValueError(f"path backtracks at {b!r}")
    return walk


def third_neighbor(v: Vertex, a: Vertex, b: Vertex) -> Vertex:
    """The neighbor of v distinct from both a and b."""
    rest = [n for n in neighbors(v) if n not in (a, b)]
    if len(rest) != 1:
        raise ValueError(f"{a!r}, {b!r} are not two distinct neighbors of {v!r}")
    return rest[0]


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


def _vector_eq_check(label: str, lhs: TreeVector, rhs: TreeVector) -> Optional[str]:
    if lhs.equals(rhs):
        return None
    diff = lhs.subtract(rhs)
    v = diff.support()[0]
    return f"{label} first differing vertex {v!r}: lhs {lhs.value(v)}, rhs {rhs.value(v)}"


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
    y2, y3 = [n for n in neighbors(x) if n != y]

    s_t = families.s_vec_at(t, x)
    r_t = families.r_vec_at(t, x, y)
    return (
        _vector_eq_check(
            "vertex-splits-into-neighbor-plus-edge",
            s_t,
            families.s_vec_at(t - 1, y).add(r_t),
        )
        or _vector_eq_check(
            "edge-splits-into-neighbor-plus-turned-edge",
            r_t,
            families.s_vec_at(t - 1, y2).add(families.r_vec_at(t - 1, y3, x)),
        )
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

    total = reflect.unit(xs[0])
    for i in range(1, t + 1):
        total = total.add(families.r_vec_at(i, xs[i], xs[i - 1]))
    return (
        _vector_eq_check("filtration-sum", reflect.s_vec_at(t, xs[t], cap=families.cap), total)
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

    total = reflect.edge_unit(xs[0], xs[1])
    for i in range(t + 1):
        z = third_neighbor(xs[i + 1], xs[i], xs[i + 2])
        total = total.add(families.s_vec_at(i, z))
    return (
        _vector_eq_check("side-branch-sum", reflect.r_vec_at(t + 1, xs[t + 1], xs[t + 2], cap=families.cap), total)
        or _scalar_shadow(fib(2 * t + 1) == 1 + sum(fib(2 * i) for i in range(1, t + 1)))
    )
