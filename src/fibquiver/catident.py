"""Exact-sequence style identities, checked as tree-vector equalities.

Each identity is stated once, as data: a label, an lhs term and the terms
whose sum it must equal. A term is ("s", i, x) for s_i(x), the vector grown
from unit(x) by i reflection waves, or ("r", i, x, y) for r_i(x, y), grown
from edge_unit(x, y). One evaluator checks every statement: the lhs vector
must equal the sum of the term vectors, entry by entry in exact integers,
and then push down to the 3-Kronecker quiver as the paper's pair: its parity
sums measured from its center must be the pair `fibcore.family_index` names,
as `classify_pair` reads it.

A path is a plain walk, a sequence of vertices each a neighbor of the last
that never steps straight back: x_0 .. x_t for Cor. 4.2, and x_{-1} ..
x_{t+1} for Cor. 4.3, whose anchors are the walk's two ends. Each check
returns None when every identity holds, else the first failure's text (the
identity's name and any detail): the counterexample a caller prints. A check
reads every term, a walk's far end included, as `families.at(i, *words)`
from the table it is given, under that table's oracle cap, so a suite that
hands every check one table grows each vector family once.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional, Sequence

from . import reflect, tree
from .fibcore import EVEN_PAIR, ODD_PAIR, UP, classify_pair, family_index
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


def _sum_check(label: str, lhs: reflect.TreeVector, terms: Sequence[reflect.TreeVector]) -> Optional[str]:
    """None when lhs is the sum of the terms, else the first vertex, in code
    order, where the two sides differ. The sides are compared by code, so a
    faulty vector holding a code that names no vertex is reported as such,
    and class by class, so an entry held in the color class of the other
    depth parity is named with the class that holds it."""
    rhs = reduce(reflect.TreeVector.add, terms)
    if lhs.equals(rhs):
        return None
    c = min(c for a, b in zip(lhs._classes, rhs._classes)
            for c in a.keys() | b.keys() if a.get(c, 0) != b.get(c, 0))
    try:
        where = f"vertex {tree.word(c)!r}"
    except ValueError:
        where = f"code {c}, which names no vertex"
    own = c.bit_length() & 1
    x, y = lhs._classes[own].get(c, 0), rhs._classes[own].get(c, 0)
    failure = f"{label} first differing {where}: lhs {x}, rhs {y}"
    for side, vec in (("lhs", lhs), ("rhs", rhs)):
        if c in vec._classes[1 - own]:
            failure += f"; the {side} holds {vec._classes[1 - own][c]} there in the {('odd', 'even')[own]}-depth class"
    return failure


def _check(families: reflect.Families, statements: Sequence[tuple]) -> Optional[str]:
    """None when every (label, lhs, terms) statement holds, else the first
    failure's text. Each lhs is checked against the sum of its terms, then,
    once all sums hold, pushed down: its parity sums measured from its
    center must be read by the classifier as the pair of `family_index`."""
    vecs = [families.at(*lhs[1:]) for _, lhs, _ in statements]
    for (label, _, terms), vec in zip(statements, vecs):
        failure = _sum_check(label, vec, [families.at(*term[1:]) for term in terms])
        if failure:
            return failure
    for (label, (kind, i, x, *_), _), vec in zip(statements, vecs):
        n, p = family_index(i, kind == "r"), reflect.parity_sums(vec, i + len(x))
        want = ODD_PAIR if n % 2 else EVEN_PAIR
        if classify_pair(p) != (want, (n, UP, False)):
            return f"{label} push-down {p} is not the {want} (f({n}), f({n + 2}))"
    return None


def check_prop41(t: int, families: reflect.Families, *, y_letter: str = "0") -> Optional[str]:
    """Two peeling identities at the base vertex x with marked neighbor y:
    s_t(x) = s_{t-1}(y) + r_t(x, y), and r_t(x, y) = s_{t-1}(y2) +
    r_{t-1}(y3, x) for the other two neighbors y2, y3 of x."""
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    x, y = BASE, y_letter
    letters = neighbors(x)
    if y not in letters:
        raise ValueError(f"y_letter must be one of {letters}, got {y!r}")
    y2, y3 = [n for n in letters if n != y]
    return _check(families, [
        ("vertex-splits-into-neighbor-plus-edge", ("s", t, x), [("s", t - 1, y), ("r", t, x, y)]),
        ("edge-splits-into-neighbor-plus-turned-edge", ("r", t, x, y), [("s", t - 1, y2), ("r", t - 1, y3, x)]),
    ])


def check_cor42(t: int, walk: Sequence[Vertex], families: reflect.Families) -> Optional[str]:
    """Filtration identity along a walk x_0 .. x_t: s_t(x_t) = s_0(x_0) +
    the sum of r_i(x_i, x_{i-1}) over i = 1 .. t."""
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    xs = require_walk(walk, t + 1)
    terms = [("s", 0, xs[0])] + [("r", i, xs[i], xs[i - 1]) for i in range(1, t + 1)]
    return _check(families, [("filtration-sum", ("s", t, xs[t]), terms)])


def check_cor43(t: int, walk: Sequence[Vertex], families: reflect.Families) -> Optional[str]:
    """Side-branch identity along an anchored walk x_{-1} .. x_{t+1}, given
    as its t+3 vertices: r_{t+1}(x_t, x_{t+1}) = r_0(x_{-1}, x_0) + the sum
    of s_i(z_i) over i = 0 .. t, z_i the side branch at x_i."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    xs = require_walk(walk, t + 3)

    # z_i is the one neighbor of x_{i+1} outside (x_i, x_{i+2}).
    zs = [next(z for z in neighbors(xs[i + 1]) if z not in (xs[i], xs[i + 2])) for i in range(t + 1)]
    terms = [("r", 0, xs[0], xs[1])] + [("s", i, z) for i, z in enumerate(zs)]
    return _check(families, [("side-branch-sum", ("r", t + 1, xs[t + 1], xs[t + 2]), terms)])
