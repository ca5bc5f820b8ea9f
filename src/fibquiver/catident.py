"""Exact-sequence style identities, checked as tree-vector equalities.

Every check here verifies that one oracle-built vector equals a sum of
smaller oracle-built vectors, entry by entry in exact integers, plus the
scalar Fibonacci identity that the vector identity shadows.

Reports are plain values listing each sub-check with a pass flag so a
caller (or the CLI) can print the first counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import reflect
from .errors import NotNeighbors, OracleCapExceeded
from .fibcore import fib
from .reflect import ORACLE_CAP, TreeVector
from .tree import BASE, Vertex, distance, neighbors


@dataclass(frozen=True)
class PathSpec:
    """A non-backtracking path x_0 .. x_t, with optional anchor vertices
    x_{-1} (before) and x_{t+1} (after)."""

    vertices: tuple[Vertex, ...]
    before: Optional[Vertex] = None
    after: Optional[Vertex] = None

    def __post_init__(self):
        seq = self.full()
        if not seq:
            raise ValueError("empty path")
        for a, b in zip(seq, seq[1:]):
            if distance(a, b) != 1:
                raise NotNeighbors(f"path vertices {a!r}, {b!r} are not neighbors")
        for a, b, c in zip(seq, seq[1:], seq[2:]):
            if a == c:
                raise ValueError(f"path backtracks at {b!r}")

    def full(self) -> list[Vertex]:
        seq = list(self.vertices)
        if self.before is not None:
            seq.insert(0, self.before)
        if self.after is not None:
            seq.append(self.after)
        return seq


class Check(NamedTuple):
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class IdentityReport:
    name: str
    t: int
    path: Optional[PathSpec]
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def first_failure(self) -> Optional[Check]:
        for c in self.checks:
            if not c.ok:
                return c
        return None


def third_neighbor(v: Vertex, a: Vertex, b: Vertex) -> Vertex:
    """The neighbor of v distinct from both a and b."""
    rest = [n for n in neighbors(v) if n not in (a, b)]
    if len(rest) != 1:
        raise ValueError(f"{a!r}, {b!r} are not two distinct neighbors of {v!r}")
    return rest[0]


def straight_path(n: int, start: Vertex = BASE, letter: str = "0") -> list[Vertex]:
    """n vertices walking away from start along one repeated child letter."""
    out = [start]
    for _ in range(n - 1):
        out.append(out[-1] + letter if out[-1] else letter)
    return out


def random_path(n: int, rng: random.Random, start: Vertex = BASE) -> list[Vertex]:
    """n vertices of a non-backtracking walk; may pass through the base."""
    out = [start]
    prev: Optional[Vertex] = None
    cur = start
    for _ in range(n - 1):
        options = neighbors(cur) if prev is None else [w for w in neighbors(cur) if w != prev]
        nxt = rng.choice(options)
        out.append(nxt)
        prev, cur = cur, nxt
    return out


def path_variants(n: int, count: int = 3, seed: int = 0) -> list[list[Vertex]]:
    """At most `count` distinct n-vertex paths with different turn shapes:
    the all-left ray, an alternating zigzag, a walk through the base, then
    seeded random walks from the base. Short paths admit fewer shapes than
    asked for, so drawing stops once none is left, and the draw attempts
    are bounded."""
    if count < 1:
        raise ValueError(f"path count must be positive, got {count}")
    variants: list[list[Vertex]] = [straight_path(n)]

    zig = [BASE]
    for i in range(n - 1):
        zig.append(zig[-1] + ("0" if i % 2 == 0 else "1") if zig[-1] else "0")
    variants.append(zig)

    if n >= 3:
        through = ["1", BASE, "2"]
        while len(through) < n:
            through.append(through[-1] + "0")
        variants.append(through[:n])
    else:
        variants.append(straight_path(n, letter="2"))

    seen: set[tuple[Vertex, ...]] = set()
    unique: list[list[Vertex]] = []

    def push(walk: list[Vertex]) -> None:
        key = tuple(walk)
        if key not in seen:
            seen.add(key)
            unique.append(walk)

    for v in variants:
        push(v)
    # The n-vertex walks from the base, plus the walk through it from "1".
    shapes = 1 if n < 2 else 3 * 2 ** (n - 2) + (n >= 3)
    rng = random.Random(seed)
    for _ in range(50 * count):
        if len(unique) >= min(count, shapes):
            break
        push(random_path(n, rng))
    return unique[:count]


def _vector_eq_check(label: str, lhs: TreeVector, rhs: TreeVector) -> Check:
    if lhs.equals(rhs):
        return Check(label, True)
    diff = lhs.subtract(rhs)
    v = diff.support()[0]
    return Check(label, False, f"first differing vertex {v!r}: lhs {lhs.value(v)}, rhs {rhs.value(v)}")


def check_prop41(t: int, *, y_letter: str = "0", cap: int = ORACLE_CAP) -> IdentityReport:
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

    s_t = reflect.s_vec_at(t, x, cap=cap)
    r_t = reflect.r_vec_at(t, x, y, cap=cap)
    checks = (
        _vector_eq_check(
            "vertex-splits-into-neighbor-plus-edge",
            s_t,
            reflect.s_vec_at(t - 1, y, cap=cap).add(r_t),
        ),
        _vector_eq_check(
            "edge-splits-into-neighbor-plus-turned-edge",
            r_t,
            reflect.s_vec_at(t - 1, y2, cap=cap).add(reflect.r_vec_at(t - 1, y3, x, cap=cap)),
        ),
        Check(
            "scalar-shadow",
            fib(2 * t + 2) == fib(2 * t) + fib(2 * t + 1)
            and fib(2 * t) == fib(2 * t - 2) + fib(2 * t - 1),
        ),
    )
    return IdentityReport("prop41", t, PathSpec((x, y)), checks)


def check_cor42(t: int, path: Optional[PathSpec] = None, *, cap: int = ORACLE_CAP) -> IdentityReport:
    """Filtration identity along a path x_0 .. x_t: the step-t vector at the
    far end equals the unit at the start plus the edge vectors picked up one
    step at a time. Scalar shadow: f(2t) is the sum of the first t odd-index
    Fibonacci numbers."""
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    if path is None:
        path = PathSpec(tuple(straight_path(t + 1)))
    xs = path.vertices
    if len(xs) != t + 1:
        raise ValueError(f"need {t + 1} path vertices for t={t}, got {len(xs)}")

    total = reflect.unit(xs[0])
    for i in range(1, t + 1):
        total = total.add(reflect.r_vec_at(i, xs[i], xs[i - 1], cap=cap))
    checks = (
        _vector_eq_check("filtration-sum", reflect.s_vec_at(t, xs[t], cap=cap), total),
        Check("scalar-shadow", fib(2 * t) == sum(fib(2 * i - 1) for i in range(1, t + 1))),
    )
    return IdentityReport("cor42", t, path, checks)


def check_cor43(t: int, path: Optional[PathSpec] = None, *, cap: int = ORACLE_CAP) -> IdentityReport:
    """Side-branch identity along an anchored path x_{-1} .. x_{t+1}: the
    step-(t+1) edge vector at the far end equals the starting edge vector
    plus one vertex vector grown at each side branch z_i. Scalar shadow:
    f(2t+1) = 1 + sum of the first t even-index Fibonacci numbers."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t + 1 > cap:
        raise OracleCapExceeded(t + 1, cap)
    if path is None:
        walk = straight_path(t + 3)
        path = PathSpec(tuple(walk[1:-1]), before=walk[0], after=walk[-1])
    xs = path.vertices
    if len(xs) != t + 1 or path.before is None or path.after is None:
        raise ValueError(f"need anchors and {t + 1} interior vertices for t={t}")
    full = path.full()

    total = reflect.edge_unit(path.before, xs[0])
    for i in range(t + 1):
        z = third_neighbor(full[i + 1], full[i], full[i + 2])
        total = total.add(reflect.s_vec_at(i, z, cap=cap))
    checks = (
        _vector_eq_check(
            "side-branch-sum", reflect.r_vec_at(t + 1, xs[t], path.after, cap=cap), total
        ),
        Check("scalar-shadow", fib(2 * t + 1) == 1 + sum(fib(2 * i) for i in range(1, t + 1))),
    )
    return IdentityReport("cor43", t, path, checks)
