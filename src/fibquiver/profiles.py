"""Compressed profiles: O(t^2) counterparts of the exponential tree vectors.

A vector grown from a single vertex is radially symmetric, so one integer
per distance class suffices; a vector grown from an edge takes two values
per distance, split by whether the path from the center runs through the
marked neighbor. Signed classes encode the split: class s >= 0 holds the
2**s vertices at distance s away from the marked side, class -s (s >= 1)
the 2**(s-1) vertices at distance s behind it.

Both class systems are equitable partitions of the tree: every vertex of
class s has the same number w(s, s-1), w(s, s+1) of neighbors in each
adjacent class. One reflection wave on the class line (`wave`) therefore
serves both profiles, read with the RADIAL or the SIGNED weight table. The
expand/compress functions below tie every profile back to the literal
reflection oracle, and the test suite checks them entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import tree
from .errors import NotSymmetric, OracleCapExceeded
from .fibcore import fib
from .reflect import MARKED_NEIGHBOR, ORACLE_CAP, TreeVector
from .tree import BASE, Vertex


def shell_size(d: int) -> int:
    """Number of vertices at distance d from a fixed vertex: 1, 3, 6, 12, ..."""
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d}")
    return 1 if d == 0 else 3 * 2 ** (d - 1)


def class_size(s: int) -> int:
    """Number of vertices in signed class s: 2**s away-side, 2**(-s-1) behind."""
    return 2 ** s if s >= 0 else 2 ** (-s - 1)


@dataclass(frozen=True)
class RadialProfile:
    """One value per distance class of a radially symmetric vector.

    values[d] is the entry at every vertex at distance d, for d = 0..t.
    The outermost class of a step-t profile always holds 1.
    """

    t: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"t must be non-negative, got {self.t}")
        if len(self.values) != self.t + 1:
            raise ValueError(f"expected {self.t + 1} classes, got {len(self.values)}")
        if any(v < 0 for v in self.values):
            raise ValueError(f"negative class value in {self.values}")
        if self.values[self.t] != 1:
            raise ValueError(f"outermost class must be 1, got {self.values[self.t]}")

    def value(self, d: int) -> int:
        return self.values[d] if 0 <= d <= self.t else 0


def radial_start() -> RadialProfile:
    return RadialProfile(0, (1,))


# Quotient weights (w(s, s-1), w(s, s+1)) for classes s < 0, s == 0, s > 0.
# RADIAL: the base sees its 3 neighbors at distance 1; any other vertex has
# one parent inward and two children outward.
RADIAL = ((0, 0), (0, 3), (1, 2))
# SIGNED: in front of the marked edge the children sit one class higher,
# behind it one class lower; classes -1 and 0 share a single simple bond.
SIGNED = ((2, 1), (1, 2), (1, 2))


def wave(row: list[int], lo: int, weights: tuple, parity: int) -> None:
    """One reflection wave on a dense row of class values, in place.

    row[i] holds class lo + i; classes outside the row are zero. Every class
    s with s % 2 == parity becomes w(s, s-1) row[s-1] - row[s] + w(s, s+1)
    row[s+1]. Same-parity classes are never adjacent, so the order of the
    updates does not matter.
    """
    behind, center, ahead = weights
    last = len(row) - 1
    for i in range((parity - lo) % 2, last + 1, 2):
        s = lo + i
        left, right = ahead if s > 0 else center if s == 0 else behind
        row[i] = (left * row[i - 1] if i else 0) - row[i] + (right * row[i + 1] if i < last else 0)


def radial_step(p: RadialProfile) -> RadialProfile:
    """One reflection wave t -> t+1 on distance classes.

    The wave reflects exactly the classes with d incongruent to t mod 2,
    the new rim class t+1 among them; the untouched classes carry over.
    """
    row = [*p.values, 0]
    wave(row, 0, RADIAL, (p.t + 1) % 2)
    return RadialProfile(p.t + 1, tuple(row))


def _require_index(t: int) -> None:
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")


def radial_profile(t: int) -> RadialProfile:
    _require_index(t)
    p = radial_start()
    for _ in range(t):
        p = radial_step(p)
    return p


def radial_sums(p: RadialProfile) -> tuple[int, int]:
    """(minus, plus) coordinate sums weighted by shell sizes.

    minus collects the classes incongruent to t mod 2, plus the congruent
    ones; for the step-t profile these are f(2t) and f(2t+2).
    """
    minus = plus = 0
    for d, v in enumerate(p.values):
        if d % 2 == p.t % 2:
            plus += shell_size(d) * v
        else:
            minus += shell_size(d) * v
    return minus, plus


@dataclass(frozen=True)
class BiRadialProfile:
    """One value per signed distance class of an edge-grown vector.

    A profile of index t describes the vector after 2t reflection waves.
    Values are stored densely over the support interval [lo, lo+len-1];
    classes outside it are zero.
    """

    t: int
    lo: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"t must be non-negative, got {self.t}")
        if not self.values:
            raise ValueError("empty profile")
        if any(v < 0 for v in self.values):
            raise ValueError(f"negative class value in {self.values}")
        if self.values[0] == 0 or self.values[-1] == 0:
            raise ValueError("support interval must be trimmed")
        if self.lo < -2 * self.t - 1 or self.hi > 2 * self.t:
            raise ValueError(f"support [{self.lo}, {self.hi}] outside [-{2 * self.t + 1}, {2 * self.t}]")

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def value(self, s: int) -> int:
        return self.values[s - self.lo] if self.lo <= s <= self.hi else 0

    def as_dict(self) -> dict[int, int]:
        return {self.lo + i: v for i, v in enumerate(self.values) if v != 0}

    def support(self) -> range:
        return range(self.lo, self.hi + 1)


def u_start() -> BiRadialProfile:
    """Index 0: value 1 on the edge's two endpoints (classes 0 and -1)."""
    return BiRadialProfile(0, -1, (1, 1))


def u_step(u: BiRadialProfile) -> BiRadialProfile:
    """Index step t -> t+1: an odd wave, then an even wave that reads the
    fresh odd values. The support grows by at most two classes each way."""
    lo = u.lo - 2
    row = [0, 0, *u.values, 0, 0]
    wave(row, lo, SIGNED, 1)
    wave(row, lo, SIGNED, 0)
    nonzero = [i for i, v in enumerate(row) if v]
    first, last = nonzero[0], nonzero[-1]
    return BiRadialProfile(u.t + 1, lo + first, tuple(row[first:last + 1]))


def u_profile(t: int) -> BiRadialProfile:
    _require_index(t)
    u = u_start()
    for _ in range(t):
        u = u_step(u)
    return u


def u_table(t_max: int) -> list[BiRadialProfile]:
    """Rows of indices 0..t_max."""
    _require_index(t_max)
    rows = [u_start()]
    for _ in range(t_max):
        rows.append(u_step(rows[-1]))
    return rows


def u_sums(u: BiRadialProfile) -> tuple[int, int]:
    """(minus, plus) sums weighted by class sizes.

    Classes at odd distance (|s| odd) feed minus, even distance plus; for
    the index-t profile these are f(4t-1) and f(4t+1).
    """
    minus = plus = 0
    for s in u.support():
        term = class_size(s) * u.value(s)
        if abs(s) % 2 == 1:
            minus += term
        else:
            plus += term
    return minus, plus


class PartitionTerm(NamedTuple):
    cls: int
    weight: int
    value: int
    product: int


@dataclass(frozen=True)
class PartitionReport:
    """Itemized decomposition of a pair of odd-index Fibonacci numbers."""

    t: int
    target_minus: int
    target_plus: int
    terms_minus: tuple[PartitionTerm, ...]
    terms_plus: tuple[PartitionTerm, ...]


def partition_report(t: int) -> PartitionReport:
    """Decompose f(4t-1) and f(4t+1) as weighted sums over the index-t
    profile, one term per nonzero class."""
    u = u_profile(t)
    target_minus, target_plus = fib(4 * t - 1), fib(4 * t + 1)
    minus, plus = [], []
    for s in u.support():
        v = u.value(s)
        if v == 0:
            continue
        w = class_size(s)
        term = PartitionTerm(s, w, v, w * v)
        (minus if abs(s) % 2 == 1 else plus).append(term)
    report = PartitionReport(t, target_minus, target_plus, tuple(minus), tuple(plus))
    if sum(x.product for x in minus) != target_minus or sum(x.product for x in plus) != target_plus:
        raise ArithmeticError(f"partition terms do not reach their targets at t={t}")
    return report


def class_vertices(s: int) -> list[Vertex]:
    """The vertices of signed class s, in lexicographic address order."""
    if s == 0:
        return [BASE]
    d = abs(s)
    firsts = [MARKED_NEIGHBOR] if s < 0 else [c for c in "012" if c != MARKED_NEIGHBOR]
    out = [first for first in firsts]
    for _ in range(d - 1):
        out = [v + c for v in out for c in "01"]
    return out


def expand_radial(p: RadialProfile, *, cap: int = ORACLE_CAP) -> TreeVector:
    """Write each class value at every vertex of its distance class."""
    if p.t > cap:
        raise OracleCapExceeded(p.t, cap)
    entries: dict[Vertex, int] = {}
    for d, layer in enumerate(tree.layers(BASE, p.t, cap=cap)):
        v = p.values[d]
        if v:
            for z in layer:
                entries[z] = v
    return TreeVector(entries)


def expand_biradial(u: BiRadialProfile, *, cap: int = ORACLE_CAP) -> TreeVector:
    """Write each class value at every vertex of its signed class."""
    radius = max(abs(u.lo), u.hi)
    if radius > cap:
        raise OracleCapExceeded(radius, cap)
    entries: dict[Vertex, int] = {}
    for s in u.support():
        v = u.value(s)
        if v:
            for z in class_vertices(s):
                entries[z] = v
    return TreeVector(entries)


def _class_value(vertices: list[Vertex], a: TreeVector, cls) -> int:
    first = vertices[0]
    val = a.value(first)
    for z in vertices[1:]:
        other = a.value(z)
        if other != val:
            raise NotSymmetric(cls, first, val, z, other)
    return val


def compress_radial(a: TreeVector, *, cap: int = ORACLE_CAP) -> RadialProfile:
    """Exact inverse of expand_radial; rejects non-symmetric input with a
    witness pair of same-class vertices holding unequal entries."""
    if a.is_zero():
        raise ValueError("the zero vector has no radial profile")
    t = a.support_radius()
    if t > cap:
        raise OracleCapExceeded(t, cap)
    values = tuple(
        _class_value(layer, a, d) for d, layer in enumerate(tree.layers(BASE, t, cap=cap))
    )
    return RadialProfile(t, values)


def compress_signed_classes(a: TreeVector, *, cap: int = ORACLE_CAP) -> dict[int, int]:
    """Per signed class values of an edge-symmetric vector, as a map."""
    radius = a.support_radius()
    if radius > cap:
        raise OracleCapExceeded(radius, cap)
    out: dict[int, int] = {}
    for s in range(-radius, radius + 1):
        val = _class_value(class_vertices(s), a, s)
        if val:
            out[s] = val
    return out


def compress_biradial(a: TreeVector, *, cap: int = ORACLE_CAP) -> BiRadialProfile:
    """Exact inverse of expand_biradial for even-index (2t-wave) vectors."""
    classes = compress_signed_classes(a, cap=cap)
    if not classes:
        raise ValueError("the zero vector has no profile")
    hi = max(classes)
    if hi < 0 or hi % 2 != 0:
        raise ValueError(f"outer class {hi} is not an even-index profile rim")
    lo = min(classes)
    return BiRadialProfile(hi // 2, lo, tuple(classes.get(s, 0) for s in range(lo, hi + 1)))
