"""The brute-force oracle: integer vectors on the tree and literal reflections.

A TreeVector is a finite-support map from vertex addresses to integers.
The reflection at a vertex replaces that one coordinate by the sum over its
three neighbors minus itself; a reflection wave applies this simultaneously
at every vertex whose distance from a center has a fixed parity (no two such
vertices are adjacent, so the order does not matter). Alternating the odd
and even waves starting from a single vertex, or from an edge, grows the
vector families whose coordinate sums are Fibonacci numbers.

Everything here is deliberately literal and exponential in t; the profiles
module is the compressed counterpart that this one validates.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import tree
from .errors import NotNeighbors, OracleCapExceeded
from .tree import BASE, Vertex, distance, neighbors

# Past this many reflection waves the support (3 * 2**t vertices) stops being
# "instant"; the compressed profiles are authoritative beyond it.
ORACLE_CAP = 12

MARKED_NEIGHBOR: Vertex = "0"


class TreeVector:
    """Finite-support integer-valued function on the tree's vertices.

    Entries are addressed from the base vertex; zero entries are never stored.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[dict[Vertex, int]] = None):
        self._entries: dict[Vertex, int] = {}
        if entries:
            for v, c in entries.items():
                if c != 0:
                    self._entries[tree.require_vertex(v)] = c

    def value(self, v: Vertex) -> int:
        return self._entries.get(v, 0)

    def support(self) -> list[Vertex]:
        return sorted(self._entries, key=lambda v: (len(v), v))

    def items(self) -> Iterable[tuple[Vertex, int]]:
        return self._entries.items()

    def support_radius(self) -> int:
        """Largest distance from the base to a supported vertex."""
        return max((len(v) for v in self._entries), default=0)

    def add(self, other: "TreeVector") -> "TreeVector":
        out = dict(self._entries)
        for v, c in other._entries.items():
            s = out.get(v, 0) + c
            if s:
                out[v] = s
            else:
                out.pop(v, None)
        return TreeVector(out)

    def subtract(self, other: "TreeVector") -> "TreeVector":
        return self.add(other.negate())

    def negate(self) -> "TreeVector":
        return TreeVector({v: -c for v, c in self._entries.items()})

    def equals(self, other: "TreeVector") -> bool:
        return self._entries == other._entries

    def __repr__(self):
        entries = {v: c for v, c in sorted(self._entries.items(), key=lambda kv: (len(kv[0]), kv[0]))}
        return f"TreeVector({entries!r})"


def unit(x: Vertex) -> TreeVector:
    """The vector with entry 1 at x and 0 elsewhere."""
    return TreeVector({x: 1})


def edge_unit(x: Vertex, y: Vertex) -> TreeVector:
    """Entry 1 at both endpoints of an edge."""
    if distance(x, y) != 1:
        raise NotNeighbors(f"{x!r} and {y!r} are at distance {distance(x, y)}, not 1")
    return TreeVector({x: 1, y: 1})


def sigma(a: TreeVector, y: Vertex) -> TreeVector:
    """Reflect at one vertex: only coordinate y changes, to
    (sum of a over the neighbors of y) - a_y. An involution."""
    new = dict(a._entries)
    val = -a.value(y) + sum(a.value(n) for n in neighbors(y))
    if val:
        new[y] = val
    else:
        new.pop(y, None)
    return TreeVector(new)


def big_sigma(a: TreeVector, x: Vertex, parity: str) -> TreeVector:
    """One reflection wave: reflect simultaneously at every vertex whose
    distance from x has the given parity ("even" or "odd").

    Outside the support and its neighbors every reflection acts as the
    identity, so the wave is finite. Same-parity vertices are never
    adjacent, making the simultaneous update equal to any sequential order.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    bit = 0 if parity == "even" else 1
    candidates = set(a._entries)
    for v in a._entries:
        candidates.update(neighbors(v))
    new = dict(a._entries)
    for y in candidates:
        if distance(x, y) % 2 != bit:
            continue
        val = -a.value(y) + sum(a.value(n) for n in neighbors(y))
        if val:
            new[y] = val
        else:
            new.pop(y, None)
    return TreeVector(new)


def _grow(start: TreeVector, center: Vertex, t: int, cap: int) -> TreeVector:
    """start after t alternating reflection waves around center, the first
    reflecting the odd-distance shell."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t > cap:
        raise OracleCapExceeded(t, cap)
    a = start
    for i in range(t):
        a = big_sigma(a, center, "even" if i % 2 else "odd")
    return a


def s_vec_at(t: int, center: Vertex, *, cap: int = ORACLE_CAP) -> TreeVector:
    """The vector grown from unit(center) by t alternating reflection waves."""
    return _grow(unit(center), center, t, cap)


def s_vec(t: int, *, cap: int = ORACLE_CAP) -> TreeVector:
    """s_vec_at anchored at the base vertex. Support lies within distance t."""
    return s_vec_at(t, BASE, cap=cap)


def r_vec_at(t: int, x: Vertex, y: Vertex, *, cap: int = ORACLE_CAP) -> TreeVector:
    """The vector grown from edge_unit(x, y) by t reflection waves centered at x."""
    return _grow(edge_unit(x, y), x, t, cap)


def r_vec(t: int, *, cap: int = ORACLE_CAP) -> TreeVector:
    """r_vec_at anchored at the base with its marked neighbor (child "0")."""
    return r_vec_at(t, BASE, MARKED_NEIGHBOR, cap=cap)


def parity_sums(a: TreeVector, t: int) -> tuple[int, int]:
    """(minus, plus): entry sums over the vertices whose distance from the
    base is incongruent / congruent to t mod 2."""
    minus = plus = 0
    for v, c in a.items():
        if len(v) % 2 == t % 2:
            plus += c
        else:
            minus += c
    return minus, plus
