"""The brute-force oracle: integer vectors on the tree and literal reflections.

A TreeVector is a finite-support map from vertices to integers. Inside the
oracle its vertices are the tree module's int codes; the constructor, unit,
edge_unit, value, support, items, repr and every error message speak words,
translated once at that boundary. Addresses and values are checked only where
callers hand them in, each address by tree.code: the TreeVector constructor,
unit, edge_unit, and the center of big_sigma.
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

from itertools import compress
from typing import Iterator, Optional

from . import tree
from .errors import OracleCapExceeded
from .tree import BASE, Vertex, distance

# Past this many reflection waves the support (3 * 2**t vertices) stops being
# "instant"; the compressed profiles are authoritative beyond it.
ORACLE_CAP = 12

MARKED_NEIGHBOR: Vertex = "0"


class TreeVector:
    """Finite-support integer-valued function on the tree's vertices.

    Entries are keyed by vertex code; zero entries are never stored.
    Only the constructor checks entries: canonical addresses, int (not bool) values.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[dict[Vertex, int]] = None):
        self._entries: dict[int, int] = {}
        for v, c in (entries or {}).items():
            key = tree.code(v)
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"entry at vertex {v!r} is not an int: {c!r}")
            if c != 0:
                self._entries[key] = c

    @classmethod
    def _trusted(cls, entries: dict[int, int]) -> "TreeVector":
        vec = cls.__new__(cls)
        vec._entries = entries
        return vec

    def value(self, v: Vertex) -> int:
        return self._entries.get(tree.code(v), 0)

    def support(self) -> list[Vertex]:
        """Supported vertices by (length, word): the order of their codes."""
        return [tree.word(c) for c in sorted(self._entries)]

    def items(self) -> "_Items":
        return _Items(self._entries)

    def support_radius(self) -> int:
        """Largest distance from the base to a supported vertex."""
        return max(map(int.bit_length, self._entries), default=2) - 2

    def add(self, other: "TreeVector") -> "TreeVector":
        out = dict(self._entries)
        for v, c in other._entries.items():
            s = out.get(v, 0) + c
            if s:
                out[v] = s
            else:
                out.pop(v, None)
        return TreeVector._trusted(out)

    def equals(self, other: "TreeVector") -> bool:
        return self._entries == other._entries

    def __repr__(self):
        entries = {tree.word(v): self._entries[v] for v in sorted(self._entries)}
        return f"TreeVector({entries!r})"


class _Items:
    """(word, entry) pairs, sized without translating; words are built only
    as the pairs are iterated."""

    __slots__ = ("_entries",)

    def __init__(self, entries: dict[int, int]):
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[Vertex, int]]:
        return ((tree.word(v), c) for v, c in self._entries.items())


def unit(x: Vertex) -> TreeVector:
    """The vector with entry 1 at x and 0 elsewhere."""
    return TreeVector({x: 1})


def edge_unit(x: Vertex, y: Vertex) -> TreeVector:
    """Entry 1 at both endpoints of an edge."""
    vec = TreeVector({x: 1, y: 1})
    if distance(x, y) != 1:
        raise ValueError(f"{x!r} and {y!r} are at distance {distance(x, y)}, not 1")
    return vec


def big_sigma(a: TreeVector, x: Vertex, parity: str) -> TreeVector:
    """One reflection wave: reflect simultaneously at every vertex whose
    distance from x has the given parity ("even" or "odd").

    Outside the support and its neighbors every reflection acts as the
    identity, so the wave is finite. Same-parity vertices are never
    adjacent, making the simultaneous update equal to any sequential order.
    The sites and the other vertices split by depth parity, so each site's
    new entry is its neighbors' sum minus its own: every other entry is kept
    and added into its three neighbors' sums, every site entry subtracted
    from its own.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    # The sites' code length mod 2: d(x, y) = |x| + |y| (mod 2), and a code's
    # bit length is its depth plus 2.
    bit = (tree.code(x).bit_length() + (parity == "odd")) % 2
    sums: dict[int, int] = {}
    get = sums.get
    for c, v in a._entries.items():
        if c.bit_length() % 2 == bit:
            sums[c] = get(c, 0) - v
            continue
        # Neighbors: the children 2c and 2c + 1, and the parent c >> 1.
        up, left = c >> 1, c + c
        sums[up] = get(up, 0) + v
        sums[left] = get(left, 0) + v
        sums[left + 1] = get(left + 1, 0) + v
    # c >> 1 is wrong only at the base region: the base's third neighbor is
    # "2", code 6, not 1; and the parent of "2" is the base, code 2, not 3.
    for wrong, right in ((1, 6), (3, 2)):
        if wrong in sums:
            sums[right] = get(right, 0) + sums.pop(wrong)
    # Every sum is at a site, so it overwrites the site's old entry.
    new = dict(a._entries)
    new.update(sums)
    if 0 in sums.values():
        for c, v in sums.items():
            if not v:
                del new[c]
    return TreeVector._trusted(new)


class Families:
    """The vector families that one suite call grows, each once, under one cap.

    A family is one start vector grown around its first vertex x by
    alternating reflection waves, the first reflecting the odd-distance
    shell. It is keyed by its start's words, (x,) for unit(x) and (x, y) for
    edge_unit(x, y), so a repeat request builds no start vector and checks
    no address again. Only the latest vector is kept: a later wave count
    grows on from it, an earlier one regrows from the start. A table belongs
    to the call that made it and is dropped with it: kept across calls, it
    would make a repeated call cheaper than a fresh process could ever be.
    """

    __slots__ = ("cap", "_grown")

    def __init__(self, cap: int = ORACLE_CAP):
        self.cap = cap
        # key -> (start, waves, the start after that many waves)
        self._grown: dict[tuple[Vertex, ...], tuple[TreeVector, int, TreeVector]] = {}

    def s_vec_at(self, t: int, center: Vertex) -> TreeVector:
        return self._at((center,), unit, t)

    def r_vec_at(self, t: int, x: Vertex, y: Vertex) -> TreeVector:
        return self._at((x, y), edge_unit, t)

    def _at(self, key: tuple[Vertex, ...], start_of, t: int) -> TreeVector:
        if key in self._grown:
            start, waves, a = self._grown[key]
        else:
            start = a = start_of(*key)
            waves = 0
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        if t > self.cap:
            raise OracleCapExceeded(t, self.cap)
        if t < waves:
            waves, a = 0, start
        for i in range(waves, t):
            a = big_sigma(a, key[0], "even" if i % 2 else "odd")
        self._grown[key] = (start, t, a)
        return a


def s_vec_at(t: int, center: Vertex, *, cap: int = ORACLE_CAP) -> TreeVector:
    """The vector grown from unit(center) by t alternating reflection waves."""
    return Families(cap).s_vec_at(t, center)


def s_vec(t: int, *, cap: int = ORACLE_CAP) -> TreeVector:
    """s_vec_at anchored at the base vertex. Support lies within distance t."""
    return s_vec_at(t, BASE, cap=cap)


def r_vec_at(t: int, x: Vertex, y: Vertex, *, cap: int = ORACLE_CAP) -> TreeVector:
    """The vector grown from edge_unit(x, y) by t reflection waves centered at x."""
    return Families(cap).r_vec_at(t, x, y)


def r_vec(t: int, *, cap: int = ORACLE_CAP) -> TreeVector:
    """r_vec_at anchored at the base with its marked neighbor (child "0")."""
    return r_vec_at(t, BASE, MARKED_NEIGHBOR, cap=cap)


def parity_sums(a: TreeVector, t: int) -> tuple[int, int]:
    """(minus, plus): entry sums over the vertices whose distance from the
    base is incongruent / congruent to t mod 2."""
    entries = a._entries
    # A code's bit length is its depth plus 2: odd exactly at odd depths.
    odd = sum(compress(entries.values(), map((1).__and__, map(int.bit_length, entries))))
    even = sum(entries.values()) - odd
    return (even, odd) if t % 2 else (odd, even)
