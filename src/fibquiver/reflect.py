"""The brute-force oracle: integer vectors on the tree and literal reflections.

A TreeVector is a finite-support map from vertices to integers. Inside the
oracle its vertices are the tree module's int codes, held as the vector's two
color classes: the even-depth and the odd-depth vertices, which the covering
map sends to the 3-Kronecker quiver's two vertices. The constructor, unit,
edge_unit, value, support, items, repr and every error message speak words,
translated once at that boundary. Addresses and values are checked only where
callers hand them in, each address by tree.code: the TreeVector constructor,
unit, edge_unit, and the center of big_sigma.
The reflection at a vertex replaces that one coordinate by the sum over its
three neighbors minus itself; a reflection wave applies this simultaneously
at every vertex whose distance from a center has a fixed parity (no two such
vertices are adjacent, so the order does not matter). Those vertices are
one color class, so a wave rewrites that class and keeps the other as it is.
Alternating the odd and even waves starting from a single vertex, or from an
edge, grows the vector families whose coordinate sums, class by class, are
Fibonacci numbers: the push-down to the quiver.

Everything here is deliberately literal and exponential in t; the profiles
module is the compressed counterpart that this one validates.
"""

from __future__ import annotations

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

    Entries are held as two code-keyed dicts, the color classes: `_classes[p]`
    holds the codes whose depth has parity p; zero entries are never stored.
    Vectors are immutable, so two may share a class. Only the constructor
    checks entries: canonical addresses, int (not bool) values.
    """

    __slots__ = ("_classes",)

    def __init__(self, entries: Optional[dict[Vertex, int]] = None):
        self._classes: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for v, c in (entries or {}).items():
            key = tree.code(v)
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"entry at vertex {v!r} is not an int: {c!r}")
            if c != 0:
                self._classes[key.bit_length() & 1][key] = c

    @staticmethod
    def _trusted(even: dict[int, int], odd: dict[int, int]) -> "TreeVector":
        vec = object.__new__(TreeVector)
        vec._classes = (even, odd)
        return vec

    def value(self, v: Vertex) -> int:
        c = tree.code(v)
        return self._classes[c.bit_length() & 1].get(c, 0)

    def support(self) -> list[Vertex]:
        """Supported vertices by (length, word): the order of their codes."""
        return [tree.word(c) for c in sorted([*self._classes[0], *self._classes[1]])]

    def items(self) -> "_Items":
        return _Items(self._classes)

    def support_radius(self) -> int:
        """Largest distance from the base to a supported vertex."""
        return max(max(self._classes[0], default=2), max(self._classes[1], default=2)).bit_length() - 2

    def add(self, other: "TreeVector") -> "TreeVector":
        (a0, a1), (b0, b1) = self._classes, other._classes
        return TreeVector._trusted(_add(a0, b0), _add(a1, b1))

    def equals(self, other: "TreeVector") -> bool:
        return self._classes == other._classes

    def __repr__(self):
        entries = {**self._classes[0], **self._classes[1]}
        return f"TreeVector({ {tree.word(v): entries[v] for v in sorted(entries)}!r})"


def _add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """One class of a sum; an empty side shares the other."""
    if not a or not b:
        return a or b
    out = dict(a)
    for v, c in b.items():
        s = out.get(v, 0) + c
        if s:
            out[v] = s
        else:
            del out[v]
    return out


class _Items:
    """(word, entry) pairs, sized without translating; words are built only
    as the pairs are iterated."""

    __slots__ = ("_classes",)

    def __init__(self, classes: tuple[dict[int, int], dict[int, int]]):
        self._classes = classes

    def __len__(self) -> int:
        return len(self._classes[0]) + len(self._classes[1])

    def __iter__(self) -> Iterator[tuple[Vertex, int]]:
        return ((tree.word(v), c) for entries in self._classes for v, c in entries.items())


def unit(x: Vertex) -> TreeVector:
    """The vector with entry 1 at x and 0 elsewhere."""
    c = tree.code(x)
    return TreeVector._trusted({}, {c: 1}) if c.bit_length() & 1 else TreeVector._trusted({c: 1}, {})


def edge_unit(x: Vertex, y: Vertex) -> TreeVector:
    """Entry 1 at both endpoints of an edge, one in each color class."""
    cx, cy = tree.code(x), tree.code(y)
    if distance(x, y) != 1:
        raise ValueError(f"{x!r} and {y!r} are at distance {distance(x, y)}, not 1")
    return TreeVector._trusted({cy: 1}, {cx: 1}) if cx.bit_length() & 1 else TreeVector._trusted({cx: 1}, {cy: 1})


def big_sigma(a: TreeVector, x: Vertex, parity: str) -> TreeVector:
    """One reflection wave: reflect simultaneously at every vertex whose
    distance from x has the given parity ("even" or "odd").

    Outside the support and its neighbors every reflection acts as the
    identity, so the wave is finite. Same-parity vertices are never
    adjacent, making the simultaneous update equal to any sequential order.
    The sites are one color class, so the wave rewrites that class alone:
    each site's new entry is its neighbors' sum minus its own, every entry
    of the other class is added into its three neighbors' sums, and the
    other class is shared with the result unchanged.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    # The sites' code length mod 2: d(x, y) = |x| + |y| (mod 2), and a code's
    # bit length is its depth plus 2.
    bit = (tree.code(x).bit_length() + (parity == "odd")) % 2
    rest = a._classes[1 - bit]
    sums = {c: -v for c, v in a._classes[bit].items()}
    get = sums.get
    for c, v in rest.items():
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
    # Every sum is at a site, so the sums are the new site class.
    if 0 in sums.values():
        sums = {c: v for c, v in sums.items() if v}
    return TreeVector._trusted(rest, sums) if bit else TreeVector._trusted(sums, rest)


class Families:
    """The vector families that one suite call grows, each once, under one cap.

    A family is one start vector grown around its first vertex x by
    alternating reflection waves, the first reflecting the odd-distance
    shell. It is named by its start's words, and `at(t, *start)` is the one
    lookup: (x,) starts unit(x), the family s_t(x), and (x, y) starts
    edge_unit(x, y), the family r_t(x, y); a start of no word, or of three
    or more, is refused. The table holds the cap and each family's latest
    grown vector, nothing else: a later wave count grows on from that
    vector, an earlier one regrows from a start built afresh, and wave 0 is
    that start.
    A table belongs to the call that made it and is dropped with it: kept
    across calls, it would make a repeated call cheaper than a fresh process
    could ever be.
    """

    __slots__ = ("cap", "_grown")

    def __init__(self, cap: int = ORACLE_CAP):
        self.cap = cap
        # key -> (waves, the start after that many waves), for waves > 0
        self._grown: dict[tuple[Vertex, ...], tuple[int, TreeVector]] = {}

    def at(self, t: int, *start: Vertex) -> TreeVector:
        if not 1 <= len(start) <= 2:
            raise ValueError(f"a family starts at one word (a vertex) or two (an edge), got {len(start)}")
        grown = self._grown.get(start)
        waves, a = grown if grown and grown[0] <= t else (0, (unit if len(start) == 1 else edge_unit)(*start))
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        if t > self.cap:
            raise OracleCapExceeded(t, self.cap)
        for i in range(waves, t):
            a = big_sigma(a, start[0], "even" if i % 2 else "odd")
        if t:
            self._grown[start] = (t, a)
        return a


def s_vec_at(t: int, center: Vertex, *, cap: int = ORACLE_CAP) -> TreeVector:
    """The vector grown from unit(center) by t alternating reflection waves."""
    return Families(cap).at(t, center)


def s_vec(t: int, *, cap: int = ORACLE_CAP) -> TreeVector:
    """s_vec_at anchored at the base vertex. Support lies within distance t."""
    return s_vec_at(t, BASE, cap=cap)


def r_vec_at(t: int, x: Vertex, y: Vertex, *, cap: int = ORACLE_CAP) -> TreeVector:
    """The vector grown from edge_unit(x, y) by t reflection waves centered at x."""
    return Families(cap).at(t, x, y)


def r_vec(t: int, *, cap: int = ORACLE_CAP) -> TreeVector:
    """r_vec_at anchored at the base with its marked neighbor (child "0")."""
    return r_vec_at(t, BASE, MARKED_NEIGHBOR, cap=cap)


def parity_sums(a: TreeVector, t: int) -> tuple[int, int]:
    """(minus, plus): entry sums over the vertices whose distance from the
    base is incongruent / congruent to t mod 2."""
    even, odd = sum(a._classes[0].values()), sum(a._classes[1].values())
    return (even, odd) if t % 2 else (odd, even)
