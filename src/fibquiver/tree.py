"""Addressing, navigation and bounded enumeration of the infinite 3-regular tree.

Vertices are addressed by words over {0,1,2}: the empty word is the base
vertex, whose three neighbors are "0", "1" and "2"; every other vertex w has
exactly two children w+"0" and w+"1", and its parent is w with the last
letter removed. The encoding is canonical: two words are equal iff they name
the same vertex, and no word can backtrack.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

from typing import Iterator

Vertex = str

BASE: Vertex = ""


def is_valid_vertex(v: object) -> bool:
    if not isinstance(v, str):
        return False
    if v == BASE:
        return True
    if v[0] not in "012":
        return False
    return all(c in "01" for c in v[1:])


def require_vertex(v: object) -> Vertex:
    if not is_valid_vertex(v):
        raise ValueError(f"not a canonical vertex address: {v!r}")
    return v  # type: ignore[return-value]


def neighbors(v: Vertex) -> list[Vertex]:
    """The 3 neighbors, parent first (the base has 3 children instead)."""
    if v == BASE:
        return ["0", "1", "2"]
    return [v[:-1], v + "0", v + "1"]


def distance(v: Vertex, w: Vertex) -> int:
    """Tree metric: |v| + |w| - 2 * (longest common prefix)."""
    k = 0
    for a, b in zip(v, w):
        if a != b:
            break
        k += 1
    return len(v) + len(w) - 2 * k


def layers(center: Vertex, radius: int) -> Iterator[list[Vertex]]:
    """Yield the spheres of radius 0..radius around center, in BFS order."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    frontier = [center]
    seen = {center}
    yield frontier
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        yield frontier
