"""Addressing, navigation and bounded enumeration of the infinite 3-regular tree.

Vertices are addressed by words over {0,1,2}: the empty word is the base
vertex, whose three neighbors are "0", "1" and "2"; every other vertex w has
exactly two children w+"0" and w+"1", and its parent is w with the last
letter removed. The encoding is canonical: two words are equal iff they name
the same vertex, and no word can backtrack.

Inside the reflection oracle a vertex is an int code instead: the base is 2,
its neighbors "0", "1" and "2" are 4, 5 and 6, and child b of code c is
2c + b. The code is the word read in binary behind a three-bit head, so a
vertex at depth d has c.bit_length() == d + 2, and sorting codes sorts words
by (length, word). `code` and `word` translate between the two at every
public boundary, where vertices are words; `code` is the one parser of a
word, and it refuses anything that is not a canonical one.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

Vertex = str

BASE: Vertex = ""


_HEADS = {"0": "100", "1": "101", "2": "110"}
_LETTERS = {head: letter for letter, head in _HEADS.items()}


def code(v: object) -> int:
    """The int code of a canonical word; anything else is refused."""
    if v == BASE:
        return 2
    if isinstance(v, str) and v[0] in _HEADS and not v[1:].lstrip("01"):
        return int(_HEADS[v[0]] + v[1:], 2)
    raise ValueError(f"not a canonical vertex address: {v!r}")


def word(c: int) -> Vertex:
    """The word of a valid int code: the first letter from the head, the
    rest from the binary digits below it; a code that names no vertex is
    refused."""
    if c == 2:
        return BASE
    digits = bin(c)
    try:
        return _LETTERS[digits[2:5]] + digits[5:]
    except KeyError:
        raise ValueError(f"code {c} names no vertex") from None


def neighbors(v: Vertex) -> list[Vertex]:
    """The 3 neighbors, parent first (the base has 3 children instead);
    a word that names no vertex is refused by `code`."""
    if code(v) == 2:
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
