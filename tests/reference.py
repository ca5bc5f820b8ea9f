"""Reference routes that the tests hold the code routes to.

The reflection oracle and the expand/compress pair run on int vertex codes
and class code ranges. The routes here walk words instead, the way the
package did before: breadth-first spheres, class members split off them, a
reflection wave that lists every vertex's neighbors by word, and `sigma`, the
single-site reflection that the wave equals in any order. Class sizes
come from the weight-balance recursion rather than from the code ranges.

`code_big_sigma` and `code_parity_sums` are the package's earlier code
routes: the wave re-inserts every kept entry and maps each parent on its
own, and the parity sums loop over the entries one at a time.

The profile wave here updates one class at a time, where the package updates
each run of classes with one weight pair as a slice, and `step` builds its
rows through the validating `Profile` constructor; `payload_utable` builds
the u_table payload as the plain dict that the package's json renderer writes
from templates.

`chebyshev_rows` is a third route for the class values, with no wave: a
family's values after t waves are Chebyshev polynomials in the tree's
adjacency applied to its start, read on a class line whose weights are
counted off `tree.neighbors`.
"""

from __future__ import annotations

from math import comb
from operator import mul
from typing import Callable, Iterator

from fibquiver import profiles, tree
from fibquiver.reflect import MARKED_NEIGHBOR, TreeVector
from fibquiver.tree import BASE, Vertex, neighbors


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


def ball(center: Vertex, radius: int) -> list[Vertex]:
    """All vertices at distance <= radius from center, sphere by sphere."""
    return [v for layer in layers(center, radius) for v in layer]


def class_sizes(weights: tuple, lo: int, hi: int) -> list[int]:
    """The sizes |C_s| for s = lo..hi.

    Counting the edges between two adjacent classes from either side gives
    |C_s| w(s, s+1) = |C_{s+1}| w(s+1, s); with |C_0| = 1 (the base) this
    fixes every size. A class past a zero outward weight is empty.
    """
    behind, center, ahead = weights
    sizes = {0: 1}
    for s in range(1, hi + 1):
        sizes[s] = sizes[s - 1] * (center if s == 1 else ahead)[1] // ahead[0]
    for s in range(-1, lo - 1, -1):
        out = (center if s == -1 else behind)[0]
        sizes[s] = sizes[s + 1] * out // behind[1] if out else 0
    return [sizes[s] for s in range(lo, hi + 1)]


def class_vertices(weights: tuple, radius: int) -> dict[int, list[Vertex]]:
    """The vertices of every class within radius of the base, in address
    order. Radial class d is the sphere of radius d; the signed line splits
    it into class d, away from the marked neighbor, and class -d behind it."""
    out: dict[int, list[Vertex]] = {}
    for d, sphere in enumerate(layers(BASE, radius)):
        if weights[1][0] and d:  # w(0, -1) > 0: the line runs on behind the base
            # In address order the 2**(d-1) vertices under the marked
            # neighbor ("0") come first.
            behind = 2 ** (d - 1)
            out[-d], sphere = sphere[:behind], sphere[behind:]
        out[d] = sphere
    return out


def sigma(a: TreeVector, y: Vertex) -> TreeVector:
    """Reflect at one vertex: only coordinate y changes, to
    (sum of a over the neighbors of y) - a_y. An involution."""
    entries = dict(a.items())
    entries[y] = -a.value(y) + sum(a.value(n) for n in neighbors(y))
    return TreeVector(entries)


def big_sigma(a: TreeVector, x: Vertex, parity: str) -> TreeVector:
    """One reflection wave by words: every candidate site lists its three
    neighbors and reads their entries."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    tree.code(x)
    bit = (len(x) + (parity == "odd")) % 2  # the sites' |y| mod 2: d(x, y) = |x| + |y| (mod 2)
    entries = dict(a.items())
    get = entries.get
    candidates = set(entries).union(*map(neighbors, entries))
    new = dict(entries)
    for y in candidates:
        if len(y) % 2 != bit:
            continue
        val = -get(y, 0) + sum(get(n, 0) for n in neighbors(y))
        if val:
            new[y] = val
        else:
            new.pop(y, None)
    return TreeVector(new)


def code_big_sigma(a: TreeVector, x: Vertex, parity: str) -> TreeVector:
    """One reflection wave on int codes, each kept entry re-inserted and
    each parent found on its own."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    tree.code(x)
    bit = (len(x) + (parity == "odd")) % 2
    new: dict[int, int] = {}
    sums: dict[int, int] = {}
    get = sums.get
    for c, v in a._entries.items():
        if c.bit_length() % 2 == bit:
            sums[c] = get(c, 0) - v
            continue
        new[c] = v
        # The parent of depth 1 is the base, code 2; the base's is "2", code 6.
        up, left = (c >> 1 if c > 7 else 2 if c > 2 else 6), c + c
        sums[up] = get(up, 0) + v
        sums[left] = get(left, 0) + v
        sums[left + 1] = get(left + 1, 0) + v
    new.update((c, v) for c, v in sums.items() if v)
    return TreeVector._trusted(new)


def code_parity_sums(a: TreeVector, t: int) -> tuple[int, int]:
    """(minus, plus) entry sums by depth parity against t, entry by entry."""
    minus = plus = 0
    for v, c in a._entries.items():
        if v.bit_length() % 2 == t % 2:
            plus += c
        else:
            minus += c
    return minus, plus


def grown(start: TreeVector, center: Vertex, t_max: int) -> Iterator[TreeVector]:
    """start after 0, 1, .., t_max alternating word-route waves around
    center, the first reflecting the odd-distance shell."""
    a = start
    yield a
    for i in range(t_max):
        a = big_sigma(a, center, "even" if i % 2 else "odd")
        yield a


def wave(row: list[int], lo: int, weights: tuple, parity: int) -> None:
    """One reflection wave on a dense row of class values, in place, class by
    class: every class s with s % 2 == parity becomes w(s, s-1) row[s-1] -
    row[s] + w(s, s+1) row[s+1], with classes outside the row read as zero."""
    behind, center, ahead = weights
    last = len(row) - 1
    for i in range((parity - lo) % 2, last + 1, 2):
        s = lo + i
        left, right = ahead if s > 0 else center if s == 0 else behind
        row[i] = (left * row[i - 1] if i else 0) - row[i] + (right * row[i + 1] if i < last else 0)


def step(p: profiles.Profile, k: int) -> profiles.Profile:
    """The next k loop waves, the row built through the validating
    constructor."""
    lo = p.lo - k
    row = [0] * k + list(p.values) + [0] * k
    for n in range(p.waves + 1, p.waves + k + 1):
        wave(row, lo, p.weights, n % 2)
    first, end = 0, len(row)
    while not row[first]:
        first += 1
    while not row[end - 1]:
        end -= 1
    return profiles.Profile(p.weights, p.waves + k, lo + first, tuple(row[first:end]))


def payload_utable(t_max: int) -> dict:
    """The u_table payload as a plain dict, one [s, v] list per cell."""
    rows = []
    for t, row in enumerate(profiles.u_table(t_max)):
        minus, plus = profiles.sums(row)
        rows.append(
            {
                "t": t,
                "values": [[s, v] for s, v in zip(row.support(), row.values)],
                "minus": minus,
                "plus": plus,
            }
        )
    return {"schema_version": 1, "kind": "u_table", "t_max": t_max, "rows": rows}


def chebyshev_u(t: int) -> dict[int, int]:
    """The coefficient of each power of A in U_t(A) = sum_j (-1)^j C(t-j, j)
    A^(t-2j), the Chebyshev polynomials with U_(t+1) = A U_t - U_(t-1) from
    U_0 = 1; run backwards, that gives U_-1 = 0 and U_-2 = -1."""
    if t == -2:
        return {0: -1}
    return {t - 2 * j: (-1) ** j * comb(t - j, j) for j in range(t // 2 + 1)}


def radial_class(v: Vertex) -> int:
    """The radial class of v: its distance from the base."""
    return tree.distance(BASE, v)


def signed_class(v: Vertex) -> int:
    """The signed class of v: its distance d from the base, negated when v
    lies behind the marked neighbor, that is, nearer to it than to the base."""
    d = tree.distance(BASE, v)
    return -d if tree.distance(MARKED_NEIGHBOR, v) < d else d


def line_weights(class_of: Callable[[Vertex], int], radius: int) -> dict[int, tuple[int, int]]:
    """(w(s, s-1), w(s, s+1)) for every class s of the line within radius of
    the base, counted among the `tree.neighbors` of one vertex of the class."""
    members: dict[int, Vertex] = {}
    for d in range(radius + 1):
        for v in ("1" * d, "0" * d):
            members.setdefault(class_of(v), v)
    weights = {}
    for s, v in members.items():
        around = [class_of(n) for n in neighbors(v)]
        assert set(around) <= {s - 1, s + 1}, (s, around)
        weights[s] = (around.count(s - 1), around.count(s + 1))
    return weights


def chebyshev_rows(class_of: Callable[[Vertex], int], start: tuple[Vertex, ...],
                   t_max: int) -> list[tuple[int, tuple[int, ...]]]:
    """(lo, values) of a family's class values after t = 0..t_max waves, its
    ends trimmed to nonzero classes, with no wave.

    The family grows from unit(x) (start = (x,)) or edge_unit(x, y) (start =
    (x, y)) around x. Call y_t the half that wave t wrote: a wave sets each
    site to its neighbours' sum minus its old value y_(t-1), so y_(t+1) =
    A y_t - y_(t-1), from y_0 = e_x and y_-1 = e_y (0 for a vertex). Hence
    y_t = U_t(A) e_x - U_(t-1)(A) e_y, and the vector after t waves is
    y_t + y_(t-1) = V_t(A) e_x - V_(t-1)(A) e_y with V_t = U_t + U_(t-1).
    On the class line, (A v)(s) = w(s, s-1) v(s-1) + w(s, s+1) v(s+1), so
    A^k e counts walks, class by class.
    """
    weights = line_weights(class_of, t_max + 2)  # past the reach of t_max waves
    lo, n = min(weights), len(weights)
    down = [weights[lo + i][0] for i in range(n)]
    up = [weights[lo + i][1] for i in range(n)]

    def walk_columns(v: Vertex) -> list[tuple[int, ...]]:
        """For each class, A^k e_v at that class for k = 0..t_max."""
        e = [0] * (n + 1)  # e[n] stays 0: class hi + 1, and class lo - 1 as e[-1]
        e[class_of(v) - lo] = 1
        walks = [e]
        for _ in range(t_max):
            e = [down[i] * e[i - 1] + up[i] * e[i + 1] for i in range(n)] + [0]
            walks.append(e)
        return list(zip(*walks))[:n]

    def v_coeffs(t: int) -> list[int]:
        """V_t's coefficients by power of A, 0..max(t, 0); V_-1 = -1."""
        u, u_prev = chebyshev_u(t), chebyshev_u(t - 1)
        return [u.get(k, 0) + u_prev.get(k, 0) for k in range(max(t, 0) + 1)]

    def apply(coeffs: list[int], v: Vertex, columns: list[tuple[int, ...]]) -> list[int]:
        """sum_k coeffs[k] A^k e_v, class by class. A walk from class c
        reaches class s only in |s - c| steps or more, of the same parity."""
        c = class_of(v) - lo
        return [sum(map(mul, coeffs[abs(i - c)::2], col[abs(i - c)::2])) for i, col in enumerate(columns)]

    ends = [(v, walk_columns(v)) for v in start]
    out = []
    for t in range(t_max + 1):
        row = apply(v_coeffs(t), *ends[0])
        if len(ends) > 1:
            row = [a - b for a, b in zip(row, apply(v_coeffs(t - 1), *ends[1]))]
        nonzero = [i for i, v in enumerate(row) if v]
        out.append((lo + nonzero[0], tuple(row[nonzero[0]:nonzero[-1] + 1])))
    return out
