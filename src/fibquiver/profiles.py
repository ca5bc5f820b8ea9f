"""Compressed profiles: O(t^2) counterparts of the exponential tree vectors.

A vector grown from a single vertex is radially symmetric, so one integer
per distance class suffices; a vector grown from an edge takes two values
per distance, split by whether the path from the center runs through the
marked neighbor. Signed classes encode the split: class s >= 0 holds the
vertices at distance s away from the marked side, class -s (s >= 1) the
vertices at distance s behind it.

Both class systems are equitable partitions of the tree: every vertex of
class s has the same number w(s, s-1), w(s, s+1) of neighbors in each
adjacent class. One `Profile` type, one reflection wave (`wave`), one class
size derivation and one expand/compress pair therefore serve both lines,
read with the RADIAL or the SIGNED weight table. Expand/compress tie every
profile back to the literal reflection oracle, and the test suite checks
them entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

from . import tree
from .errors import NotSymmetric, OracleCapExceeded
from .fibcore import fib
from .reflect import ORACLE_CAP, TreeVector
from .tree import BASE, Vertex

# Quotient weights (w(s, s-1), w(s, s+1)) for classes s < 0, s == 0, s > 0.
# RADIAL: the base sees its 3 neighbors at distance 1; any other vertex has
# one parent inward and two children outward.
RADIAL = ((0, 0), (0, 3), (1, 2))
# SIGNED: in front of the marked edge the children sit one class higher,
# behind it one class lower; classes -1 and 0 share a single simple bond.
SIGNED = ((2, 1), (1, 2), (1, 2))


def _waves(weights: tuple, t: int) -> int:
    """Reflection waves behind a step-t profile: a radial step is one wave, a
    signed step two, so that signed row t sums to f(4t - 1), f(4t + 1)."""
    return t if weights == RADIAL else 2 * t


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


@dataclass(frozen=True)
class Profile:
    """Class values of a vector grown by reflection waves, on one class line.

    weights is RADIAL (grown from the base vertex) or SIGNED (grown from the
    edge to the marked neighbor); t counts steps. values[i] is the entry at
    every vertex of class lo + i; classes outside [lo, hi] are zero. After w
    waves the rim class w holds 1, the left end is nonzero, and
    lo >= -(w + 1), with lo = 0 on the radial line, which ends at class 0.
    """

    weights: tuple
    t: int
    lo: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"t must be non-negative, got {self.t}")
        if not self.values or self.values[0] == 0:
            raise ValueError("the leftmost stored class must be nonzero")
        if any(v < 0 for v in self.values):
            raise ValueError(f"negative class value in {self.values}")
        waves = _waves(self.weights, self.t)
        if self.hi != waves or self.values[-1] != 1:
            raise ValueError(f"the last class must be the rim class {waves}, holding 1")
        if self.lo < -(waves + 1) or (self.weights[1][0] == 0 and self.lo != 0):
            raise ValueError(f"support [{self.lo}, {self.hi}] leaves the line after {waves} waves")

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def value(self, s: int) -> int:
        return self.values[s - self.lo] if self.lo <= s <= self.hi else 0

    def support(self) -> range:
        return range(self.lo, self.hi + 1)


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


def step(p: Profile) -> Profile:
    """Step t -> t+1: the next one (radial) or two (signed) waves, wave n
    reflecting the classes of parity n mod 2. Each wave widens the support
    by at most one class each way; the new row is trimmed to nonzero ends."""
    k, waves = _waves(p.weights, 1), _waves(p.weights, p.t)
    lo = p.lo - k
    row = [0] * k + list(p.values) + [0] * k
    for n in range(waves + 1, waves + k + 1):
        wave(row, lo, p.weights, n % 2)
    first, end = 0, len(row)
    while not row[first]:
        first += 1
    while not row[end - 1]:
        end -= 1
    return Profile(p.weights, p.t + 1, lo + first, tuple(row[first:end]))


# bench/spans.py times the two lines as separate layers, so each keeps a
# function of its own.
def radial_step(p: Profile) -> Profile:
    """One reflection wave on distance classes."""
    return step(p)


def u_step(u: Profile) -> Profile:
    """An odd wave, then an even wave that reads the fresh odd values."""
    return step(u)


def radial_start() -> Profile:
    """Step 0: value 1 at the base."""
    return Profile(RADIAL, 0, 0, (1,))


def u_start() -> Profile:
    """Index 0: value 1 on the edge's two endpoints (classes 0 and -1)."""
    return Profile(SIGNED, 0, -1, (1, 1))


def rows(start: Profile) -> Iterator[Profile]:
    """start, then every later step, without end."""
    # By line, since bench/spans.py times each under its name; `step` once it binds that.
    advance = radial_step if start.weights == RADIAL else u_step
    p = start
    while True:
        yield p
        p = advance(p)


def _require_index(t: int) -> None:
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")


def radial_profile(t: int) -> Profile:
    _require_index(t)
    return next(islice(rows(radial_start()), t, None))


def u_profile(t: int) -> Profile:
    _require_index(t)
    return next(islice(rows(u_start()), t, None))


def u_table(t_max: int) -> list[Profile]:
    """Rows of indices 0..t_max."""
    _require_index(t_max)
    return list(islice(rows(u_start()), t_max + 1))


def sums(p: Profile) -> tuple[int, int]:
    """(minus, plus) class values weighted by class sizes.

    Classes congruent to the wave count mod 2 feed plus, the others minus:
    f(2t), f(2t+2) for the radial step-t profile, f(4t-1), f(4t+1) for the
    signed index-t profile.
    """
    by_parity = [0, 0]
    for s, size, v in zip(p.support(), class_sizes(p.weights, p.lo, p.hi), p.values):
        by_parity[s % 2] += size * v
    plus = _waves(p.weights, p.t) % 2
    return by_parity[1 - plus], by_parity[plus]


# Both names time as one layer in bench/spans.py.
radial_sums = u_sums = sums


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
    for s, w, v in zip(u.support(), class_sizes(SIGNED, u.lo, u.hi), u.values):
        if v:
            (minus if s % 2 else plus).append(PartitionTerm(s, w, v, w * v))
    report = PartitionReport(t, target_minus, target_plus, tuple(minus), tuple(plus))
    if sum(x.product for x in minus) != target_minus or sum(x.product for x in plus) != target_plus:
        raise ArithmeticError(f"partition terms do not reach their targets at t={t}")
    return report


def class_vertices(weights: tuple, radius: int) -> dict[int, list[Vertex]]:
    """The vertices of every class within radius of the base, in address
    order. Radial class d is the sphere of radius d; the signed line splits
    it into class d, away from the marked neighbor, and class -d behind it."""
    out: dict[int, list[Vertex]] = {}
    for d, sphere in enumerate(tree.layers(BASE, radius)):
        if weights[1][0] and d:  # w(0, -1) > 0: the line runs on behind the base
            # In address order the 2**(d-1) vertices under MARKED_NEIGHBOR
            # ("0") come first.
            behind = 2 ** (d - 1)
            out[-d], sphere = sphere[:behind], sphere[behind:]
        out[d] = sphere
    return out


def expand(p: Profile, *, cap: int = ORACLE_CAP) -> TreeVector:
    """Write each class value at every vertex of its class."""
    radius = max(-p.lo, p.hi)
    if radius > cap:
        raise OracleCapExceeded(radius, cap)
    members = class_vertices(p.weights, radius)
    entries: dict[Vertex, int] = {}
    for s, v in zip(p.support(), p.values):
        if v:
            for z in members[s]:
                entries[z] = v
    return TreeVector(entries)


# Both names time as one layer in bench/spans.py.
expand_radial = expand_biradial = expand


def _class_values(a: TreeVector, weights: tuple, cap: int) -> dict[int, int]:
    """The nonzero class values of a vector constant on every class; rejects
    any other vector with a witness pair of same-class vertices holding
    unequal entries."""
    radius = a.support_radius()
    if radius > cap:
        raise OracleCapExceeded(radius, cap)
    out: dict[int, int] = {}
    for s, vertices in class_vertices(weights, radius).items():
        first = vertices[0]
        val = a.value(first)
        for z in vertices[1:]:
            other = a.value(z)
            if other != val:
                raise NotSymmetric(s, first, val, z, other)
        if val:
            out[s] = val
    return out


def _compress(a: TreeVector, weights: tuple, cap: int) -> Profile:
    """Exact inverse of expand on the given line."""
    classes = _class_values(a, weights, cap)
    if not classes:
        raise ValueError("the zero vector has no profile")
    lo, hi = min(classes), max(classes)
    per_step = _waves(weights, 1)
    if hi % per_step:
        raise ValueError(f"outer class {hi} is not a profile rim")
    return Profile(weights, hi // per_step, lo, tuple(classes.get(s, 0) for s in range(lo, hi + 1)))


def compress_radial(a: TreeVector, *, cap: int = ORACLE_CAP) -> Profile:
    return _compress(a, RADIAL, cap)


def compress_biradial(a: TreeVector, *, cap: int = ORACLE_CAP) -> Profile:
    """Even-index (2t-wave) edge vectors only."""
    return _compress(a, SIGNED, cap)


def compress_signed_classes(a: TreeVector, *, cap: int = ORACLE_CAP) -> dict[int, int]:
    """Per signed class values of an edge-symmetric vector, as a map."""
    return _class_values(a, SIGNED, cap)
