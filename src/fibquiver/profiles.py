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
code range per class and one expand/compress pair therefore serve both lines,
read with the RADIAL or the SIGNED weight table. Expand/compress tie every
profile back to the literal reflection oracle, and the test suite checks
them entry by entry.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Iterator, NamedTuple

from . import tree
from .errors import NotSymmetric, OracleCapExceeded
from .fibcore import fib
from .reflect import ORACLE_CAP, TreeVector

# Quotient weights (w(s, s-1), w(s, s+1)) for classes s < 0, s == 0, s > 0.
# RADIAL: the base sees its 3 neighbors at distance 1; any other vertex has
# one parent inward and two children outward.
RADIAL = ((0, 0), (0, 3), (1, 2))
# SIGNED: in front of the marked edge the children sit one class higher,
# behind it one class lower; classes -1 and 0 share a single simple bond.
SIGNED = ((2, 1), (1, 2), (1, 2))


class _ProfileFields(NamedTuple):
    weights: tuple
    waves: int
    lo: int
    values: tuple[int, ...]


class Profile(_ProfileFields):
    """Class values of a vector grown by reflection waves, on one class line.

    weights is RADIAL (grown from the base vertex) or SIGNED (grown from the
    edge to the marked neighbor); waves counts the reflection waves, one per
    radial table row and two per signed one. values[i] is the entry at every
    vertex of class lo + i; classes outside [lo, hi] are zero. After w waves
    the rim class w holds 1, the left end is nonzero, and lo >= -(w + 1),
    with lo = 0 on the radial line, which ends at class 0. A profile is the
    tuple of its four fields, so it is immutable, compared and hashed by value.
    """

    __slots__ = ()

    def __new__(cls, weights: tuple, waves: int, lo: int, values: tuple[int, ...]) -> Profile:
        p = super().__new__(cls, weights, waves, lo, values)
        if waves < 0:
            raise ValueError(f"the wave count must be non-negative, got {waves}")
        if not values or values[0] == 0:
            raise ValueError("the leftmost stored class must be nonzero")
        if any(v < 0 for v in values):
            raise ValueError(f"negative class value in {values}")
        if p.hi != waves or values[-1] != 1:
            raise ValueError(f"the last class must be the rim class {waves}, holding 1")
        if lo < -(waves + 1) or (weights[1][0] == 0 and lo != 0):
            raise ValueError(f"support [{lo}, {p.hi}] leaves the line after {waves} waves")
        return p

    @classmethod
    def _trusted(cls, weights: tuple, waves: int, lo: int, values: tuple[int, ...]) -> Profile:
        """A row that `step` built, valid by construction: __new__'s checks,
        a scan of every cell among them, are skipped."""
        return tuple.__new__(cls, (weights, waves, lo, values))

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def support(self) -> range:
        return range(self.lo, self.hi + 1)


def wave(row: list[int], lo: int, weights: tuple, parity: int) -> None:
    """One reflection wave on a dense row of class values, in place.

    row[i] holds class lo + i. Every class s with s % 2 == parity becomes
    w(s, s-1) row[s-1] - row[s] + w(s, s+1) row[s+1], except the two end
    classes: row[0] and row[-1] are zero sentinels, read but never written,
    so the caller pads the row past the wave's reach. Same-parity classes
    are never adjacent, so each run of classes with one weight pair (behind
    class 0, class 0, ahead of it) is updated as one slice.
    """
    last = len(row) - 1
    # The runs are [1, c0), [c0, c1) and [c1, last), with c0 and c1 the
    # indices of classes 0 and 1 clamped into the row.
    c0, c1 = (min(max(i, 1), last) for i in (-lo, 1 - lo))
    for a, b, (left, right) in zip((1, c0, c1), (c0, c1, last), weights):
        a += (parity - lo - a) % 2
        row[a:b:2] = [
            left * x - y + right * z for x, y, z in zip(row[a - 1:b - 1:2], row[a:b:2], row[a + 1:b + 1:2])
        ]


def step(p: Profile, k: int) -> Profile:
    """The next k waves, wave n reflecting the classes of parity n mod 2.
    Each wave widens the support by at most one class each way, so the row
    is padded by k classes and a zero sentinel at each end; the new row is
    trimmed to nonzero ends."""
    if k < 0:
        raise ValueError(f"the wave count to add must be non-negative, got k={k}")
    lo = p.lo - k - 1
    pad = [0] * (k + 1)
    row = [*pad, *p.values, *pad]
    for n in range(p.waves + 1, p.waves + k + 1):
        wave(row, lo, p.weights, n % 2)
    first, end = 0, len(row)
    while not row[first]:
        first += 1
    while not row[end - 1]:
        end -= 1
    return Profile._trusted(p.weights, p.waves + k, lo + first, tuple(row[first:end]))


# bench/spans.py times the two lines as separate layers, so each keeps a
# function of its own.
def radial_step(p: Profile) -> Profile:
    """One reflection wave on distance classes: the next radial table row."""
    return step(p, 1)


def u_step(u: Profile) -> Profile:
    """An odd wave, then an even wave that reads the fresh odd values: the
    next signed table row."""
    return step(u, 2)


def radial_start() -> Profile:
    """Step 0: value 1 at the base."""
    return Profile(RADIAL, 0, 0, (1,))


def u_start() -> Profile:
    """Index 0: value 1 on the edge's two endpoints (classes 0 and -1)."""
    return Profile(SIGNED, 0, -1, (1, 1))


def rows(start: Profile) -> Iterator[Profile]:
    """start, then every later table row, without end."""
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
    f(2t), f(2t+2) for the radial row t (t waves), f(4t-1), f(4t+1) for the
    signed row t (2t waves).

    Each side of class 0 is summed by Horner's rule from the rim inward, one
    parity at a time, so no class size is formed: one class outward
    multiplies the size by w(s, s±1) / w(s±1, s), a whole number on both
    weight tables, and |C_0| = 1.
    """
    behind, center, ahead = p.weights
    pad = max(p.lo, 0)  # a profile may start past class 0
    row = (0,) * pad + p.values
    zero = pad - p.lo  # the index of class 0 in row
    by_parity = [row[zero], 0]
    # (classes +-1, +-2, ... outward, |C_{+-1}|, the size ratio past it)
    sides = [(row[zero + 1:], center[1] // ahead[0], ahead[1] // ahead[0])]
    if zero:
        sides.append((row[zero - 1::-1], center[0] // behind[1], behind[0] // behind[1]))
    for outward, first, ratio in sides:
        grow = ratio * ratio  # from class +-d to +-(d + 2)
        for d in (1, 2):
            acc = 0
            for v in reversed(outward[d - 1::2]):
                acc = acc * grow + v
            by_parity[d % 2] += acc * first * ratio ** (d - 1)
    plus = p.waves % 2
    return by_parity[1 - plus], by_parity[plus]


# Both names time as one layer in bench/spans.py.
radial_sums = u_sums = sums


class PartitionTerm(NamedTuple):
    cls: int
    weight: int
    value: int
    product: int


class PartitionReport(NamedTuple):
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
    for s, v in zip(u.support(), u.values):
        if v:
            w = class_size(SIGNED, s)
            (minus if s % 2 else plus).append(PartitionTerm(s, w, v, w * v))
    report = PartitionReport(t, target_minus, target_plus, tuple(minus), tuple(plus))
    if sum(x.product for x in minus) != target_minus or sum(x.product for x in plus) != target_plus:
        raise ArithmeticError(f"partition terms do not reach their targets at t={t}")
    return report


def class_codes(weights: tuple, s: int) -> range:
    """The vertex codes of class s, in address order. Radial class d is the
    sphere of radius d, codes 2**(d+1) .. 2**(d+1) + 3 * 2**(d-1) - 1; the
    signed line splits it into class -d, the first 2**(d-1) codes (under the
    marked neighbor "0"), and class d, the rest."""
    d = abs(s)
    if not d:
        return range(2, 3)
    first, behind = 2 << d, 1 << (d - 1)
    if not weights[1][0]:  # w(0, -1) == 0: the line ends at the base
        return range(first, first + 3 * behind)
    return range(first, first + behind) if s < 0 else range(first + behind, first + 3 * behind)


def class_size(weights: tuple, s: int) -> int:
    """|C_s|, the number of codes in class s. Not len(): a range past
    2**63 codes overflows it."""
    codes = class_codes(weights, s)
    return codes.stop - codes.start


def expand(p: Profile, *, cap: int = ORACLE_CAP) -> TreeVector:
    """Write each class value at every vertex of its class."""
    radius = max(-p.lo, p.hi)
    if radius > cap:
        raise OracleCapExceeded(radius, cap)
    entries: dict[int, int] = {}
    for s, v in zip(p.support(), p.values):
        if v:
            entries.update(dict.fromkeys(class_codes(p.weights, s), v))
    return TreeVector._trusted(entries)


# Both names time as one layer in bench/spans.py.
expand_radial = expand_biradial = expand


def _compress(a: TreeVector, weights: tuple, cap: int) -> Profile:
    """Exact inverse of expand on the given line, for a vector constant on
    every class, after as many waves as its rim class. Any other vector is
    rejected with a witness pair of same-class vertices holding unequal
    entries."""
    radius = a.support_radius()
    if radius > cap:
        raise OracleCapExceeded(radius, cap)
    get = a._entries.get
    classes: dict[int, int] = {}
    # Class by class outward from the base, -d before d.
    for s in sorted(range(-radius if weights[1][0] else 0, radius + 1), key=abs):
        codes = class_codes(weights, s)
        val = get(codes[0], 0)
        if list(map(get, codes, repeat(0))).count(val) != len(codes):
            for c in codes:  # name the first witness
                other = get(c, 0)
                if other != val:
                    raise NotSymmetric(s, tree.word(codes[0]), val, tree.word(c), other)
        if val:
            classes[s] = val
    if not classes:
        raise ValueError("the zero vector has no profile")
    lo, hi = min(classes), max(classes)
    return Profile(weights, hi, lo, tuple(classes.get(s, 0) for s in range(lo, hi + 1)))


def compress_radial(a: TreeVector, *, cap: int = ORACLE_CAP) -> Profile:
    return _compress(a, RADIAL, cap)


def compress_biradial(a: TreeVector, *, cap: int = ORACLE_CAP) -> Profile:
    return _compress(a, SIGNED, cap)


# Both names time as one layer in bench/spans.py.
compress_signed_classes = compress_biradial
