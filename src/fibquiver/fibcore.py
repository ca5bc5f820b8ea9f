"""Fibonacci numbers over all integer indices and the Kronecker pair algebra.

Everything is exact big-integer arithmetic: the index-negation rule
f(-t) = (-1)**(t+1) * f(t), the quadratic form q(x, y) = x^2 + y^2 - 3xy,
the two reflection maps that slide pairs [f(t), f(t+-2)] along the
|q| = 1 hyperbolas, and a total classifier that decides whether an
arbitrary lattice point is such a pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional


class DimPair(NamedTuple):
    """A lattice point of Z^2, used as a 3-Kronecker dimension vector."""

    x: int
    y: int


UP = "up"
DOWN = "down"

EVEN_PAIR = "EvenPair"
ODD_PAIR = "OddPair"
NOT_A_PAIR = "NotAPair"


def fib(t: int) -> int:
    """f(t) for any integer t: f(0) = 0, f(1) = 1, f(i+1) = f(i) + f(i-1),
    extended downwards by f(-t) = (-1)**(t+1) * f(t)."""
    n = abs(t)
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    if t < 0 and n % 2 == 0:
        return -a
    return a


def fib_range(lo: int, hi: int) -> list[int]:
    """[f(lo), ..., f(hi)] by streaming the recursion once."""
    if hi < lo:
        raise ValueError(f"empty range: {lo}..{hi}")
    a, b = fib(lo), fib(lo + 1)
    out = []
    for _ in range(lo, hi + 1):
        out.append(a)
        a, b = b, a + b
    return out


def euler_form(p: DimPair) -> int:
    """q(x, y) = x^2 + y^2 - 3xy."""
    x, y = p
    return x * x + y * y - 3 * x * y


def fib_pair(t: int, direction: str = UP) -> DimPair:
    """[f(t), f(t+2)] for "up", [f(t), f(t-2)] for "down"."""
    if direction == UP:
        return DimPair(fib(t), fib(t + 2))
    if direction == DOWN:
        return DimPair(fib(t), fib(t - 2))
    raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")


def sigma_plus(p: DimPair) -> DimPair:
    """(x, y) -> (3x - y, x). Inverse of sigma_minus; preserves q."""
    x, y = p
    return DimPair(3 * x - y, x)


def sigma_minus(p: DimPair) -> DimPair:
    """(x, y) -> (y, 3y - x). Inverse of sigma_plus; preserves q."""
    x, y = p
    return DimPair(y, 3 * y - x)


def check_three_term(t: int) -> bool:
    """f(t+2) = 3 f(t) - f(t-2), in all three rearrangements."""
    lo, mid, hi = fib(t - 2), fib(t), fib(t + 2)
    return hi == 3 * mid - lo and lo == 3 * mid - hi and lo + hi == 3 * mid


class Witness(NamedTuple):
    """Index evidence for a classified pair.

    The pair equals fib_pair(t, direction), negated coordinatewise when
    ``negated`` is set (the q = -1 branch in the third quadrant carries no
    literal representative, only a negated one).
    """

    t: int
    direction: str
    negated: bool


@dataclass(frozen=True)
class PairClass:
    kind: str
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.kind not in (EVEN_PAIR, ODD_PAIR, NOT_A_PAIR):
            raise ValueError(f"unknown kind {self.kind!r}")
        if (self.witness is None) != (self.kind == NOT_A_PAIR):
            raise ValueError("witness present iff the point is a pair")
        if self.witness is not None:
            want_even = self.kind == EVEN_PAIR
            if (self.witness.t % 2 == 0) != want_even:
                raise ValueError("witness parity disagrees with kind")


# Seed pairs: the |q| = 1 points with max(|x|, |y|) <= 1, with a literal
# index witness where one exists. (-1, -1) is the one seed with none.
_SEED_WITNESS = {
    DimPair(0, 1): (0, UP),
    DimPair(0, -1): (0, DOWN),
    DimPair(1, 0): (2, DOWN),
    DimPair(-1, 0): (-2, UP),
    DimPair(1, 1): (-1, UP),
}


def _descend(p: DimPair) -> tuple[list[str], DimPair]:
    """Norm-decreasing reflections from p down to a seed pair.

    At every |q| = 1 point outside the seed set exactly one of the two
    reflections strictly decreases |x| + |y|.
    """
    x, y = p
    ops: list[str] = []
    while max(abs(x), abs(y)) > 1:
        plus = (3 * x - y, x)
        minus = (y, 3 * y - x)
        norm = abs(x) + abs(y)
        if abs(plus[0]) + abs(plus[1]) < norm:
            ops.append("plus")
            x, y = plus
        elif abs(minus[0]) + abs(minus[1]) < norm:
            ops.append("minus")
            x, y = minus
        else:
            raise ArithmeticError(f"no descending reflection at ({x}, {y})")
    return ops, DimPair(x, y)


def classify_pair(p: DimPair) -> PairClass:
    """Decide whether p lies on |q| = 1 and name the matching index pair.

    Total: points off the two hyperbolas come back as NotAPair. On the
    hyperbolas, descend to a seed, canonicalize (-1, -1) to (1, 1) with
    the negated flag, then replay the descent backwards to recover the
    index t and direction.
    """
    p = DimPair(*p)
    q = euler_form(p)
    if q not in (1, -1):
        return PairClass(NOT_A_PAIR)

    ops, seed = _descend(p)
    negated = seed == DimPair(-1, -1)
    if negated:
        seed = DimPair(1, 1)
    t, direction = _SEED_WITNESS[seed]
    for op in reversed(ops):
        # Undoing a "plus" step applies sigma_minus, which moves up-pairs
        # two indices up and down-pairs two indices down; "minus" mirrors.
        if op == "plus":
            t += 2 if direction == UP else -2
        else:
            t += -2 if direction == UP else 2

    expected = fib_pair(t, direction)
    if negated:
        expected = DimPair(-expected.x, -expected.y)
    if expected != p:
        raise ArithmeticError(f"witness reconstruction failed for {p}")
    kind = EVEN_PAIR if q == 1 else ODD_PAIR
    return PairClass(kind, Witness(t, direction, negated))


def enumerate_pairs(bound: int) -> list[tuple[DimPair, PairClass]]:
    """All |q| = 1 points with |x|, |y| <= bound, sorted, with their classes.

    Walks the index line instead of scanning the box: every such point is a
    literal pair [f(t), f(t+-2)] or the negation of one.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    k = 2
    while abs(fib(k)) <= bound:
        k += 1
    points: set[DimPair] = set()
    for t in range(-k - 2, k + 3):
        for direction in (UP, DOWN):
            pair = fib_pair(t, direction)
            for cand in (pair, DimPair(-pair.x, -pair.y)):
                if abs(cand.x) <= bound and abs(cand.y) <= bound:
                    points.add(cand)
    return [(pt, classify_pair(pt)) for pt in sorted(points)]
