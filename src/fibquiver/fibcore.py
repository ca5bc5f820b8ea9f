"""Fibonacci numbers over all integer indices and the Kronecker pair algebra.

Everything is exact big-integer arithmetic: the index-negation rule
f(-t) = (-1)**(t+1) * f(t), the quadratic form q(x, y) = x^2 + y^2 - 3xy,
the two reflection maps that slide pairs [f(t), f(t+-2)] along the
|q| = 1 hyperbolas, and a total classifier that decides whether an
arbitrary lattice point is such a pair.
"""

from __future__ import annotations

import math
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


def _stream_pairs(count: int) -> list[tuple[int, int]]:
    """(f(k), f(k+1)) for 0 <= k < count, by the recursion."""
    pairs, a, b = [], 0, 1
    for _ in range(count):
        pairs.append((a, b))
        a, b = b, a + b
    return pairs


_SEED_BITS = 7
_SEED = _stream_pairs(1 << _SEED_BITS)


def _fib2(n: int) -> tuple[int, int]:
    """(f(n), f(n+1)) for any integer n, by fast doubling (Knuth, TAOCP
    vol. 1, 1.2.8): f(2k) = f(k)(2f(k+1) - f(k)), f(2k+1) = f(k)^2 + f(k+1)^2.

    Doubling starts from the seed pair at the index's leading 7 bits, so an
    index below 128 is one lookup and a larger one skips 7 doubling steps."""
    m = -n - 1 if n < 0 else n
    if m < len(_SEED):
        a, b = _SEED[m]
    else:
        rest = m.bit_length() - _SEED_BITS
        a, b = _SEED[m >> rest]
        for i in reversed(range(rest)):
            a, b = a * (2 * b - a), a * a + b * b
            if m >> i & 1:
                a, b = b, a + b
    if n < 0:
        # f(-m) = (-1)**(m+1) f(m), applied to f(n) = f(-(m+1)), f(n+1) = f(-m)
        # with a, b = f(m), f(m+1) for m = -n - 1.
        return (b, -a) if n % 2 else (-b, a)
    return a, b


def fib(t: int) -> int:
    """f(t) for any integer t: f(0) = 0, f(1) = 1, f(i+1) = f(i) + f(i-1),
    extended downwards by f(-t) = (-1)**(t+1) * f(t)."""
    return _fib2(t)[0]


def fib_range(lo: int, hi: int) -> list[int]:
    """[f(lo), ..., f(hi)] by streaming the recursion once."""
    if hi < lo:
        raise ValueError(f"empty range: {lo}..{hi}")
    a, b = _fib2(lo)
    out = []
    for _ in range(lo, hi + 1):
        out.append(a)
        a, b = b, a + b
    return out


def euler_form(p: tuple[int, int]) -> int:
    """q(x, y) = x^2 + y^2 - 3xy."""
    x, y = p
    return x * x + y * y - 3 * x * y


def fib_pair(t: int, direction: str = UP) -> DimPair:
    """[f(t), f(t+2)] for "up", [f(t), f(t-2)] for "down"."""
    if direction not in (UP, DOWN):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    a, b = _fib2(t)
    # f(t+2) = f(t) + f(t+1) and f(t-2) = f(t) - f(t-1) = 2f(t) - f(t+1).
    return tuple.__new__(DimPair, (a, a + b if direction == UP else 2 * a - b))


def family_index(waves: int, edge: bool) -> int:
    """The push-down rule: a family grown by w reflection waves pushes down
    to fib_pair(n), n = 2w - edge. From a vertex that is [f(2w), f(2w+2)],
    an EvenPair; from an edge [f(2w-1), f(2w+1)], an OddPair."""
    return 2 * waves - edge


def sigma_plus(p: DimPair) -> DimPair:
    """(x, y) -> (3x - y, x). Inverse of sigma_minus; preserves q."""
    x, y = p
    return DimPair(3 * x - y, x)


def sigma_minus(p: DimPair) -> DimPair:
    """(x, y) -> (y, 3y - x). Inverse of sigma_plus; preserves q."""
    x, y = p
    return DimPair(y, 3 * y - x)


def check_three_term(t: int) -> bool:
    """f(t+2) = 3 f(t) - f(t-2)."""
    return fib(t + 2) == 3 * fib(t) - fib(t - 2)


class Witness(NamedTuple):
    """Index evidence for a classified pair.

    The pair equals fib_pair(t, direction), negated coordinatewise when
    ``negated`` is set (the q = -1 branch in the third quadrant carries no
    literal representative, only a negated one).
    """

    t: int
    direction: str
    negated: bool


class PairClass(NamedTuple):
    kind: str
    witness: Optional[Witness] = None


NON_PAIR = PairClass(NOT_A_PAIR)

_LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)
_LOG2_SQRT5 = math.log2(5) / 2
# f is strictly increasing from f(2) = 1, so each |x| = f(k), 3 <= k < 128,
# names its k alone; _SEED_TOP = f(128) bounds the table.
_SEED_INDEX = {a: k for k, (a, _) in enumerate(_SEED) if k >= 3}
_SEED_TOP = _SEED[-1][1]


def classify_pair(p: tuple[int, int]) -> PairClass:
    """Decide whether p, any (x, y) pair of ints (a DimPair or a plain
    tuple, with the same verdict), lies on |q| = 1 and name the matching
    index pair.

    Total: points off the two hyperbolas come back as the shared NON_PAIR.
    On the hyperbolas, the index i with f(i) = |x| is read off the seed
    table below f(128) and as round(log_phi(|x| sqrt 5)) above it; for
    |x| in {0, 1} the pair's parity settles it, since f(1) = f(2) = 1.

    Even-index pairs have exactly one witness, never negated. Odd-index
    pairs have two, [f(t), f(t+2)] = [f(-t), f(-t-2)]; the one chosen, as
    the norm descent to a seed pair chooses it (the tests replay that
    descent), is "up", negated in the third quadrant, where the odd values
    (all positive) give no literal representative. The witness is checked
    by rebuilding p from it with one _fib2 call, so a wrong i (a float
    read-off gone astray) is refused. The verdict types are built by
    tuple.__new__, as their own __new__ would build them.
    """
    x, y = p
    q = (x - 3 * y) * x + y * y
    if q != 1 and q != -1:
        return NON_PAIR
    ax = abs(x)
    if ax < 2:
        i = 2 * ax if q == 1 else ax
    elif ax < _SEED_TOP:
        i = _SEED_INDEX[ax]
    else:
        # f(i) = round(phi**i / sqrt(5)) for i >= 0.
        i = round((math.log2(ax) + _LOG2_SQRT5) / _LOG2_PHI)
    if q == 1:
        # f is strictly increasing on even indices.
        t, up, negated = i if x >= 0 else -i, y > x, False
    else:
        t, up, negated = i if abs(y) > ax else -i, True, x < 0
    a, b = _fib2(t)
    # f(t+2) = f(t) + f(t+1) and f(t-2) = f(t) - f(t-1) = 2f(t) - f(t+1).
    if (a, a + b if up else 2 * a - b) != ((-x, -y) if negated else (x, y)):
        raise ArithmeticError(f"witness reconstruction failed for {p}")
    witness = tuple.__new__(Witness, (t, UP if up else DOWN, negated))
    return tuple.__new__(PairClass, (EVEN_PAIR if q == 1 else ODD_PAIR, witness))


def enumerate_pairs(bound: int) -> list[tuple[DimPair, PairClass]]:
    """All |q| = 1 points with |x|, |y| <= bound, sorted, with their classes.

    Walks the index line instead of scanning the box: every such point is a
    literal pair [f(t), f(t+-2)] or the negation of one.
    """
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    k, a, b = 2, 1, 2
    while a <= bound:
        k, a, b = k + 1, b, a + b
    off = k + 4
    f = fib_range(-off, off)  # f(i) is f[i + off]
    points: set[tuple[int, int]] = set()  # plain tuples: a DimPair only per point listed
    for t in range(-k - 2, k + 3):
        x = f[t + off]
        if abs(x) <= bound:
            for y in (f[t + off + 2], f[t + off - 2]):
                if abs(y) <= bound:
                    points.add((x, y))
                    points.add((-x, -y))
    return [(tuple.__new__(DimPair, pt), classify_pair(pt)) for pt in sorted(points)]
