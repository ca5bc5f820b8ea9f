"""Integer-index Fibonacci arithmetic, the quadratic form, and pair classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibquiver import suites
from fibquiver.fibcore import (
    DOWN,
    DimPair,
    EVEN_PAIR,
    NON_PAIR,
    NOT_A_PAIR,
    ODD_PAIR,
    UP,
    Witness,
    check_three_term,
    classify_pair,
    enumerate_pairs,
    euler_form,
    fib,
    fib_pair,
    fib_range,
    sigma_minus,
    sigma_plus,
)

# f(-10) .. f(10)
SEQUENCE = [-55, 34, -21, 13, -8, 5, -3, 2, -1, 1, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

pairs_st = st.tuples(st.integers(-10**18, 10**18), st.integers(-10**18, 10**18)).map(
    lambda t: DimPair(*t)
)


# ----------------------------------------------------------------------
# reference routes: streaming addition for f, the norm descent for witnesses
# ----------------------------------------------------------------------

def fib_by_addition(lo, hi):
    """[f(lo), ..., f(hi)] from the recurrence alone, in O(|lo| + hi - lo)
    additions: up from f(0) = 0, f(1) = 1, down by f(t-1) = f(t+1) - f(t)."""
    t, a, b = 0, 0, 1  # f(t), f(t+1)
    while t > lo:
        t, a, b = t - 1, b - a, a
    while t < lo:
        t, a, b = t + 1, b, a + b
    out = []
    for _ in range(lo, hi + 1):
        out.append(a)
        a, b = b, a + b
    return out


# The |q| = 1 points with max(|x|, |y|) <= 1, with a literal index witness
# where one exists. (-1, -1) is the one seed with none.
SEED_WITNESS = {
    DimPair(0, 1): (0, UP),
    DimPair(0, -1): (0, DOWN),
    DimPair(1, 0): (2, DOWN),
    DimPair(-1, 0): (-2, UP),
    DimPair(1, 1): (-1, UP),
}


def descend_step(p):
    """The reflection that strictly decreases |x| + |y| at a |q| = 1 point
    outside the seeds: exactly one of the two does."""
    norm = abs(p.x) + abs(p.y)
    for op, image in (("plus", sigma_plus(p)), ("minus", sigma_minus(p))):
        if abs(image.x) + abs(image.y) < norm:
            return op, image
    raise ArithmeticError(f"no descending reflection at {p}")


def descend(p):
    """Norm-decreasing reflections from p down to a seed pair."""
    ops = []
    while max(abs(p.x), abs(p.y)) > 1:
        op, p = descend_step(p)
        ops.append(op)
    return ops, p


def witness_by_descent(p, memo):
    """The witness found by descending to a seed, canonicalizing (-1, -1) to
    (1, 1) with the negated flag, and replaying the descent backwards.
    `memo` maps points already replayed to their witnesses."""
    start, path = p, []
    while p not in memo and max(abs(p.x), abs(p.y)) > 1:
        op, image = descend_step(p)
        path.append((p, op))
        p = image
    if p not in memo:
        negated = p == DimPair(-1, -1)
        memo[p] = Witness(*SEED_WITNESS[DimPair(1, 1) if negated else p], negated)
    t, direction, negated = memo[p]
    for pt, op in reversed(path):
        # Undoing a "plus" step applies sigma_minus, which moves up-pairs
        # two indices up and down-pairs two indices down; "minus" mirrors.
        step = 2 if direction == UP else -2
        t += step if op == "plus" else -step
        memo[pt] = Witness(t, direction, negated)
    return memo[start]


def test_fib_matches_streaming_addition():
    n = 3000
    F = fib_by_addition(-n - 2, n + 2)  # f(t) is F[t + n + 2]
    assert fib_range(-n - 2, n + 2) == F
    for t in range(-n, n + 1):
        i = t + n + 2
        assert fib(t) == F[i], t
        assert fib_pair(t, UP) == (F[i], F[i + 2]), t
        assert fib_pair(t, DOWN) == (F[i], F[i - 2]), t
        assert fib_range(t - 2, t + 2) == F[i - 2 : i + 3], t
    for t in (10**4, -(10**4), 10**5, -(10**5)):
        want = fib_by_addition(t - 2, t + 2)
        assert [fib(s) for s in range(t - 2, t + 3)] == want, t
        assert fib_pair(t, UP) == (want[2], want[4]) and fib_pair(t, DOWN) == (want[2], want[0]), t
        assert fib_range(t - 2, t + 2) == want, t


def test_fib_examples():
    assert fib(10) == 55
    assert fib(0) == 0
    assert fib(-4) == -3


def test_fib_window_matches_published_sequence():
    assert [fib(t) for t in range(-10, 11)] == SEQUENCE


def test_fib_range_streams_the_same_values():
    assert fib_range(-10, 10) == SEQUENCE
    assert fib_range(7, 7) == [13]
    with pytest.raises(ValueError):
        fib_range(3, 2)


def test_index_negation_rule():
    for t in range(-500, 501):
        sign = 1 if (t + 1) % 2 == 0 else -1
        assert fib(-t) == sign * fib(t)


def test_euler_form_examples():
    assert euler_form(DimPair(0, 1)) == 1
    assert euler_form(DimPair(1, 2)) == -1
    assert euler_form(DimPair(3, 8)) == 1  # cross-check: (3, 8) = [f(4), f(6)]
    assert fib_pair(4) == DimPair(3, 8)


def test_fib_pair_examples():
    assert fib_pair(2, UP) == DimPair(1, 3)
    assert fib_pair(0, UP) == DimPair(0, 1)
    assert fib_pair(-4, UP) == DimPair(-3, -1)
    assert fib_pair(0, DOWN) == DimPair(0, -1)
    with pytest.raises(ValueError):
        fib_pair(0, "sideways")


def test_pair_sign_alternates_with_index_parity():
    for t in range(-500, 501):
        want = 1 if t % 2 == 0 else -1
        assert euler_form(fib_pair(t, UP)) == want
        assert euler_form(fib_pair(t, DOWN)) == want


def test_sigma_examples():
    assert sigma_plus(DimPair(1, 3)) == DimPair(0, 1)
    assert sigma_plus(DimPair(0, 0)) == DimPair(0, 0)
    assert sigma_plus(DimPair(3, 8)) == DimPair(1, 3)
    assert sigma_minus(DimPair(0, 1)) == DimPair(1, 3)
    assert sigma_minus(DimPair(0, 0)) == DimPair(0, 0)
    assert sigma_minus(DimPair(1, 3)) == DimPair(3, 8)


@given(pairs_st)
def test_sigmas_are_mutually_inverse(p):
    assert sigma_plus(sigma_minus(p)) == p
    assert sigma_minus(sigma_plus(p)) == p


@given(pairs_st)
def test_form_invariant_under_reflections_and_negation(p):
    q = euler_form(p)
    assert euler_form(sigma_plus(p)) == q
    assert euler_form(sigma_minus(p)) == q
    assert euler_form(DimPair(-p.x, -p.y)) == q


def test_three_term_examples():
    assert check_three_term(7)  # 34 = 3*13 - 5
    assert check_three_term(0)  # 1 = 3*0 - (-1)
    assert check_three_term(-5)
    for t in range(-500, 501):
        assert check_three_term(t)


def test_witness_is_the_descents_choice():
    memo = {}
    for t in range(-2500, 2501):
        for direction in (UP, DOWN):
            pair = fib_pair(t, direction)
            for p in (pair, DimPair(-pair.x, -pair.y)):
                assert classify_pair(p).witness == witness_by_descent(p, memo), p


@settings(max_examples=30, deadline=None)
@given(st.integers(2500, 12000), st.booleans(), st.sampled_from((UP, DOWN)), st.booleans())
def test_witness_is_the_descents_choice_at_large_index(n, negative, direction, negated):
    p = fib_pair(-n if negative else n, direction)
    if negated:
        p = DimPair(-p.x, -p.y)
    assert classify_pair(p).witness == witness_by_descent(p, {})


def test_non_pairs_share_one_verdict():
    for x in range(-30, 31):
        for y in range(-30, 31):
            if abs(euler_form(DimPair(x, y))) != 1:
                assert classify_pair(DimPair(x, y)) is NON_PAIR
    for t in (40, -41, 1000, -2999):
        x, y = fib_pair(t, UP)
        for dx, dy in ((1, 0), (0, -1), (2, 2), (-x, 0)):
            assert classify_pair(DimPair(x + dx, y + dy)) is NON_PAIR


def test_classify_examples():
    got = classify_pair(DimPair(2, 5))
    assert got.kind == ODD_PAIR and got.witness == Witness(3, UP, False)
    assert classify_pair(DimPair(2, 2)).kind == NOT_A_PAIR
    got = classify_pair(DimPair(-1, -2))
    assert got.kind == ODD_PAIR and got.witness == Witness(1, UP, True)


def test_classify_marked_points():
    # The eight dots on the q = 1 branches and the ten circles on q = -1.
    even = [(0, 1), (1, 3), (-1, 0), (-3, -1), (0, -1), (-1, -3), (1, 0), (3, 1)]
    odd = [(-1, -1), (-1, -2), (-2, -1), (-2, -5), (-5, -2), (1, 1), (1, 2), (2, 1), (2, 5), (5, 2)]
    for pt in even:
        assert classify_pair(DimPair(*pt)).kind == EVEN_PAIR, pt
    for pt in odd:
        assert classify_pair(DimPair(*pt)).kind == ODD_PAIR, pt


def test_witness_reconstructs_the_point():
    for x in range(-60, 61):
        for y in range(-60, 61):
            got = classify_pair(DimPair(x, y))
            assert (got.witness is None) == (got.kind == NOT_A_PAIR)
            if got.kind == NOT_A_PAIR:
                continue
            w = got.witness
            rebuilt = fib_pair(w.t, w.direction)
            if w.negated:
                rebuilt = DimPair(-rebuilt.x, -rebuilt.y)
            assert rebuilt == DimPair(x, y)
            assert (w.t % 2 == 0) == (got.kind == EVEN_PAIR)


def test_negated_only_for_odd_third_quadrant():
    # Odd-index values at negative indices are positive, so the q = -1
    # branch in the third quadrant carries no literal representative.
    for x in range(-40, 41):
        for y in range(-40, 41):
            got = classify_pair(DimPair(x, y))
            if got.kind != NOT_A_PAIR and got.witness.negated:
                assert got.kind == ODD_PAIR
                assert x <= 0 and y <= 0


def test_exhaustive_acceptance_matches_form():
    for x in range(-200, 201):
        for y in range(-200, 201):
            q = x * x + y * y - 3 * x * y
            got = classify_pair(DimPair(x, y))
            assert (got.kind != NOT_A_PAIR) == (abs(q) == 1)
            if got.kind == EVEN_PAIR:
                assert q == 1
            elif got.kind == ODD_PAIR:
                assert q == -1


def test_descent_strictly_shrinks_the_norm():
    for pt in [(2, 5), (5, 2), (34, 89), (-2584, -987), (233, 89), (-1, -2)]:
        ops, seed = descend(DimPair(*pt))
        path = [DimPair(*pt)]
        for op in ops:
            path.append(sigma_plus(path[-1]) if op == "plus" else sigma_minus(path[-1]))
        assert path[-1] == seed
        norms = [abs(p.x) + abs(p.y) for p in path]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        last = path[-1]
        assert max(abs(last.x), abs(last.y)) <= 1


@st.composite
def near_pairs(draw):
    """±[f(t), f(t±2)] with |t| <= 3000, moved by at most 2 in each coordinate
    (not at all about a third of the time): exact pairs and near misses."""
    x, y = fib_pair(draw(st.integers(-3000, 3000)), draw(st.sampled_from((UP, DOWN))))
    sign = draw(st.sampled_from((1, -1)))
    dx, dy = draw(st.one_of(st.just((0, 0)), st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
    return sign * x + dx, sign * y + dy


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), near_pairs()))
def test_a_plain_tuple_gets_the_dimpair_verdict(xy):
    # Box scans hand classify_pair plain (x, y) tuples.
    assert type(xy) is tuple
    assert classify_pair(xy) == classify_pair(DimPair(*xy))


@pytest.mark.parametrize("bound", [0, 3, 10])
def test_a_box_scan_classifies_each_point_once(monkeypatch, bound):
    # One call per point through the suites module global, which the
    # benchmark counts and the CLI tests patch.
    seen, real = [], suites.classify_pair
    monkeypatch.setattr(suites, "classify_pair", lambda p: seen.append(p) or real(p))
    assert suites.run_pairs(bound).ok
    span = range(-bound, bound + 1)
    assert len(seen) == (2 * bound + 1) ** 2
    assert seen == [(x, y) for x in span for y in span]


@pytest.mark.parametrize("bound", [0, 1, 10, 10**6, 10**15])
def test_enumerate_pairs_lists_sorted_dimpairs(bound):
    f = fib_by_addition(-90, 90)  # f(i) is f[i + 90]; |f(±75)| > 10**15
    literal = {(f[t + 90], f[t + 90 + d]) for t in range(-88, 89) for d in (2, -2)}
    want = {pt for x, y in literal for pt in ((x, y), (-x, -y)) if max(map(abs, pt)) <= bound}
    got = enumerate_pairs(bound)
    assert all(type(p) is DimPair for p, _ in got)
    assert [tuple(p) for p, _ in got] == sorted(want)
    assert all(verdict == classify_pair(p) for p, verdict in got)


def test_enumerate_pairs_matches_box_scan():
    bound = 60
    listed = {tuple(p) for p, _ in enumerate_pairs(bound)}
    scanned = {
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if abs(x * x + y * y - 3 * x * y) == 1
    }
    assert listed == scanned


@settings(max_examples=200)
@given(st.integers(-300, 300))
def test_classifier_accepts_every_literal_pair(t):
    for direction in (UP, DOWN):
        p = fib_pair(t, direction)
        got = classify_pair(p)
        want = EVEN_PAIR if t % 2 == 0 else ODD_PAIR
        assert got.kind == want
