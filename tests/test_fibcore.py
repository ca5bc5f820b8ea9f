"""Integer-index Fibonacci arithmetic, the quadratic form, and pair classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibquiver.fibcore import (
    DOWN,
    DimPair,
    EVEN_PAIR,
    NOT_A_PAIR,
    ODD_PAIR,
    UP,
    Witness,
    _descend,
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
        ops, seed = _descend(DimPair(*pt))
        path = [DimPair(*pt)]
        for op in ops:
            path.append(sigma_plus(path[-1]) if op == "plus" else sigma_minus(path[-1]))
        assert path[-1] == seed
        norms = [abs(p.x) + abs(p.y) for p in path]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        last = path[-1]
        assert max(abs(last.x), abs(last.y)) <= 1


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
