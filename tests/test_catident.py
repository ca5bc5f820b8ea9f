"""Vector identities along paths, the pair pushdown, and scalar corollaries."""

import pytest

from fibquiver.catident import (
    IdentityReport,
    PathSpec,
    check_cor42,
    check_cor43,
    check_prop41,
    path_variants,
    random_path,
    straight_path,
    third_neighbor,
)
from fibquiver.errors import NotNeighbors, OracleCapExceeded
from fibquiver.fibcore import DimPair, classify_pair, fib, fib_range
from fibquiver.reflect import edge_unit, parity_sums, r_vec, r_vec_at, s_vec, s_vec_at, unit
from fibquiver.tree import BASE


def test_pathspec_validation():
    PathSpec(("0", BASE, "1"))
    PathSpec((BASE, "0"), after="00")
    with pytest.raises(NotNeighbors):
        PathSpec((BASE, "00"))
    with pytest.raises(ValueError):
        PathSpec(("0", BASE, "0"))  # backtracking
    with pytest.raises(ValueError):
        PathSpec((BASE, "0"), before="0")  # anchor backtracks


def test_third_neighbor():
    assert third_neighbor(BASE, "0", "1") == "2"
    assert third_neighbor("0", BASE, "00") == "01"
    with pytest.raises(ValueError):
        third_neighbor(BASE, "0", "0")


def test_prop41_smallest_step_by_hand():
    rep = check_prop41(1)
    assert rep.ok
    # Both sides literally: entry 1 at the base and all three neighbors.
    lhs = s_vec(1)
    rhs = s_vec_at(0, "0").add(r_vec(1))
    assert lhs.equals(rhs)
    assert dict(lhs.items()) == {BASE: 1, "0": 1, "1": 1, "2": 1}


def test_prop41_all_steps_and_markings():
    for t in range(1, 7):
        for letter in "012":
            rep = check_prop41(t, y_letter=letter)
            assert isinstance(rep, IdentityReport)
            assert rep.ok, (t, letter, rep.first_failure())


def test_prop41_scalar_shadow():
    for t in range(1, 100):
        assert fib(2 * t + 2) == fib(2 * t) + fib(2 * t + 1)


def test_cor42_smallest_step():
    rep = check_cor42(1)
    assert rep.ok
    assert s_vec_at(1, "0").equals(unit(BASE).add(r_vec_at(1, "0", BASE)))


def test_cor42_scalar_examples():
    assert fib(6) == 1 + 2 + 5  # t = 3
    assert fib(10) == 1 + 2 + 5 + 13 + 34  # t = 5
    F = fib_range(0, 2001)
    acc = 0
    for t in range(1, 1001):
        acc += F[2 * t - 1]
        assert F[2 * t] == acc


def test_cor43_smallest_step():
    rep = check_cor43(0)
    assert rep.ok
    walk = straight_path(3)
    lhs = r_vec_at(1, walk[1], walk[2])
    rhs = edge_unit(walk[0], walk[1]).add(s_vec_at(0, third_neighbor(walk[1], walk[0], walk[2])))
    assert lhs.equals(rhs)


def test_cor43_scalar_examples():
    assert fib(5) == 1 + 1 + 3  # t = 2
    assert fib(9) == 1 + 1 + 3 + 8 + 21  # t = 4
    F = fib_range(0, 2003)
    acc = 0
    for t in range(0, 1001):
        assert F[2 * t + 1] == 1 + acc
        acc += F[2 * t + 2]


def test_identities_hold_on_every_path_shape():
    for t in range(1, 6):
        shapes = path_variants(t + 1, 4, seed=7)
        assert len(shapes) >= 3
        assert len({tuple(s) for s in shapes}) == len(shapes)
        for shape in shapes:
            assert check_cor42(t, PathSpec(tuple(shape))).ok, (t, shape)
    for t in range(0, 5):
        for shape in path_variants(t + 3, 4, seed=11):
            spec = PathSpec(tuple(shape[1:-1]), before=shape[0], after=shape[-1])
            assert check_cor43(t, spec).ok, (t, shape)


def test_path_variants_returns_at_most_count_shapes():
    assert path_variants(5, 1) == [straight_path(5)]
    # 3 * 2**2 four-vertex walks from the base, plus the one through it.
    shapes = path_variants(4, 100)
    assert len({tuple(s) for s in shapes}) == len(shapes) == 13
    with pytest.raises(ValueError):
        path_variants(4, 0)


def test_seed_draws_only_the_shapes_past_the_fixed_three():
    # The first three shapes are fixed, so with count <= 3 every seed gives
    # the same paths; past three, the seeded random walks differ.
    for n in range(3, 16):
        assert all(path_variants(n, 3, seed) == path_variants(n, 3, 0) for seed in range(50))
    assert len({tuple(map(tuple, path_variants(8, 6, seed))) for seed in range(10)}) > 1


def test_paths_can_turn_through_the_base():
    walk = ["1", BASE, "2", "20", "200"]
    assert check_cor42(4, PathSpec(tuple(walk))).ok
    spec = PathSpec(tuple(walk[1:-1]), before=walk[0], after=walk[-1])
    assert check_cor43(2, spec).ok


def test_random_path_is_valid():
    import random

    rng = random.Random(3)
    for _ in range(20):
        walk = random_path(6, rng)
        PathSpec(tuple(walk))  # validates adjacency and no backtracking


def test_reports_carry_their_checks():
    rep = check_cor42(3)
    assert [c.label for c in rep.checks] == ["filtration-sum", "scalar-shadow"]
    assert all(c.ok for c in rep.checks)
    assert rep.first_failure() is None


def test_caps_are_enforced():
    with pytest.raises(OracleCapExceeded):
        check_prop41(13)
    with pytest.raises(OracleCapExceeded):
        check_cor43(12)
    with pytest.raises(ValueError):
        check_cor42(0)


def test_pushdown_examples():
    assert DimPair(*parity_sums(s_vec(2), 2)) == DimPair(3, 8)
    assert DimPair(*parity_sums(r_vec(3), 3)) == DimPair(5, 13)
    assert DimPair(*parity_sums(s_vec(0).subtract(s_vec(0)), 0)) == DimPair(0, 0)


def test_pushdown_lands_on_classified_pairs():
    for t in range(9):
        assert classify_pair(DimPair(*parity_sums(s_vec(t), t))).kind == "EvenPair"
        assert classify_pair(DimPair(*parity_sums(r_vec(t), t))).kind == "OddPair"
