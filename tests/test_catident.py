"""Vector identities along paths, the pair pushdown, and scalar corollaries."""

import pytest

from fibquiver import catident, reflect, suites
from fibquiver.catident import (
    check_cor42,
    check_cor43,
    check_prop41,
    path_variants,
    require_walk,
    _sum_check,
    straight_path,
)
from fibquiver.errors import OracleCapExceeded
from fibquiver.fibcore import DimPair, classify_pair, family_index, fib, fib_pair, fib_range
from fibquiver.reflect import Families, TreeVector, edge_unit, parity_sums, r_vec, r_vec_at, s_vec, s_vec_at, unit
from fibquiver.tree import BASE, neighbors
from test_mutants import MUTANTS, SCALED


def _record_waves(monkeypatch):
    """Count every wave: the list gets each one's center, parity and input."""
    waves = []
    real = reflect.big_sigma

    def recorded(a, x, parity):
        waves.append((x, parity, frozenset(a.items())))
        return real(a, x, parity)

    monkeypatch.setattr(reflect, "big_sigma", recorded)
    return waves


def test_walk_validation():
    assert require_walk(["0", BASE, "1"], 3) == ("0", BASE, "1")
    assert require_walk((BASE, "0", "00"), 3) == (BASE, "0", "00")
    with pytest.raises(ValueError, match="path vertices '', '00' are not neighbors"):
        require_walk((BASE, "00"), 2)
    with pytest.raises(ValueError, match="backtracks at ''"):
        require_walk(("00", "0", BASE, "0", "01"), 5)  # in the middle
    with pytest.raises(ValueError, match="backtracks at '0'"):
        require_walk(("00", "0", "00"), 3)  # at an anchor
    with pytest.raises(ValueError, match="need 4 walk vertices, got 3"):
        require_walk((BASE, "0", "00"), 4)
    # The checks validate the walks they are given.
    with pytest.raises(ValueError, match="are not neighbors"):
        check_cor42(1, (BASE, "00"), Families())
    with pytest.raises(ValueError, match="backtracks"):
        check_cor43(0, ("0", BASE, "0"), Families())
    with pytest.raises(ValueError, match="need 3 walk vertices"):
        check_cor43(0, (BASE, "0"), Families())


@pytest.mark.parametrize(
    "call,bad",
    [
        (lambda: require_walk([None, "0"], 2), None),
        (lambda: require_walk(["3", "30"], 2), "3"),  # "3" and "30" are one letter apart, but name no vertex
        (lambda: check_cor42(1, [3, 4], Families()), 3),
        (lambda: check_cor43(0, ["0", BASE, "1x"], Families()), "1x"),
    ],
    ids=["None", "letter 3", "int", "cor43 far end"],
)
def test_a_walk_vertex_that_is_not_a_word_is_refused_by_name(call, bad):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"not a canonical vertex address: {bad!r}"


def test_prop41_refuses_a_letter_that_is_not_a_base_neighbor():
    for letter in ("3", BASE, "00"):
        with pytest.raises(ValueError) as exc:
            check_prop41(1, Families(), y_letter=letter)
        assert str(exc.value) == f"y_letter must be one of ['0', '1', '2'], got {letter!r}"


def test_prop41_smallest_step_by_hand():
    assert check_prop41(1, Families()) is None
    # Both sides literally: entry 1 at the base and all three neighbors.
    lhs = s_vec(1)
    rhs = s_vec_at(0, "0").add(r_vec(1))
    assert lhs.equals(rhs)
    assert dict(lhs.items()) == {BASE: 1, "0": 1, "1": 1, "2": 1}


def test_prop41_all_steps_and_markings():
    for t in range(1, 7):
        for letter in "012":
            failure = check_prop41(t, Families(), y_letter=letter)
            assert failure is None, (t, letter, failure)


def test_prop41_scalar_shadow():
    for t in range(1, 100):
        assert fib(2 * t + 2) == fib(2 * t) + fib(2 * t + 1)


def test_cor42_smallest_step():
    assert check_cor42(1, (BASE, "0"), Families()) is None
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
    walk = straight_path(3)
    assert check_cor43(0, walk, Families()) is None
    lhs = r_vec_at(1, walk[1], walk[2])
    rhs = edge_unit(walk[0], walk[1]).add(s_vec_at(0, "01"))  # z_0: the neighbor of "0" off the walk
    assert lhs.equals(rhs)


def test_cor43_scalar_examples():
    assert fib(5) == 1 + 1 + 3  # t = 2
    assert fib(9) == 1 + 1 + 3 + 8 + 21  # t = 4
    F = fib_range(0, 2003)
    acc = 0
    for t in range(0, 1001):
        assert F[2 * t + 1] == 1 + acc
        acc += F[2 * t + 2]


def _walks_from_the_base(n):
    """Every n-vertex non-backtracking walk from the base: such a walk only
    moves outward, so it is the prefixes of one word."""
    words = [""]
    for i in range(n - 1):
        words = [w + b for w in words for b in ("01" if i else "012")]
    return [[w[:i] for i in range(n)] for w in words]


def test_identities_hold_on_every_path_shape():
    for t in range(1, 6):
        shapes = path_variants(t + 1)
        assert len(shapes) == 3
        assert len({tuple(s) for s in shapes}) == len(shapes)
        for shape in shapes:
            assert check_cor42(t, shape, Families()) is None, (t, shape)
    for t in range(0, 5):
        for shape in path_variants(t + 3):
            assert check_cor43(t, shape, Families()) is None, (t, shape)


def test_path_variants_are_the_fixed_walks():
    assert path_variants(1) == [[""]]
    # The zigzag is the straight walk, so the walk along "1" is the third.
    assert path_variants(2) == [["", "0"], ["", "2"], ["", "1"]]
    assert path_variants(3) == [["", "0", "00"], ["", "0", "01"], ["1", "", "2"]]
    assert path_variants(6) == [
        ["", "0", "00", "000", "0000", "00000"],
        ["", "0", "01", "010", "0101", "01010"],
        ["1", "", "2", "20", "200", "2000"],
    ]


def test_identities_hold_on_every_walk_from_the_base():
    # Every term depends only on a vertex's projection class on the walk,
    # so the fixed walks suffice; all walks from the base exercise the
    # oracle's addressing on every turn shape.
    assert [len(_walks_from_the_base(n)) for n in range(1, 5)] == [1, 3, 6, 12]
    # 381 walks for Cor. 4.2 and 762 for Cor. 4.3.
    grown = Families()
    for t in range(1, 8):
        for walk in _walks_from_the_base(t + 1):
            assert check_cor42(t, walk, grown) is None, (t, walk)
    grown = Families()
    for t in range(0, 7):
        for walk in _walks_from_the_base(t + 3):
            assert check_cor43(t, walk, grown) is None, (t, walk)


def test_no_family_applies_a_wave_twice_in_a_call(monkeypatch):
    # Within one call each family is asked for a wave count at least the
    # one it holds, so it grows on and never regrows; only wave 0 is built
    # afresh, as a start. No wave repeats an input either.
    requests = []
    real = Families.at
    monkeypatch.setattr(Families, "at", lambda self, t, *key: requests.append((key, t))
                        or real(self, t, *key))
    waves = _record_waves(monkeypatch)
    for run in (lambda: suites.run_prop41(6), lambda: suites.run_cor42(8),
                lambda: suites.run_cor43(7), lambda: suites.run_oracle(8)):
        requests.clear()
        waves.clear()
        assert run().ok
        held = {}
        for key, t in requests:
            if t:
                assert t >= held.get(key, 0), (key, t)
                held[key] = t
        assert requests and held
        assert len(set(waves)) == len(waves)


def test_paths_can_turn_through_the_base():
    walk = ["1", BASE, "2", "20", "200"]
    assert check_cor42(4, walk, Families()) is None
    assert check_cor43(2, walk, Families()) is None


def test_a_broken_identity_is_named_in_the_verdict(monkeypatch):
    walk = ("1", BASE, "2", "20")
    assert check_cor42(3, walk, Families()) is None
    # Under the scaled reflection Cor. 4.2 still holds entry by entry, so
    # only its push-down names the fault: the pair it reached, and the one
    # it should have.
    MUTANTS[SCALED][0](monkeypatch)
    assert check_cor42(1, (BASE, "0"), Families()) == "filtration-sum push-down (1, 6) is not the EvenPair (f(2), f(4))"
    assert check_cor42(3, walk, Families()) == "filtration-sum push-down (35, 204) is not the EvenPair (f(6), f(8))"
    # A vector identity that fails is named before any push-down is read.
    assert check_cor43(2, straight_path(5), Families()) == "side-branch-sum first differing vertex '': lhs 8, rhs 1"


def test_a_push_down_read_from_the_wrong_side_is_named_with_its_pair(monkeypatch):
    # With the parity sums swapped every vector identity holds, and each
    # kind of lhs names the pair it should have pushed down to.
    MUTANTS["oracle parity sums with minus and plus swapped"][0](monkeypatch)
    assert check_prop41(2, Families(), y_letter="1") == (
        "vertex-splits-into-neighbor-plus-edge push-down (8, 3) is not the EvenPair (f(4), f(6))"
    )
    assert check_cor43(2, straight_path(5), Families()) == "side-branch-sum push-down (13, 5) is not the OddPair (f(5), f(7))"


def test_a_failed_check_names_the_first_differing_vertex():
    # In (length, word) order "2" comes before "01", and "01" before "10".
    terms = [TreeVector({"10": 2}), TreeVector({"10": 3})]
    failure = _sum_check("x", TreeVector({"10": 1, "01": 2, "2": 3}), terms)
    assert failure == "x first differing vertex '2': lhs 3, rhs 0"
    failure = _sum_check("x", TreeVector({"10": 1, "01": 2}), terms)
    assert failure == "x first differing vertex '01': lhs 2, rhs 0"
    assert _sum_check("x", TreeVector({"10": 5}), terms) is None
    # A vertex only the sum holds, and entries that cancel across the terms.
    failure = _sum_check("x", TreeVector({"10": 5}), [*terms, TreeVector({"2": 1})])
    assert failure == "x first differing vertex '2': lhs 0, rhs 1"
    assert _sum_check("x", TreeVector({}), [TreeVector({"0": 1}), TreeVector({"0": -1})]) is None


def test_a_failed_check_names_a_code_that_names_no_vertex_as_such():
    # A faulty oracle can leave entries at codes below the base's 2 (or with
    # the head 111); the sides are compared by code, so none is read as a word.
    failure = _sum_check("x", TreeVector._trusted({3: 2}, {1: 1, 5: 1}), [TreeVector._trusted({}, {5: 1})])
    assert failure == "x first differing code 1, which names no vertex: lhs 1, rhs 0"
    failure = _sum_check("x", TreeVector._trusted({9: 1}, {7: 1}), [TreeVector({"01": 2})])
    assert failure == "x first differing code 7, which names no vertex: lhs 1, rhs 0"
    failure = _sum_check("x", TreeVector._trusted({9: 1}, {}), [TreeVector({"01": 2})])
    assert failure == "x first differing vertex '01': lhs 1, rhs 2"


def test_a_failed_check_names_the_class_that_holds_a_misplaced_entry():
    # s_1 with its two color classes swapped: vertex '0' (depth 1) is held
    # in the even-depth dict, where no check of its own class reads it.
    swapped = TreeVector._trusted({4: 1, 5: 1, 6: 1}, {2: 1})
    failure = _sum_check("x", swapped, [s_vec(1)])
    assert failure == "x first differing vertex '': lhs 0, rhs 1; the lhs holds 1 there in the odd-depth class"
    failure = _sum_check("x", s_vec(1), [swapped])
    assert failure == "x first differing vertex '': lhs 1, rhs 0; the rhs holds 1 there in the odd-depth class"
    failure = _sum_check("x", TreeVector._trusted({2: 1, 4: 1}, {5: 1, 6: 1}), [s_vec(1)])
    assert failure == "x first differing vertex '0': lhs 0, rhs 1; the lhs holds 1 there in the even-depth class"


def test_caps_are_enforced():
    with pytest.raises(OracleCapExceeded):
        check_prop41(13, Families())
    with pytest.raises(OracleCapExceeded):
        check_cor43(12, straight_path(15), Families())
    with pytest.raises(OracleCapExceeded):
        check_cor42(3, straight_path(4), Families(cap=2))
    with pytest.raises(ValueError):
        check_cor42(0, straight_path(1), Families())


def test_a_raised_cap_reaches_every_vector_a_check_grows():
    # Each check grows a vector of 13 waves in its table.
    checks = (
        lambda grown: check_prop41(13, grown, y_letter="1"),
        lambda grown: check_cor42(13, straight_path(14), grown),
        lambda grown: check_cor43(12, straight_path(15), grown),
    )
    raised = Families(cap=13)
    assert all(check(raised) is None for check in checks)
    for check in checks:
        with pytest.raises(OracleCapExceeded) as refused:
            check(Families())
        assert (refused.value.t, refused.value.cap) == (13, 12)


def test_pushdown_examples():
    assert DimPair(*parity_sums(s_vec(2), 2)) == DimPair(3, 8)
    assert DimPair(*parity_sums(r_vec(3), 3)) == DimPair(5, 13)
    assert DimPair(*parity_sums(s_vec(0).add(TreeVector({BASE: -1})), 0)) == DimPair(0, 0)


@pytest.mark.parametrize("x", [BASE, "0", "01", "011"])
def test_every_family_pushes_down_to_its_pair_measured_from_its_center(x):
    # The push-down rule of the identity checks, at centers of depths 0..3:
    # from a center at odd depth the base's two parity classes swap. The
    # literal pairs are the oracle; `family_index` must name the same ones.
    for i in range(9):
        assert parity_sums(s_vec_at(i, x), i + len(x)) == (fib(2 * i), fib(2 * i + 2))
        assert fib_pair(family_index(i, False)) == (fib(2 * i), fib(2 * i + 2))
        for y in neighbors(x):
            assert parity_sums(r_vec_at(i, x, y), i + len(x)) == (fib(2 * i - 1), fib(2 * i + 1))
        assert fib_pair(family_index(i, True)) == (fib(2 * i - 1), fib(2 * i + 1))


def test_pushdown_lands_on_classified_pairs():
    for t in range(9):
        assert classify_pair(DimPair(*parity_sums(s_vec(t), t))).kind == "EvenPair"
        assert classify_pair(DimPair(*parity_sums(r_vec(t), t))).kind == "OddPair"


@pytest.mark.parametrize("run,most", [(lambda: suites.run_prop41(6), 59), (lambda: suites.run_oracle(8), 16)])
def test_a_suite_grows_each_family_once(monkeypatch, run, most):
    # Regrowing every vector for every check made 261 and 56 waves. Grown
    # once per family, no wave repeats an input.
    waves = _record_waves(monkeypatch)
    assert run().ok
    assert len(waves) <= most
    assert len(set(waves)) == len(waves)
    # The next call keeps nothing from this one, so it grows them all again.
    first = list(waves)
    waves.clear()
    assert run().ok
    assert waves == first


@pytest.mark.parametrize("suite", ["prop41", "cor42", "cor43", "oracle"])
def test_a_suite_builds_one_table(monkeypatch, suite):
    # Every vector of the call, each walk's far end included, is drawn
    # from the suite's own table.
    tables = []
    real = reflect.Families
    monkeypatch.setattr(reflect, "Families", lambda *args: tables.append(real(*args)) or tables[-1])
    assert suites.SUITES[suite](4).ok
    assert len(tables) == 1


@pytest.mark.parametrize("t", range(1, 7))
def test_every_far_end_is_the_vector_grown_alone(monkeypatch, t):
    # The far end a check reads from the shared table equals the same
    # family grown in a table of its own.
    far = []
    real = catident._check
    monkeypatch.setattr(catident, "_check", lambda families, statements: far.append(
        families.at(*statements[0][1][1:])) or real(families, statements))
    grown = Families()
    for walk in path_variants(t + 1):
        assert check_cor42(t, walk, grown) is None
        assert far[-1].equals(s_vec_at(t, walk[-1]))
    for walk in path_variants(t + 3):
        assert check_cor43(t, walk, grown) is None
        assert far[-1].equals(r_vec_at(t + 1, walk[-2], walk[-1]))


def _broken_wave(monkeypatch):
    """Every even wave also adds 1 at its center."""
    real = reflect.big_sigma
    monkeypatch.setattr(
        reflect, "big_sigma",
        lambda a, x, parity: real(a, x, parity).add(unit(x)) if parity == "even" else real(a, x, parity),
    )


@pytest.mark.parametrize("suite", ["prop41", "cor42", "cor43"])
def test_one_table_per_suite_keeps_every_verdict(monkeypatch, suite):
    # Under a broken wave the suite's shared table and a table of each
    # check's own name the same failures.
    _broken_wave(monkeypatch)
    if suite == "prop41":
        result = suites.run_prop41(4)
        cases = [(f"t={t} y={y!r}", check_prop41(t, Families(), y_letter=y)) for t in range(1, 5) for y in "012"]
    elif suite == "cor42":
        result = suites.run_cor42(4)
        cases = [(f"t={t} path={w}", check_cor42(t, w, Families())) for t in range(1, 5) for w in path_variants(t + 1)]
    else:
        result = suites.run_cor43(3)
        cases = [(f"t={t} path={w}", check_cor43(t, w, Families())) for t in range(0, 4) for w in path_variants(t + 3)]
    failures = [f"{label}: {failure}" for label, failure in cases if failure is not None]
    assert failures and not result.ok
    assert result.failures == failures[: suites.MAX_REPORTED_FAILURES]


def test_a_wrong_push_down_is_named_in_every_check_that_reads_it(monkeypatch):
    # Every push-down is read through the classifier: prop41(6) pushes 36
    # lhs down onto 12 pairs, each as often as a check reads it.
    calls = []
    real = catident.classify_pair
    monkeypatch.setattr(catident, "classify_pair", lambda p: calls.append(p) or real(p))
    assert suites.run_prop41(6).ok
    assert sorted(calls) == sorted(3 * [(fib(2 * i), fib(2 * i + 2)) for i in range(1, 7)]
                                   + 3 * [(fib(2 * i - 1), fib(2 * i + 1)) for i in range(1, 7)])
    # A pair that is not read as its Fibonacci pair is named in every check
    # that pushes it down.
    MUTANTS["oracle parity sums with minus and plus swapped"][0](monkeypatch)
    fresh = [f"t={t} y={y!r}: {check_prop41(t, Families(), y_letter=y)}" for t in (1, 2) for y in "012"]
    result = suites.run_prop41(2)
    assert not result.ok and result.failures == fresh[: suites.MAX_REPORTED_FAILURES]
    assert all(" push-down " in failure for failure in fresh)
