"""The literal reflection oracle: vectors, waves, and their coordinate sums."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibquiver import profiles, reflect
from fibquiver.catident import path_variants
from fibquiver.errors import OracleCapExceeded
from fibquiver.fibcore import fib
from fibquiver.reflect import (
    Families,
    TreeVector,
    big_sigma,
    edge_unit,
    parity_sums,
    r_vec,
    r_vec_at,
    s_vec,
    s_vec_at,
    unit,
)
from fibquiver.tree import BASE, code, distance, neighbors, word
import reference
from reference import ball, sigma

vertices = st.one_of(
    st.just(BASE),
    st.tuples(st.sampled_from("012"), st.text(alphabet="01", max_size=5)).map(
        lambda t: t[0] + t[1]
    ),
)
small_vectors = st.dictionaries(vertices, st.integers(-5, 5), max_size=6).map(TreeVector)


def entries(v):
    return dict(v.items())


def negation(v):
    return TreeVector({w: -c for w, c in v.items()})


def test_unit_and_edge_unit():
    assert entries(unit(BASE)) == {BASE: 1}
    assert entries(unit("0")) == {"0": 1}
    assert len(unit("0").support()) == 1
    e = edge_unit(BASE, "0")
    assert entries(e) == {BASE: 1, "0": 1}
    assert sum(c for _, c in e.items()) == 2
    assert len(e.support()) == 2
    with pytest.raises(ValueError, match="'' and '00' are at distance 2, not 1"):
        edge_unit(BASE, "00")


def test_zero_entries_are_dropped():
    v = TreeVector({"0": 0, "1": 2})
    assert entries(v) == {"1": 2}
    assert entries(TreeVector({})) == {}


def test_sigma_examples():
    assert entries(sigma(unit(BASE), "0")) == {BASE: 1, "0": 1}
    assert entries(sigma(unit(BASE), BASE)) == {BASE: -1}


@given(small_vectors, vertices)
def test_sigma_is_an_involution(a, y):
    assert sigma(sigma(a, y), y).equals(a)


@given(small_vectors, vertices, vertices)
def test_distant_reflections_commute(a, y1, y2):
    assume(distance(y1, y2) != 1)
    assert sigma(sigma(a, y1), y2).equals(sigma(sigma(a, y2), y1))


def test_big_sigma_first_wave():
    got = big_sigma(unit(BASE), BASE, "odd")
    assert entries(got) == {BASE: 1, "0": 1, "1": 1, "2": 1}


def test_big_sigma_on_zero():
    assert entries(big_sigma(TreeVector({}), BASE, "even")) == {}
    assert entries(big_sigma(TreeVector({}), BASE, "odd")) == {}


def test_big_sigma_rejects_bad_parity():
    with pytest.raises(ValueError):
        big_sigma(TreeVector({}), BASE, "both")


@given(small_vectors, vertices, st.sampled_from(["even", "odd"]), st.integers(0, 2**32))
@settings(max_examples=40)
def test_big_sigma_equals_any_sequential_order(a, x, parity, seed):
    bit = 0 if parity == "even" else 1
    sites = {v for v in dict(a.items())}
    for v in dict(a.items()):
        sites.update(neighbors(v))
    sites = [v for v in sites if distance(x, v) % 2 == bit]
    random.Random(seed).shuffle(sites)
    seq = a
    for y in sites:
        seq = sigma(seq, y)
    assert seq.equals(big_sigma(a, x, parity))


@given(small_vectors, vertices, st.sampled_from(["even", "odd"]))
@settings(max_examples=200)
def test_big_sigma_equals_the_word_route(a, x, parity):
    assert big_sigma(a, x, parity).equals(reference.big_sigma(a, x, parity))


@given(small_vectors, vertices, st.sampled_from(["even", "odd"]))
@settings(max_examples=200)
def test_wave_and_parity_sums_equal_the_earlier_code_routes(a, x, parity):
    assert big_sigma(a, x, parity).equals(reference.code_big_sigma(a, x, parity))
    for t in (0, 1):
        assert parity_sums(a, t) == reference.code_parity_sums(a, t)


# Entries at the base region, where a parent is not c >> 1: codes 1 and 3
# stand for "2" (code 6) and the base (code 2).
BASE_REGION = (BASE, "0", "1", "2", "20", "21")


@pytest.mark.parametrize("center", [BASE, "0", "2"])
@pytest.mark.parametrize("values", [(1, 2, 3, 5, 7, 11), (1, 1, 1, 1, 1, 1), (1, -1, 2, 1, -1, 1)])
def test_wave_at_the_base_region_equals_the_earlier_code_route(center, values):
    a = TreeVector(dict(zip(BASE_REGION, values)))
    for parity in ("even", "odd"):
        got = big_sigma(a, center, parity)
        assert entries(got) == entries(reference.code_big_sigma(a, center, parity)), parity
        assert entries(got) == entries(reference.big_sigma(a, center, parity)), parity
        for t in (0, 1):
            assert parity_sums(got, t) == reference.code_parity_sums(got, t)


@pytest.mark.parametrize("center", [BASE, "1", "201"])
def test_grown_vectors_equal_the_word_route(center):
    for t, want in enumerate(reference.grown(unit(center), center, 9)):
        assert entries(s_vec_at(t, center)) == entries(want), t
    for y in neighbors(center):
        for t, want in enumerate(reference.grown(edge_unit(center, y), center, 9)):
            assert entries(r_vec_at(t, center, y)) == entries(want), (y, t)


@given(small_vectors)
def test_items_are_sized_and_speak_words(a):
    pairs = list(a.items())
    assert len(a.items()) == len(pairs) == len(a.support())
    assert sorted(v for v, _ in pairs) == sorted(a.support())
    assert all(word(code(v)) == v and c != 0 for v, c in pairs)


@given(small_vectors)
def test_support_is_in_length_then_word_order(a):
    support = a.support()
    assert support == sorted(support, key=lambda v: (len(v), v))
    assert a.support_radius() == max(map(len, support), default=0)
    assert repr(a) == f"TreeVector({ {v: a.value(v) for v in support}!r})"


def held_by_color(vec):
    """Every entry sits in the color class of its code's bit-length parity,
    none is zero, and the sized items count the support."""
    for parity, entries in enumerate(vec._classes):
        assert all(c.bit_length() & 1 == parity and v != 0 for c, v in entries.items()), vec._classes
    assert len(vec.items()) == len(vec.support())


@given(small_vectors, small_vectors, vertices, st.sampled_from(["even", "odd"]), st.integers(0, 6))
@settings(max_examples=60)
def test_every_vector_holds_each_entry_in_the_class_of_its_depth(a, b, x, parity, t):
    results = [a, unit(x), a.add(b), a.add(negation(a)), a.add(negation(b)), big_sigma(a, x, parity)]
    results += [edge_unit(x, y) for y in neighbors(x)]
    results += [profiles.expand_radial(profiles.radial_profile(t)), profiles.expand_biradial(profiles.u_profile(t))]
    results += [s_vec_at(t, x), r_vec_at(t, x, neighbors(x)[0])]
    for vec in results:
        held_by_color(vec)


# (start, center, parity, result): waves in which some site's sum cancels to
# zero; in all but the second, a cancelled sum crosses the base region's
# parent fix-up.
CANCELLING = [
    ({BASE: 1, "0": 1, "1": 1, "2": 1}, BASE, "odd", {BASE: 1}),
    ({BASE: 1, "0": 1}, "0", "even", {BASE: 1, "1": 1, "2": 1}),
    ({BASE: 1, "2": 1, "20": 1, "21": 1}, "201", "odd", {"2": 1}),
    ({BASE: 1, "2": 1, "0": 1, "1": -1}, "2", "odd",
     {"0": 1, "1": -1, "2": 1, "00": 1, "01": 1, "10": -1, "11": -1, "20": 1, "21": 1}),
]


@pytest.mark.parametrize("start,center,parity,want", CANCELLING)
def test_a_wave_drops_the_sites_it_cancels(start, center, parity, want):
    a = TreeVector(start)
    got = big_sigma(a, center, parity)
    assert entries(got) == want
    assert got.equals(reference.big_sigma(a, center, parity))
    assert got.equals(reference.code_big_sigma(a, center, parity))
    held_by_color(got)


@pytest.mark.parametrize("center", ["0", "2", "010", "21101"])
def test_waves_around_a_center_at_odd_depth_equal_both_reference_routes(center):
    starts = [unit(center), *(edge_unit(center, y) for y in neighbors(center)), TreeVector({BASE: 3, center: -2})]
    for a in starts:
        for i in range(5):
            parity = "even" if i % 2 else "odd"
            got = big_sigma(a, center, parity)
            assert got.equals(reference.big_sigma(a, center, parity)), (a, i)
            assert got.equals(reference.code_big_sigma(a, center, parity)), (a, i)
            for t in (0, 1):
                assert parity_sums(got, t) == reference.code_parity_sums(got, t)
            a = got


@given(small_vectors, small_vectors, vertices, st.sampled_from(["even", "odd"]), st.integers(0, 3))
@settings(max_examples=40)
def test_every_result_key_is_canonical(a, b, x, parity, t):
    # Results skip the constructor's address check, so their keys must be
    # canonical by construction.
    results = [a.add(b), a.add(negation(b)), big_sigma(a, x, parity), s_vec_at(t, x)]
    results += [r_vec_at(t, x, y) for y in neighbors(x)]
    for vec in results:
        assert all(word(code(v)) == v for v, _ in vec.items())


@pytest.mark.parametrize(
    "build",
    [
        lambda: TreeVector({"3": 1}),
        lambda: unit("0x"),
        lambda: edge_unit(BASE, "3"),
        lambda: sigma(unit(BASE), "3"),
        lambda: big_sigma(unit(BASE), "3", "odd"),
    ],
)
def test_non_canonical_addresses_are_refused(build):
    with pytest.raises(ValueError, match="not a canonical vertex address"):
        build()


def test_a_non_word_edge_end_is_refused_by_name_before_its_distance_is_taken():
    for build in (lambda: edge_unit(None, "0"), lambda: Families().at(1, None, "0")):
        with pytest.raises(ValueError, match="^not a canonical vertex address: None$"):
            build()
    with pytest.raises(ValueError, match="^not a canonical vertex address: 3$"):
        edge_unit("0", 3)


@pytest.mark.parametrize("value", [1.5, True])
def test_non_int_entries_are_refused(value):
    with pytest.raises(ValueError, match=f"entry at vertex '0' is not an int: {value}"):
        TreeVector({"0": value})


def test_s_vec_small_steps():
    assert entries(s_vec(0)) == {BASE: 1}
    assert entries(s_vec(1)) == {BASE: 1, "0": 1, "1": 1, "2": 1}
    s2 = s_vec(2)
    assert s2.value(BASE) == 2
    assert all(s2.value(v) == 1 for v in ball(BASE, 2) if v != BASE)
    assert parity_sums(s2, 2) == (3, 8)


def test_r_vec_small_steps():
    assert entries(r_vec(0)) == {BASE: 1, "0": 1}
    # One wave kills the marked neighbor and lights the other two.
    assert entries(r_vec(1)) == {BASE: 1, "1": 1, "2": 1}
    assert parity_sums(r_vec(2), 2) == (2, 5)
    assert parity_sums(r_vec(4), 4) == (13, 34)


def test_r_vec_matches_published_pictures():
    # Entry values for 0..5 waves, keyed by (distance, behind-marked-edge).
    by_class = {
        0: {(0, False): 1, (1, True): 1},
        1: {(0, False): 1, (1, False): 1},
        2: {(0, False): 1, (1, False): 1, (2, False): 1},
        3: {(0, False): 1, (1, True): 1, (1, False): 2, (2, False): 1, (3, False): 1},
        4: {
            (0, False): 4, (1, True): 1, (1, False): 2, (2, True): 1,
            (2, False): 3, (3, False): 1, (4, False): 1,
        },
        5: {
            (0, False): 4, (1, True): 5, (1, False): 8, (2, True): 1, (2, False): 3,
            (3, True): 1, (3, False): 4, (4, False): 1, (5, False): 1,
        },
    }
    for t, want in by_class.items():
        vec = r_vec(t)
        for z in ball(BASE, t + 1):
            through = z.startswith("0") and z != BASE
            assert vec.value(z) == want.get((len(z), through), 0), (t, z)


def test_parity_sums_zero_vector():
    assert parity_sums(TreeVector({}), 0) == (0, 0)


def test_fibonacci_sums_up_to_eight_waves():
    for t in range(9):
        assert parity_sums(s_vec(t), t) == (fib(2 * t), fib(2 * t + 2))
        assert parity_sums(r_vec(t), t) == (fib(2 * t - 1), fib(2 * t + 1))


def test_vectors_stay_non_negative():
    for t in range(9):
        assert all(c >= 0 for _, c in s_vec(t).items())
        assert all(c >= 0 for _, c in r_vec(t).items())


def _sums_around(a, center, t):
    # parity_sums with distances taken from center instead of the base.
    minus = plus = 0
    for v, c in a.items():
        if distance(center, v) % 2 == t % 2:
            plus += c
        else:
            minus += c
    return minus, plus


def test_off_center_oracle():
    # Growing from another vertex is the translated picture: sums agree.
    v = s_vec_at(3, "01")
    assert v.value("01") == 2
    assert _sums_around(v, "01", 3) == (fib(6), fib(8))
    w = r_vec_at(2, "01", "0")
    assert _sums_around(w, "01", 2) == (fib(3), fib(5))


def test_a_family_grows_on_from_its_latest_vector():
    families = Families()
    s3 = families.at(3, "0")
    assert s3.equals(s_vec_at(3, "0"))
    assert families.at(3, "0") is s3  # the same wave count is not regrown
    assert families.at(5, "0").equals(s_vec_at(5, "0"))
    assert families.at(2, "0").equals(s_vec_at(2, "0"))  # an earlier one regrows from the start
    assert families.at(4, BASE, "1").equals(r_vec_at(4, BASE, "1"))
    assert families.at(4, "1", BASE).equals(r_vec_at(4, "1", BASE))  # another start, another family
    with pytest.raises(OracleCapExceeded):
        Families(cap=3).at(4, "0")
    with pytest.raises(ValueError):
        families.at(-1, BASE, "1")
    with pytest.raises(ValueError, match="are at distance 2, not 1"):
        families.at(1, BASE, "00")


def test_a_table_builds_each_start_once_and_keeps_only_grown_vectors():
    families = Families()
    start = families.at(0, "0")
    assert start.equals(unit("0"))
    assert families.at(0, "0").equals(start)  # wave 0 is the start, built afresh
    assert families.at(0, BASE, "1").equals(edge_unit(BASE, "1"))
    assert families._grown == {}  # no family grown past its start yet
    s3 = families.at(3, "0")
    assert families.at(0, "0").equals(start)
    assert families.at(3, "0") is s3  # asking for the start kept the grown vector
    assert list(families._grown) == [("0",)]  # the start is not held, only the grown vector


def test_a_start_of_one_word_is_a_vertex_family_and_of_two_an_edge_family():
    # The start alone names the family: (x,) is s_t(x), (x, y) is r_t(x, y).
    steps = {step for walk in path_variants(4) for a, b in zip(walk, walk[1:]) for step in ((a, b), (b, a))}
    for t in range(5):
        for x, y in steps:
            assert Families().at(t, x).equals(s_vec_at(t, x)), (t, x)
            assert Families().at(t, x, y).equals(r_vec_at(t, x, y)), (t, x, y)
    families = Families()
    families.at(3, "0")
    families.at(3, "0", BASE)
    assert list(families._grown) == [("0",), ("0", BASE)]


def test_no_grown_vector_outlives_its_call(monkeypatch):
    waves = []
    real = reflect.big_sigma
    monkeypatch.setattr(reflect, "big_sigma", lambda a, x, parity: waves.append(x) or real(a, x, parity))
    for grow in (lambda: s_vec(4), lambda: r_vec(4), lambda: Families().at(4, BASE)):
        for _ in range(2):
            waves.clear()
            grow()
            assert len(waves) == 4


def test_oracle_cap():
    with pytest.raises(OracleCapExceeded):
        s_vec(13)
    with pytest.raises(OracleCapExceeded):
        r_vec(4, cap=3)
    assert s_vec(5, cap=5).value(BASE) == 7
    with pytest.raises(ValueError):
        s_vec(-1)


def test_group_operations():
    a = s_vec(2)
    assert a.add(TreeVector({})).equals(a)
    assert entries(a.add(negation(a))) == {}
    assert unit(BASE).add(unit("0")).equals(edge_unit(BASE, "0"))


@given(small_vectors, small_vectors)
def test_addition_is_commutative_and_cancels(a, b):
    assert a.add(b).equals(b.add(a))
    assert a.add(b).add(negation(b)).equals(a)
