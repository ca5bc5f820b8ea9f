"""Tree addressing, vertex codes, metric, bounded enumeration and the
side-count formula."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibquiver.profiles import RADIAL, SIGNED
from fibquiver.tree import BASE, code, distance, neighbors, word
from reference import ball, class_sizes, layers

vertices = st.one_of(
    st.just(BASE),
    st.tuples(st.sampled_from("012"), st.text(alphabet="01", max_size=8)).map(
        lambda t: t[0] + t[1]
    ),
)


def test_vertex_validity():
    # code is the one parser of a word: canonical words round-trip through
    # word, and anything else is refused by name, whatever its type.
    for v in ("", "0", "1", "2", "201", "0110", "21"):
        assert word(code(v)) == v
    for bad in ("02x", "12", "3", "0 1", "0\n", 3, None, b"0"):
        with pytest.raises(ValueError) as exc:
            code(bad)
        assert str(exc.value) == f"not a canonical vertex address: {bad!r}"


@given(st.text(alphabet="0123 x", max_size=6))
def test_code_accepts_exactly_the_canonical_words(v):
    canonical = re.fullmatch("([012][01]*)?", v) is not None
    try:
        code(v)
    except ValueError:
        assert not canonical, v
    else:
        assert canonical, v


def test_neighbors_examples():
    assert neighbors(BASE) == ["0", "1", "2"]
    assert neighbors("0") == [BASE, "00", "01"]
    assert neighbors("01") == ["0", "010", "011"]
    for bad in ("3", "12", "0x", 3):  # no vertex, so no neighbors
        with pytest.raises(ValueError, match="^not a canonical vertex address: "):
            neighbors(bad)


def test_distance_examples():
    assert distance(BASE, "01") == 2
    assert distance("0", "0") == 0
    assert distance("00", "10") == 4


@given(vertices)
def test_every_vertex_has_three_neighbors_at_distance_one(v):
    ns = neighbors(v)
    assert len(ns) == len(set(ns)) == 3
    assert all(distance(v, w) == 1 for w in ns)
    if v != BASE:
        assert ns[0] == v[:-1]
        assert v in neighbors(v[:-1])


@given(vertices, vertices)
def test_metric_symmetry_and_separation(v, w):
    assert distance(v, w) == distance(w, v)
    assert (distance(v, w) == 0) == (v == w)


@given(vertices, vertices, vertices)
def test_metric_triangle_inequality(u, v, w):
    assert distance(u, w) <= distance(u, v) + distance(v, w)


def test_code_examples():
    assert [code(v) for v in (BASE, "0", "1", "2", "00", "01", "21")] == [2, 4, 5, 6, 8, 9, 13]
    assert [word(c) for c in (2, 4, 5, 6, 8, 9, 13)] == [BASE, "0", "1", "2", "00", "01", "21"]


def test_codes_round_trip_to_depth_10():
    # Every vertex to depth 10, depth by depth: codes are exactly the
    # consecutive run 2**(d+1) .. 2**(d+1) + 3 * 2**(d-1) - 1 at depth d, in
    # (length, word) order, and their bit length is d + 2.
    vertices = ball(BASE, 10)
    codes = [code(v) for v in vertices]
    assert [word(c) for c in codes] == vertices
    assert codes == sorted(codes) and len(set(codes)) == len(codes)
    assert sorted(vertices, key=lambda v: (len(v), v)) == vertices
    for v, c in zip(vertices, codes):
        assert c.bit_length() == len(v) + 2
    for d in range(1, 11):
        assert [code(v) for v in vertices if len(v) == d] == list(range(2 ** (d + 1), 2 ** (d + 1) + 3 * 2 ** (d - 1)))


@pytest.mark.parametrize("bad", ["3", "12", "0x", 3, None])
def test_code_refuses_non_canonical_words(bad):
    with pytest.raises(ValueError, match="not a canonical vertex address"):
        code(bad)


@pytest.mark.parametrize("bad", [0, 1, 3, 7, 14, 15, 29, -1, -4])
def test_word_refuses_codes_that_name_no_vertex(bad):
    # Below 4 no code has a three-bit head; head 111 is no letter's.
    with pytest.raises(ValueError, match=f"^code {bad} names no vertex$"):
        word(bad)


def test_ball_examples():
    assert ball(BASE, 0) == [BASE]
    assert len(ball(BASE, 1)) == 4
    assert len(ball(BASE, 3)) == 22  # 1 + 3*(2**3 - 1)


def test_ball_growth_formula():
    for r in range(0, 11):
        assert len(ball(BASE, r)) == 1 + 3 * (2 ** r - 1)


def test_ball_has_no_duplicates_and_respects_radius():
    vs = ball("01", 4)
    assert len(vs) == len(set(vs))
    assert all(distance("01", v) <= 4 for v in vs)
    assert len(vs) == 1 + 3 * (2 ** 4 - 1)  # vertex-transitive count


def test_sphere_sizes():
    assert list(layers(BASE, 0))[-1] == [BASE]
    for r in range(1, 9):
        assert len(list(layers(BASE, r))[-1]) == 3 * 2 ** (r - 1)


def test_side_counts_examples():
    # (away from, through) the marked neighbor at distance s: signed classes s, -s.
    size = dict(zip(range(-5, 6), class_sizes(SIGNED, -5, 5)))
    assert (size[1], size[-1]) == (2, 1)
    assert (size[3], size[-3]) == (8, 4)
    assert (size[5], size[-5]) == (32, 16)


def test_side_counts_against_enumeration():
    shell = class_sizes(RADIAL, 0, 8)
    size = dict(zip(range(-8, 9), class_sizes(SIGNED, -8, 8)))
    for x, y in [(BASE, "0"), (BASE, "2"), ("0", BASE), ("01", "0")]:
        for s, layer in enumerate(layers(x, 8)):
            assert len(layer) == shell[s]
            through = sum(1 for z in layer if distance(y, z) == s - 1)
            if s >= 1:
                assert (len(layer) - through, through) == (size[s], size[-s])
