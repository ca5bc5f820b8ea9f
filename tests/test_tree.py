"""Tree addressing, metric, bounded enumeration and the side-count formula."""

from hypothesis import given
from hypothesis import strategies as st

from fibquiver.profiles import RADIAL, SIGNED, class_sizes
from fibquiver.tree import BASE, distance, is_valid_vertex, layers, neighbors

vertices = st.one_of(
    st.just(BASE),
    st.tuples(st.sampled_from("012"), st.text(alphabet="01", max_size=8)).map(
        lambda t: t[0] + t[1]
    ),
)


def test_vertex_validity():
    assert is_valid_vertex("")
    assert is_valid_vertex("2")
    assert is_valid_vertex("201")
    assert not is_valid_vertex("02x")
    assert not is_valid_vertex("12")  # later letters must be 0 or 1
    assert not is_valid_vertex(3)


def test_neighbors_examples():
    assert neighbors(BASE) == ["0", "1", "2"]
    assert neighbors("0") == [BASE, "00", "01"]
    assert neighbors("01") == ["0", "010", "011"]


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


def ball(center, radius):
    """All vertices at distance <= radius from center, sphere by sphere."""
    return [v for layer in layers(center, radius) for v in layer]


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
