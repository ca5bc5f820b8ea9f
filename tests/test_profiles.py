"""Compressed profiles against the literal oracle, and the published tables."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibquiver import oeis, profiles, suites
from fibquiver.errors import NotSymmetric, OracleCapExceeded
from fibquiver.fibcore import fib
from fibquiver.profiles import (
    RADIAL,
    SIGNED,
    Profile,
    class_codes,
    class_size,
    compress_biradial,
    compress_radial,
    compress_signed_classes,
    expand_biradial,
    expand_radial,
    partition_report,
    radial_profile,
    radial_sums,
    radial_start,
    radial_step,
    rows,
    step,
    u_profile,
    u_sums,
    u_start,
    u_step,
    u_table,
    wave,
)
from fibquiver.reflect import MARKED_NEIGHBOR, TreeVector, edge_unit, r_vec, s_vec, unit
from fibquiver.tree import BASE, word
import reference
from reference import class_sizes, class_vertices

# Signed-class table rows 0..4 and their weighted sums, as published.
U_ROWS = [
    {-1: 1, 0: 1},
    {0: 1, 1: 1, 2: 1},
    {-2: 1, -1: 1, 0: 4, 1: 2, 2: 3, 3: 1, 4: 1},
    {-4: 1, -3: 1, -2: 6, -1: 5, 0: 17, 1: 8, 2: 13, 3: 4, 4: 5, 5: 1, 6: 1},
    {-6: 1, -5: 1, -4: 8, -3: 7, -2: 32, -1: 24, 0: 77, 1: 35, 2: 60, 3: 19,
     4: 26, 5: 6, 6: 7, 7: 1, 8: 1},
]
U_SUMS = [(1, 1), (2, 5), (13, 34), (89, 233), (610, 1597)]


def test_shell_and_class_sizes():
    assert class_sizes(RADIAL, 0, 4) == [1, 3, 6, 12, 24]
    assert class_sizes(SIGNED, -3, 3) == [4, 2, 1, 1, 2, 4, 8]
    # Against the BFS spheres split into classes.
    for weights, lo in ((RADIAL, 0), (SIGNED, -7)):
        members = class_vertices(weights, 7)
        assert class_sizes(weights, lo, 7) == [len(members[s]) for s in range(lo, 8)]
    assert len(class_vertices(SIGNED, 2)[2]) == 4
    assert class_vertices(SIGNED, 1)[-1] == ["0"]
    assert len(class_vertices(RADIAL, 2)[2]) == 6 and -1 not in class_vertices(RADIAL, 2)


@pytest.mark.parametrize("weights", [RADIAL, SIGNED])
def test_class_codes_equal_the_bfs_split(weights):
    for radius in range(11):
        members = class_vertices(weights, radius)
        assert {s: [word(c) for c in class_codes(weights, s)] for s in members} == members, radius


def test_class_size_equals_the_reference_recursion():
    # Past 2**63 codes a class is too large for len() of its range.
    assert class_size(SIGNED, 65) == 2**65 > 2**63
    assert [class_size(RADIAL, s) for s in range(901)] == class_sizes(RADIAL, 0, 900)
    assert [class_size(SIGNED, s) for s in range(-900, 901)] == class_sizes(SIGNED, -900, 900)


def test_radial_step_examples():
    p0 = radial_start()
    assert p0.values == (1,)
    p1 = radial_step(p0)
    assert p1.values == (1, 1)
    p2 = radial_step(p1)
    assert p2.values == (2, 1, 1)
    # The next row is pinned by the oracle, not guessed.
    p3 = radial_step(p2)
    assert p3.values == tuple(compress_radial(s_vec(3)).values)
    assert p3.values == (2, 3, 1, 1)


def test_radial_profile_validation():
    with pytest.raises(ValueError):
        Profile(RADIAL, 1, 0, (1,))
    with pytest.raises(ValueError):
        Profile(RADIAL, 1, 0, (1, 2))  # outermost class must be 1
    with pytest.raises(ValueError):
        Profile(RADIAL, 1, 0, (-1, 1))
    with pytest.raises(ValueError):
        Profile(RADIAL, 1, 1, (1,))  # the radial line starts at class 0


def test_a_profile_is_an_immutable_value():
    p = radial_step(radial_start())
    assert p == Profile(RADIAL, 1, 0, (1, 1)) and hash(p) == hash(Profile(RADIAL, 1, 0, (1, 1)))
    assert p != Profile(SIGNED, 1, 0, (1, 1)) and len({p, radial_step(radial_start())}) == 1
    assert repr(p) == "Profile(weights=((0, 0), (0, 3), (1, 2)), waves=1, lo=0, values=(1, 1))"
    with pytest.raises(AttributeError):
        p.waves = 2
    assert not hasattr(p, "__dict__")


def test_radial_sums_examples():
    assert radial_sums(Profile(RADIAL, 1, 0, (1, 1))) == (1, 3)
    assert radial_sums(Profile(RADIAL, 0, 0, (1,))) == (0, 1)
    assert radial_sums(Profile(RADIAL, 2, 0, (2, 1, 1))) == (3, 8)


def test_radial_table_matches_oracle():
    for t in range(9):
        row = radial_profile(t)
        assert expand_radial(row).equals(s_vec(t))
        assert compress_radial(s_vec(t)) == row


def test_u_step_published_rows():
    rows = u_table(4)
    for want, row in zip(U_ROWS, rows):
        assert dict(zip(row.support(), row.values)) == want
    assert [u_sums(r) for r in rows] == U_SUMS
    assert dict(zip(rows[4].support(), rows[4].values))[0] == 77


def test_u_table_shortest():
    (row,) = u_table(0)
    assert (row.lo, row.values) == (-1, (1, 1))


def test_u_sums_examples():
    assert u_sums(u_profile(2)) == (13, 34)
    assert u_sums(u_start()) == (1, 1)
    assert u_sums(u_profile(4)) == (610, 1597)


def _sized_sums(p):
    """The reference route for `sums`: every class value times its class
    size from `class_sizes`, added up by parity."""
    by_parity = [0, 0]
    for s, size, v in zip(p.support(), class_sizes(p.weights, p.lo, p.hi), p.values):
        by_parity[s % 2] += size * v
    plus = p.waves % 2
    return by_parity[1 - plus], by_parity[plus]


def test_sums_of_profiles_starting_past_class_0():
    for prof in (Profile(SIGNED, 2, 1, (1, 1)), Profile(SIGNED, 4, 2, (5, 0, 1)), Profile(SIGNED, 4, 4, (1,))):
        assert u_sums(prof) == _sized_sums(prof), prof


def test_u_sums_match_fib_at_scale():
    u = u_start()
    p = radial_start()
    for t in range(301):
        assert u_sums(u) == (fib(4 * t - 1), fib(4 * t + 1)) == _sized_sums(u), t
        assert radial_sums(p) == (fib(2 * t), fib(2 * t + 2)) == _sized_sums(p), t
        assert all(v >= 0 for v in u.values)
        assert all(v >= 0 for v in p.values)
        u, p = u_step(u), radial_step(p)


def test_support_grows_by_at_most_two():
    u = u_start()
    for _ in range(40):
        nxt = u_step(u)
        assert nxt.lo >= u.lo - 2 and nxt.hi <= u.hi + 2
        u = nxt


def _stencil(weights, s):
    # (left, self, right) coefficients of one wave at class s, read off by
    # reflecting the three unit rows around it.
    coeffs = []
    for j in range(3):
        row = [0, 0, 0]
        row[j] = 1
        wave(row, s - 1, weights, s % 2)
        coeffs.append(row[1])
    return tuple(coeffs)


def test_stencil_matches_cartan_rows():
    # Doubly-laced line with one simple bond between classes -1 and 0.
    assert _stencil(SIGNED, -3) == (2, -1, 1)
    assert _stencil(SIGNED, 5) == (1, -1, 2)
    assert _stencil(SIGNED, 0) == (1, -1, 2)
    assert _stencil(SIGNED, -1) == (2, -1, 1)
    # Simple lacing both ways across the marked edge: coefficient 1 on the
    # neighbor across it.
    assert _stencil(SIGNED, 0)[0] == 1  # class 0 reads class -1 once
    assert _stencil(SIGNED, -1)[2] == 1  # class -1 reads class 0 once
    # The radial half-line: the base reads its three neighbors, every other
    # class one parent and two children.
    assert _stencil(RADIAL, 0) == (0, -1, 3)
    assert _stencil(RADIAL, 1) == (1, -1, 2)
    assert _stencil(RADIAL, 6) == (1, -1, 2)


def _cartan_abs(i, j):
    # Off-diagonal magnitude |a(i, j)| for adjacent classes on the line.
    assert abs(i - j) == 1
    if i >= 0:
        return 1 if j == i - 1 else 2
    return 1 if j == i + 1 else 2


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([RADIAL, SIGNED]),
    st.integers(-12, 12),
    st.lists(st.integers(-(10**30), 10**30), max_size=30),
    st.integers(0, 1),
)
def test_slice_wave_equals_the_loop_wave(weights, lo, inner, parity):
    # The slice wave leaves its two end cells alone, so it runs on the row
    # with a zero sentinel at each end.
    want = list(inner)
    reference.wave(want, lo, weights, parity)
    got = [0, *inner, 0]
    wave(got, lo - 1, weights, parity)
    assert got == [0, *want, 0]


def test_stepped_rows_equal_the_validated_loop_route():
    # step skips Profile validation, so both lines' rows are held to the
    # loop wave through the validating constructor, cell for cell; the
    # ascii table's column widths rely on the cells being non-negative.
    for start, k, stepped in ((u_start(), 2, u_table(300)), (radial_start(), 1, islice(rows(radial_start()), 301))):
        want = start
        for got in stepped:
            assert got == want and min(got.values) >= 0, got.waves
            assert Profile(got.weights, got.waves, got.lo, got.values) == got
            want = reference.step(want, k)


CHEBYSHEV_WAVES = 200


def test_stepped_rows_equal_the_chebyshev_route():
    # A third route with no wave: Chebyshev polynomials in the adjacency on
    # class lines whose weights are counted off tree.neighbors, so a fault in
    # wave, step or the weight tables shows. Both lines at every wave count,
    # one wave at a time, and the signed table rows, two waves each.
    radial = reference.chebyshev_rows(reference.radial_class, (BASE,), CHEBYSHEV_WAVES)
    signed = reference.chebyshev_rows(reference.signed_class, (BASE, MARKED_NEIGHBOR), CHEBYSHEV_WAVES)
    radial, signed = ([(t, lo, values) for t, (lo, values) in enumerate(line)] for line in (radial, signed))

    def cells(stepped):
        return [(p.waves, p.lo, p.values) for p in stepped]

    for start, want in ((radial_start(), radial), (u_start(), signed)):
        p, by_one = start, []
        for _ in want:
            by_one.append(p)
            p = step(p, 1)
        assert cells(by_one) == want
    assert cells(islice(rows(radial_start()), CHEBYSHEV_WAVES + 1)) == radial
    assert cells(u_table(CHEBYSHEV_WAVES // 2)) == signed[::2]


def test_step_refuses_a_negative_wave_count():
    # Such a row would have fewer waves than its start, or a negative count.
    for start in (u_start(), radial_start()):
        for k in (-1, -5):
            with pytest.raises(ValueError, match=f"k={k}"):
                step(start, k)
    assert step(u_start(), 0) == u_start()


def test_u_step_equals_cartan_reflection_route():
    # Independent route: generic simple reflections new[i] = -u[i] +
    # sum |a(i,j)| u[j], odd sites first, then even sites.
    u = u_start()
    for _ in range(12):
        lo, hi = u.lo - 2, u.hi + 2
        old = dict(zip(u.support(), u.values))
        mixed = {s: old.get(s, 0) for s in range(lo, hi + 1)}
        for s in range(lo, hi + 1):
            if s % 2 != 0:
                mixed[s] = -old.get(s, 0) + _cartan_abs(s, s - 1) * old.get(s - 1, 0) \
                    + _cartan_abs(s, s + 1) * old.get(s + 1, 0)
        final = dict(mixed)
        for s in range(lo, hi + 1):
            if s % 2 == 0:
                final[s] = -old.get(s, 0) + _cartan_abs(s, s - 1) * mixed.get(s - 1, 0) \
                    + _cartan_abs(s, s + 1) * mixed.get(s + 1, 0)
        nxt = u_step(u)
        assert {s: v for s, v in final.items() if v} == {s: v for s, v in zip(nxt.support(), nxt.values) if v}
        u = nxt


def test_odd_phase_state_is_the_next_odd_wave_vector():
    # Observed relation, recorded as a regression: the half-stepped state
    # (fresh odd classes over stale even ones) compresses r after 2t+1
    # waves, with no re-indexing.
    for t in range(4):
        u = u_profile(t)
        row = [0, 0, *u.values, 0, 0]
        wave(row, u.lo - 2, SIGNED, 1)
        mixed = {u.lo - 2 + i: v for i, v in enumerate(row) if v}
        prof = compress_signed_classes(r_vec(2 * t + 1))
        assert mixed == {s: v for s, v in zip(prof.support(), prof.values) if v}


def test_partition_report_examples():
    rep = partition_report(2)
    assert [tuple(x) for x in rep.terms_minus] == [(-1, 1, 1, 1), (1, 2, 2, 4), (3, 8, 1, 8)]
    assert rep.target_minus == 13
    assert sum(x.product for x in rep.terms_minus) == 13
    assert partition_report(0).target_minus == 1
    assert partition_report(3).target_plus == 233
    assert sum(x.product for x in partition_report(3).terms_plus) == 233


def test_partition_terms_use_class_sizes():
    rep = partition_report(4)
    members = class_vertices(SIGNED, 9)  # index 4 reaches classes -9..8
    for term in rep.terms_minus + rep.terms_plus:
        assert term.weight == len(members[term.cls])
        assert term.product == term.weight * term.value


def test_partition_weights_past_enumeration():
    # Index 33 spans classes -64..66, far too deep to list their vertices:
    # on the signed line |C_s| is 2**s for s >= 0 and 2**(|s| - 1) behind.
    rep = partition_report(33)
    for term in rep.terms_minus + rep.terms_plus:
        s = term.cls
        assert term.weight == (2**s if s >= 0 else 2 ** (-s - 1)), s
        assert term.product == term.weight * term.value
    assert [min(x.cls for x in rep.terms_plus), max(x.cls for x in rep.terms_plus)] == [-64, 66]


def test_expand_examples():
    assert expand_radial(radial_start()).equals(unit(BASE))
    assert expand_biradial(u_start()).equals(edge_unit(BASE, "0"))
    assert expand_radial(radial_profile(2)).equals(s_vec(2))


def test_compress_examples():
    assert compress_radial(s_vec(2)).values == (2, 1, 1)
    assert compress_biradial(r_vec(4)) == u_profile(2)
    with pytest.raises(NotSymmetric) as exc:
        compress_radial(unit(BASE).add(unit("0")))
    assert exc.value.cls == 1
    assert exc.value.witness == (("0", 1), ("1", 0))
    with pytest.raises(NotSymmetric) as exc:  # class -2 is scanned before class 2
        compress_biradial(unit("00").add(unit("10")))
    assert exc.value.witness == (("00", 1), ("01", 0))


def test_biradial_round_trip():
    for tt in range(5):
        prof = u_profile(tt)
        assert compress_biradial(expand_biradial(prof)) == prof
        vec = r_vec(2 * tt)
        assert expand_biradial(compress_biradial(vec)).equals(vec)


def test_odd_wave_vectors_compress():
    # An edge vector after any number of waves is a profile: the start
    # stepped one wave at a time, and expand inverts it.
    p = u_start()
    for t in range(11):
        vec = r_vec(t)
        assert compress_biradial(vec) == p, t
        assert expand_biradial(p).equals(vec), t
        p = step(p, 1)


def test_compress_zero_vector():
    with pytest.raises(ValueError):
        compress_radial(TreeVector({}))


def test_expand_cap():
    with pytest.raises(OracleCapExceeded):
        expand_radial(radial_profile(20))
    with pytest.raises(OracleCapExceeded):
        expand_biradial(u_profile(8))  # rim class 16 is past the default cap


def test_biradial_validation():
    with pytest.raises(ValueError):
        Profile(SIGNED, 0, -1, (1, 0))  # untrimmed
    with pytest.raises(ValueError):
        Profile(SIGNED, 0, -4, (1, 1, 1, 1, 1))  # support outside bounds
    with pytest.raises(ValueError, match="rim class 1"):
        Profile(SIGNED, 1, 0, (1, 1, 1))  # signed row 1: its rim class 2 needs 2 waves
    prof = u_profile(3)
    assert list(prof.support()) == list(range(prof.lo, prof.hi + 1))


def test_negative_indices_are_rejected():
    for build in (u_profile, u_table, radial_profile, partition_report):
        with pytest.raises(ValueError, match="non-negative"):
            build(-1)


def test_rows_stream_every_step():
    for start, advance in ((radial_start(), radial_step), (u_start(), u_step)):
        want = [start]
        for _ in range(60):
            want.append(advance(want[-1]))
        assert list(islice(rows(start), 61)) == want
        nth = radial_profile if start.weights == RADIAL else u_profile
        assert all(nth(t) == row for t, row in enumerate(want))
    assert u_table(60) == want  # the signed line's rows


def test_walks_step_through_the_timed_names(monkeypatch):
    # Both lines step through u_step and radial_step, the names the benchmark
    # times, and each walk steps only as far as it reads.
    calls = {"u_step": 0, "radial_step": 0}
    for name in calls:
        def counted(p, fn=getattr(profiles, name), name=name):
            calls[name] += 1
            return fn(p)

        monkeypatch.setattr(profiles, name, counted)

    def steps(run):
        before = dict(calls)
        run()
        return calls["u_step"] - before["u_step"], calls["radial_step"] - before["radial_step"]

    assert steps(lambda: u_table(5)) == (5, 0)
    assert steps(lambda: u_profile(6)) == (6, 0)
    assert steps(lambda: radial_profile(7)) == (0, 7)
    assert steps(lambda: partition_report(3)) == (3, 0)
    assert steps(lambda: suites.run_sums(9)) == (9, 9)
    assert steps(lambda: suites.run_oracle(4)) == (2, 4)  # one walk per line, no restarts
    # Flat positions 0..9 of the radial table span rows 0..3; 0..11 of the
    # signed table, rows 0..2.
    assert steps(lambda: oeis.GENERATORS["A132262"]()(9)) == (0, 3)
    assert steps(lambda: oeis.GENERATORS["A147316"]()(11)) == (2, 0)
