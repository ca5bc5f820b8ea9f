"""The mutant table: each route must catch the other's faults.

Each mutant patches one fault into the program. The commands the table names
for it run through `main` at their default ranges or at a named `--t` (the
far oracle fault at the oracle cap, out of reach of the defaults), and each
must exit non-zero: a failure (1) or a refused input (2), never an escaped
exception. The named commands are the ones that catch the mutant, out of
every `verify` suite, `oeis-check` on its three ids, `partition 7`, `svec 6`,
`rvec 5`, `pairs 100`, `pairs 10**30` (written out; the one command whose
pairs reach |x| >= f(128), past the seed table, where the classifier reads
an index off floats) and `classify -- -89 -233` (a third-quadrant odd pair
past 100, so that every classifier mutant on the seed table's side reaches
it).

One mutant of the command-line reader, `cli._plain` taking the
positionals in reverse, is caught by what `classify -- -89 -233` prints, not
by its exit code: the line still parses, to the point (-233, -89).

One mutant is equivalent and not run: `TreeVector.add` keeping zero
entries. Every term of the three identities is a non-negative vector, so no
sum that a check forms cancels to a zero entry, and no other caller in the
program adds vectors.
"""

import contextlib
import inspect
import io
import textwrap

import pytest

import reference
from fibquiver import catident, cli, fibcore, oeis, profiles, reflect, suites

MODULES = (fibcore, reflect, profiles, catident, suites, oeis, cli)


def _replace(monkeypatch, module, name, fake):
    """Bind fake in place of module.name wherever the program imported it."""
    real = getattr(module, name)
    for m in MODULES:
        if getattr(m, name, None) is real:
            monkeypatch.setattr(m, name, fake)


def _wrap(module, name, wrapper):
    """A mutant that calls wrapper(real, *args) in place of module.name."""
    def patch(monkeypatch):
        real = getattr(module, name)
        _replace(monkeypatch, module, name, lambda *args: wrapper(real, *args))
    return patch


def _rewrite(module, name, old, new):
    """A mutant that runs module.name's own source with `old` read as `new`."""
    def patch(monkeypatch):
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert source.count(old) == 1, (name, old)
        source = "from __future__ import annotations\n" + source.replace(old, new)
        namespace = dict(vars(module))
        exec(compile(source, module.__file__, "exec"), namespace)
        _replace(monkeypatch, module, name, namespace[name])
    return patch


def _table(which, row):
    """A mutant that replaces entry `which` (behind class 0, at it, ahead of
    it) of the signed weight table by row."""
    def patch(monkeypatch):
        weights = list(profiles.SIGNED)
        weights[which] = row
        _replace(monkeypatch, profiles, "SIGNED", tuple(weights))
    return patch


def _bump_cell(real, p, k):
    """step, with one cell + 1 in the middle of the row it returns."""
    p = real(p, k)
    values = list(p.values)
    values[len(values) // 2] += 1
    return p._replace(values=tuple(values))


def _bump_far_entry(real, a, x, parity):
    """big_sigma, with the entry at the last vertex in code order + 1 once
    the support passes 3,000 vertices (10 waves and more)."""
    a = real(a, x, parity)
    if len(a.items()) <= 3000:
        return a
    classes = [dict(entries) for entries in a._classes]
    last = max(map(max, filter(None, classes)))
    classes[last.bit_length() & 1][last] += 1
    return reflect.TreeVector._trusted(*classes)


def _seed_one_step_late(monkeypatch):
    """The seed table holding (f(k+1), f(k+2)) at k."""
    _replace(monkeypatch, fibcore, "_SEED", [(b, a + b) for a, b in fibcore._SEED])


def _seed_index_one_high(monkeypatch):
    """The seed index reading f(11) = 89 as f(12)."""
    _replace(monkeypatch, fibcore, "_SEED_INDEX", {**fibcore._SEED_INDEX, 89: 12})


def _swapped(real, *args):
    minus, plus = real(*args)
    return plus, minus


CLASSIFY = "classify -- -89 -233"
FAR_PAIRS = f"pairs {10**30}"
SCALED = "scaled reflection: a site becomes twice its neighbors' sum minus itself"

MUTANTS = {
    # ROADMAP item 11
    "signed weights ahead of class 0 swapped": (
        _table(2, (2, 1)),
        ["verify oracle", "verify sums", "oeis-check A147316", "partition 7"],
    ),
    "wave parity flipped": (
        _wrap(profiles, "wave", lambda real, row, lo, weights, parity: real(row, lo, weights, 1 - parity)),
        ["verify oracle", "verify sums", "oeis-check A132262", "oeis-check A147316", "partition 7"],
    ),
    "big_sigma without its base-region repair": (
        _rewrite(reflect, "big_sigma", "((1, 6), (3, 2))", "()"),
        ["verify oracle", "verify prop41 --t 1", "verify cor43 --t 1", "svec 6", "rvec 5"],
    ),
    "signed class codes split swapped": (
        _wrap(profiles, "class_codes", lambda real, weights, s: real(weights, -s if weights[1][0] else s)),
        ["verify oracle", "partition 7", "rvec 5"],
    ),
    "fib negated below -5": (
        _wrap(fibcore, "fib", lambda real, n: -real(n) if n < -5 else real(n)),
        ["verify three-term"],
    ),
    # the identity suites read each push-down through the classifier
    "witness direction flipped past 100": (
        _rewrite(fibcore, "classify_pair", "a + b if up else", "a + b if up != (max(ax, abs(y)) > 100) else"),
        ["verify prop41", "verify cor42", "verify cor43", "verify pairs", FAR_PAIRS, CLASSIFY],
    ),
    "witness index read two too high": (
        _rewrite(fibcore, "classify_pair", "i = _SEED_INDEX[ax]", "i = _SEED_INDEX[ax] + 2"),
        ["verify prop41", "verify cor42", "verify cor43", "verify pairs", "pairs 100", FAR_PAIRS, CLASSIFY],
    ),
    "pair rebuild ignores the negation": (
        _rewrite(fibcore, "classify_pair", "(-x, -y) if negated else (x, y)", "(x, y)"),
        ["verify pairs", "pairs 100", FAR_PAIRS, CLASSIFY],
    ),
    # one mutant on each side of f(128), where the index read-off changes
    "a seed-index entry one too high": (
        _seed_index_one_high,
        ["verify prop41", "verify cor43", "verify pairs", "pairs 100", FAR_PAIRS, CLASSIFY],
    ),
    "float index read-off two too high": (
        _rewrite(fibcore, "classify_pair", "/ _LOG2_PHI)", "/ _LOG2_PHI) + 2"),
        [FAR_PAIRS],
    ),
    "one cell + 1 in every row past 8 waves": (
        _wrap(profiles, "step", lambda real, p, k: _bump_cell(real, p, k) if p.waves + k > 8 else real(p, k)),
        ["verify sums", "oeis-check A132262", "oeis-check A147316", "partition 7"],
    ),
    "profile sums with minus and plus swapped": (
        _wrap(profiles, "sums", _swapped),
        ["verify oracle", "verify sums"],
    ),
    "oracle parity sums with minus and plus swapped": (
        _wrap(reflect, "parity_sums", _swapped),
        ["verify oracle", "verify prop41", "verify cor42", "verify cor43"],
    ),
    SCALED: (
        # every entry off the sites counts twice in its neighbors' sums
        _rewrite(reflect, "big_sigma", "for c, v in rest.items():", "for c, v in ((c, 2 * v) for c, v in rest.items()):"),
        ["verify oracle", "verify prop41", "verify cor42", "verify cor43", "svec 6", "rvec 5"],
    ),
    "a wave returns its classes swapped": (
        _rewrite(reflect, "big_sigma", "if bit else", "if not bit else"),
        ["verify oracle", "verify prop41", "svec 6", "rvec 5"],
    ),
    "an oracle entry + 1 past 3,000 vertices": (
        _wrap(reflect, "big_sigma", _bump_far_entry),
        ["verify oracle --t 12", "verify prop41 --t 12", "verify cor42 --t 12"],
    ),
    # ROADMAP item 10
    "signed weights behind class 0 swapped": (
        _table(0, (1, 2)),
        ["verify oracle", "verify sums", "oeis-check A147316", "partition 7"],
    ),
    "wave class-1 boundary moved": (
        _rewrite(profiles, "wave", "(-lo, 1 - lo)", "(-lo, 2 - lo)"),
        ["verify oracle", "verify sums", "oeis-check A132262"],
    ),
    "step padded by k, not k + 1": (
        _rewrite(profiles, "step", "[0] * (k + 1)", "[0] * k"),
        ["verify oracle", "verify sums", "oeis-check A132262", "oeis-check A147316", "partition 7"],
    ),
    "one cell + 1 at 41 waves": (
        _wrap(profiles, "step", lambda real, p, k: _bump_cell(real, p, k) if p.waves < 41 <= p.waves + k else real(p, k)),
        ["verify sums"],
    ),
    # the wave's shift kernels: (1, 2) runs ahead of class 0 on both lines
    # and at class 0 on the signed one, (2, 1) behind class 0 on the signed one
    "wave (1, 2) run doubles x, not z": (
        _rewrite(profiles, "wave", "x - y + (z << 1)", "(x << 1) - y + z"),
        ["verify oracle", "verify sums", "oeis-check A132262", "oeis-check A147316", "partition 7"],
    ),
    "wave (2, 1) run shifts by 2": (
        _rewrite(profiles, "wave", "(x << 1) - y + z", "(x << 2) - y + z"),
        ["verify oracle", "verify sums", "oeis-check A147316", "partition 7"],
    ),
    # the Fibonacci kernel and the box scan's truth
    "seed table one step late": (
        _seed_one_step_late,
        ["verify prop41", "verify cor42", "verify cor43", "verify sums", "verify three-term", "verify pairs",
         "oeis-check A000045", "partition 7", "pairs 100", FAR_PAIRS, CLASSIFY],
    ),
    "box scan drops the (3x - r)/2 root": (
        _rewrite(suites, "_solved_pairs", "((3 * x - r) // 2, (3 * x + r) // 2)", "((3 * x + r) // 2,)"),
        ["verify pairs"],
    ),
    # every route that states a push-down target reads it from one rule
    "push-down rule one wave late": (
        _rewrite(fibcore, "family_index", "2 * waves - edge", "2 * (waves + 1) - edge"),
        ["verify sums", "verify prop41", "verify cor42", "verify cor43", "partition 7"],
    ),
}


def run(argv):
    """main's exit code, stdout and stderr on argv; an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_named_command_passes_unmutated():
    named = sorted({command for _, commands in MUTANTS.values() for command in commands})
    assert {command: run(command.split())[0] for command in named} == dict.fromkeys(named, 0)


@pytest.mark.parametrize("name", MUTANTS)
def test_every_named_command_fails_under_the_mutant(monkeypatch, name):
    patch, commands = MUTANTS[name]
    patch(monkeypatch)
    codes = {command: run(command.split())[0] for command in commands}
    assert all(codes.values()), codes


@pytest.mark.parametrize(
    "name,command",
    [
        ("big_sigma without its base-region repair", "svec 6"),
        ("big_sigma without its base-region repair", "rvec 5"),
        ("signed class codes split swapped", "rvec 5"),
        ("a wave returns its classes swapped", "rvec 5"),
    ],
)
def test_an_oracle_vector_with_no_profile_is_a_failed_self_check(monkeypatch, name, command):
    # The command compresses its own oracle vector: a rejection there is a
    # fault of the program (exit 1), not a refused input (exit 2).
    MUTANTS[name][0](monkeypatch)
    code, out, err = run(command.split())
    assert (code, out) == (1, "")
    assert err.startswith("error: the oracle vector has no profile: ") and err.count("\n") == 1, err


def test_an_oracle_vector_of_another_wave_count_is_a_failed_self_check(monkeypatch):
    # With its classes swapped after every wave, s_6 is the unit vector at the
    # base: a profile, but one of 0 waves, not 6.
    MUTANTS["a wave returns its classes swapped"][0](monkeypatch)
    assert run(["svec", "6"]) == (1, "", "error: the oracle vector grown by 6 waves has the profile of 0\n")


def test_a_misplaced_entry_is_named_with_the_class_that_holds_it(monkeypatch):
    MUTANTS["a wave returns its classes swapped"][0](monkeypatch)
    code, out, _ = run(["verify", "prop41", "--t", "1"])
    assert code == 1
    assert out.splitlines()[1] == (
        "  counterexample: t=1 y='0': vertex-splits-into-neighbor-plus-edge first differing vertex '0':"
        " lhs 0, rhs 1; the lhs holds 1 there in the even-depth class"
    )


def _scan(scan, bound):
    """The scan's SuiteResult at bound, or the text of the classifier's
    refusal that ends it."""
    try:
        return scan(bound)
    except ArithmeticError as exc:
        return repr(exc)


@pytest.mark.parametrize("name", [name for name, (_, commands) in MUTANTS.items() if CLASSIFY in commands])
def test_the_box_scan_matches_the_point_by_point_scan_under_a_classifier_mutant(monkeypatch, name):
    # 150 reaches (55, 144), past the witness mutant's |x|, |y| <= 100.
    MUTANTS[name][0](monkeypatch)
    bounds = (*range(31), 150)
    got = [_scan(suites.run_pairs, bound) for bound in bounds]
    assert got == [_scan(lambda b: reference.run_pairs(b, suites.classify_pair), bound) for bound in bounds]
    assert any(result != suites.SuiteResult("pairs", True, (2 * b + 1) ** 2, []) for b, result in zip(bounds, got))


def test_a_reader_taking_the_positionals_in_reverse_is_caught_by_classify(monkeypatch):
    unmutated = run(CLASSIFY.split())
    _rewrite(cli, "_plain", "positionals[taken]", "positionals[-1 - taken]")(monkeypatch)
    assert run(CLASSIFY.split()) != unmutated
