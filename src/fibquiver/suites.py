"""Named verification suites behind the `verify` command.

Each suite runs a family of exact checks and returns a SuiteResult with the
first counterexamples formatted for display. All checks are pure; a suite
that returns ok=True has verified every instance it names, no sampling, and
a suite whose range names no instance raises ValueError instead.

The oracle suites (prop41, cor42, cor43, oracle) hand all their checks one
reflect.Families table that carries the call's cap and is dropped with it:
each vector family grows once per call, and no call reuses another's vectors.
"""

from __future__ import annotations

from itertools import compress, count, product, repeat
from math import isqrt
from operator import is_not
from typing import NamedTuple

from . import catident, profiles, reflect
from .catident import path_variants
from .errors import NotSymmetric, OracleCapExceeded
from .fibcore import (
    EVEN_PAIR,
    NON_PAIR,
    NOT_A_PAIR,
    ODD_PAIR,
    check_three_term,
    classify_pair,
    family_index,
    fib,
    fib_pair,
)
from .reflect import MARKED_NEIGHBOR, ORACLE_CAP
from .tree import BASE

MAX_REPORTED_FAILURES = 5


class SuiteResult(NamedTuple):
    suite: str
    ok: bool
    checked: int
    failures: list[str]


def _collect(suite: str, failures: list[str], checked: int) -> SuiteResult:
    if checked == 0:
        raise ValueError(f"suite {suite} has no checks in the requested range")
    return SuiteResult(suite, not failures, checked, failures[:MAX_REPORTED_FAILURES])


def _run_reports(suite: str, cases) -> SuiteResult:
    """Collect (label, failure) cases, failure a check's verdict: None when
    it holds, else its first failure's text, reported after the label."""
    failures, checked = [], 0
    for label, failure in cases:
        checked += 1
        if failure is not None:
            failures.append(f"{label}: {failure}")
    return _collect(suite, failures, checked)


def _families(largest: int, cap: int) -> reflect.Families:
    """The call's table under the cap, once its largest wave count is known
    to be within it: a suite past the cap is refused before any check runs."""
    if largest > cap:
        raise OracleCapExceeded(largest, cap)
    return reflect.Families(cap)


def run_prop41(t_max: int = 6, *, cap: int = ORACLE_CAP) -> SuiteResult:
    families = _families(t_max, cap)
    return _run_reports("prop41", (
        (f"t={t} y={letter!r}", catident.check_prop41(t, families, y_letter=letter))
        for t in range(1, t_max + 1)
        for letter in "012"
    ))


def run_cor42(t_max: int = 6, *, seed: int = 0, cap: int = ORACLE_CAP) -> SuiteResult:
    """Cor. 4.2 on each step's fixed walks. `seed` is ignored: `--seed` parses."""
    families = _families(t_max, cap)
    return _run_reports("cor42", (
        (f"t={t} path={walk}", catident.check_cor42(t, walk, families))
        for t in range(1, t_max + 1)
        for walk in path_variants(t + 1)
    ))


def run_cor43(t_max: int = 6, *, seed: int = 0, cap: int = ORACLE_CAP) -> SuiteResult:
    """Cor. 4.3 on each step's fixed walks. `seed` is ignored: `--seed` parses."""
    families = _families(t_max + 1, cap)  # the far edge vector grows t_max + 1 waves
    return _run_reports("cor43", (
        (f"t={t} path={walk}", catident.check_cor43(t, walk, families))
        for t in range(0, t_max + 1)
        for walk in path_variants(t + 3)
    ))


def _disagreements(t, prof, vec, compress, vector, line, cap) -> list[str]:
    """The failures of the three checks of one wave count on one line. A
    profile or vector that the other route cannot take is a disagreement,
    not a refused input."""
    out = []
    try:
        if not profiles.expand(prof, cap=cap).equals(vec):
            out.append(f"t={t}: expanded {line} profile differs from the {vector} vector")
    except ValueError as exc:
        out.append(f"t={t}: stepped {line} profile does not expand: {exc}")
    try:
        if compress(vec, cap=cap) != prof:
            out.append(f"t={t}: compressed {vector} vector differs from the stepped profile")
    except NotSymmetric as exc:
        out.append(f"t={t}: {vector} vector is not constant on the {line} classes: {exc}")
    except ValueError as exc:
        out.append(f"t={t}: {vector} vector has no {line} profile: {exc}")
    if reflect.parity_sums(vec, t) != profiles.sums(prof):
        out.append(f"t={t}: {vector} vector parity sums differ from the {line} profile sums")
    return out


def run_oracle(t_max: int = 8, *, cap: int = ORACLE_CAP) -> SuiteResult:
    """Compressed profiles against the literal reflection oracle, both ways,
    at every wave count 0..t_max on both lines, and the oracle's parity sums
    against the profile's."""
    families = _families(t_max, cap)
    if t_max == 0 == cap:  # no wave, but the edge unit reaches class -1
        raise OracleCapExceeded(1, cap)
    waves, failures = range(t_max + 1), []
    for t, prof in zip(waves, profiles.rows(profiles.radial_start())):
        failures += _disagreements(t, prof, families.s_vec_at(t, BASE), profiles.compress_radial,
                                   "vertex", "radial", cap)
    signed = profiles.rows(profiles.u_start())  # the even wave counts
    for t in waves:
        prof = profiles.step(prof, 1) if t % 2 else next(signed)
        failures += _disagreements(t, prof, families.r_vec_at(t, BASE, MARKED_NEIGHBOR),
                                   profiles.compress_biradial, "edge", "signed", cap)
    return _collect("oracle", failures, 6 * len(waves))  # three checks per wave count on each line


def run_sums(t_max: int = 300) -> SuiteResult:
    """Weighted profile sums against the Fibonacci numbers, every step."""
    failures, checked = [], 0
    signed, radial = profiles.rows(profiles.u_start()), profiles.rows(profiles.radial_start())
    for t, u, p in zip(range(t_max + 1), signed, radial):
        checked += 2
        for row, name in ((u, "signed sums at index"), (p, "radial sums at step")):
            if profiles.sums(row) != fib_pair(family_index(row.waves, row.weights == profiles.SIGNED)):
                failures.append(f"{name} {t}: {profiles.sums(row)}")
        if min(u.values) < 0 or min(p.values) < 0:
            failures.append(f"negative profile entry at step {t}")
    return _collect("sums", failures, checked)


def run_three_term(lo: int = -100, hi: int = 100) -> SuiteResult:
    failures, checked = [], 0
    for t in range(lo, hi + 1):
        checked += 2
        if not check_three_term(t):
            failures.append(f"three-term recursion fails at t={t}")
        sign = 1 if (t + 1) % 2 == 0 else -1
        if fib(-t) != sign * fib(t):
            failures.append(f"index negation fails at t={t}")
    return _collect("three-term", failures, checked)


def _solved_pairs(bound: int) -> dict[int, str]:
    """The |q| = 1 points of the box by their scan positions, with their
    kinds. For each x, q(x, y) = +-1 exactly when r^2 = 5x^2 +- 4 for an
    integer r, with y = (3x +- r)/2 (Gessel's square test for Fibonacci
    numbers): one isqrt per column and sign, no evaluation of q. Columns
    x < 0 are read off x > 0, since q(-x, -y) = q(x, y)."""
    width, solved = 2 * bound + 1, {}
    for x in range(bound + 1):
        for d, kind in ((5 * x * x + 4, EVEN_PAIR), (5 * x * x - 4, ODD_PAIR)):
            r = isqrt(max(d, 0))
            if r * r == d:
                for y in ((3 * x - r) // 2, (3 * x + r) // 2):
                    if -bound <= y <= bound:
                        solved[(bound + x) * width + bound + y] = kind
                        solved[(bound - x) * width + bound - y] = kind
    return solved


def run_pairs(bound: int = 200) -> SuiteResult:
    """Exhaustive box scan: the classifier calls a point EvenPair exactly
    when q = 1, OddPair exactly when q = -1, and NotAPair otherwise.

    Every point is classified in one pass, and the truth comes from the
    5x^2 +- 4 squares. Only the points that either side calls a pair are
    compared one by one; every other verdict is the shared NON_PAIR."""
    span = range(-bound, bound + 1)
    verdicts = list(map(classify_pair, product(span, span)))
    solved = _solved_pairs(bound)
    flagged = compress(count(), map(is_not, verdicts, repeat(NON_PAIR)))
    failures = []
    for i in sorted(solved.keys() | flagged):
        kind = verdicts[i].kind
        if kind != solved.get(i, NOT_A_PAIR):
            x, y = divmod(i, len(span))
            x, y = x - bound, y - bound
            failures.append(f"({x}, {y}) classified {kind} but q={x * x + y * y - 3 * x * y}")
            if len(failures) == MAX_REPORTED_FAILURES:
                break
    return _collect("pairs", failures, len(span) ** 2)


SUITES = {
    "prop41": run_prop41,
    "cor42": run_cor42,
    "cor43": run_cor43,
    "oracle": run_oracle,
    "sums": run_sums,
    "three-term": run_three_term,
    "pairs": run_pairs,
}
