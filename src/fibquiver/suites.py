"""Named verification suites behind the `verify` command.

Each suite runs a family of exact checks and returns a SuiteResult with the
first counterexamples formatted for display. All checks are pure; a suite
that returns ok=True has verified every instance it names, no sampling, and
a suite whose range names no instance raises ValueError instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import catident, profiles, reflect
from .catident import path_variants
from .errors import OracleCapExceeded
from .fibcore import (
    DimPair,
    EVEN_PAIR,
    NOT_A_PAIR,
    ODD_PAIR,
    check_three_term,
    classify_pair,
    fib,
)
from .reflect import ORACLE_CAP

MAX_REPORTED_FAILURES = 5


@dataclass
class SuiteResult:
    suite: str
    ok: bool
    checked: int
    failures: list[str] = field(default_factory=list)


def _collect(suite: str, failures: list[str], checked: int) -> SuiteResult:
    if checked == 0:
        raise ValueError(f"suite {suite} has no checks in the requested range")
    return SuiteResult(suite, not failures, checked, failures[:MAX_REPORTED_FAILURES])


def _run_reports(suite: str, cases) -> SuiteResult:
    """Collect (label, checks) cases; a failing case contributes its first
    failed check."""
    failures, checked = [], 0
    for label, checks in cases:
        checked += 1
        bad = next((c for c in checks if not c.ok), None)
        if bad is not None:
            failures.append(f"{label}: {bad.label} {bad.detail}")
    return _collect(suite, failures, checked)


def _require_cap(largest: int, cap: int) -> None:
    """Refuse a suite whose largest wave count is past the cap before any
    of its checks runs."""
    if largest > cap:
        raise OracleCapExceeded(largest, cap)


def run_prop41(t_max: int = 6, *, cap: int = ORACLE_CAP) -> SuiteResult:
    _require_cap(t_max, cap)
    return _run_reports("prop41", (
        (f"t={t} y={letter!r}", catident.check_prop41(t, y_letter=letter, cap=cap))
        for t in range(1, t_max + 1)
        for letter in "012"
    ))


def run_cor42(t_max: int = 6, *, paths: int = 3, seed: int = 0, cap: int = ORACLE_CAP) -> SuiteResult:
    _require_cap(t_max, cap)
    return _run_reports("cor42", (
        (f"t={t} path={walk}", catident.check_cor42(t, walk, cap=cap))
        for t in range(1, t_max + 1)
        for walk in path_variants(t + 1, paths, seed)
    ))


def run_cor43(t_max: int = 6, *, paths: int = 3, seed: int = 0, cap: int = ORACLE_CAP) -> SuiteResult:
    _require_cap(t_max + 1, cap)  # the far edge vector grows t_max + 1 waves
    return _run_reports("cor43", (
        (f"t={t} path={walk}", catident.check_cor43(t, walk, cap=cap))
        for t in range(0, t_max + 1)
        for walk in path_variants(t + 3, paths, seed)
    ))


def run_oracle(t_max: int = 8, *, cap: int = ORACLE_CAP) -> SuiteResult:
    """Compressed profiles against the literal reflection oracle, both ways."""
    _require_cap(t_max, cap)
    failures, checked = [], 0
    for t, prof in zip(range(t_max + 1), profiles.rows(profiles.radial_start())):
        vec = reflect.s_vec(t, cap=cap)
        checked += 2
        if not profiles.expand_radial(prof, cap=cap).equals(vec):
            failures.append(f"t={t}: expanded radial profile differs from the vertex vector")
        if profiles.compress_radial(vec, cap=cap) != prof:
            failures.append(f"t={t}: compressed vertex vector differs from the stepped profile")
    for tt, prof in zip(range(t_max // 2 + 1), profiles.rows(profiles.u_start())):
        vec = reflect.r_vec(2 * tt, cap=cap)
        checked += 2
        if not profiles.expand_biradial(prof, cap=cap).equals(vec):
            failures.append(f"index {tt}: expanded signed profile differs from the edge vector")
        if profiles.compress_biradial(vec, cap=cap) != prof:
            failures.append(f"index {tt}: compressed edge vector differs from the stepped profile")
    return _collect("oracle", failures, checked)


def run_sums(t_max: int = 300) -> SuiteResult:
    """Weighted profile sums against the Fibonacci numbers, every step."""
    failures, checked = [], 0
    signed, radial = profiles.rows(profiles.u_start()), profiles.rows(profiles.radial_start())
    for t, u, p in zip(range(t_max + 1), signed, radial):
        checked += 2
        if profiles.u_sums(u) != (fib(4 * t - 1), fib(4 * t + 1)):
            failures.append(f"signed sums at index {t}: {profiles.u_sums(u)}")
        if profiles.radial_sums(p) != (fib(2 * t), fib(2 * t + 2)):
            failures.append(f"radial sums at step {t}: {profiles.radial_sums(p)}")
        if any(v < 0 for v in u.values) or any(v < 0 for v in p.values):
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


def run_pairs(bound: int = 200) -> SuiteResult:
    """Exhaustive box scan: the classifier calls a point EvenPair exactly
    when q = 1, OddPair exactly when q = -1, and NotAPair otherwise."""
    failures, span = [], range(-bound, bound + 1)
    for x in span:
        for y in span:
            q = x * x + y * y - 3 * x * y
            want = EVEN_PAIR if q == 1 else ODD_PAIR if q == -1 else NOT_A_PAIR
            kind = classify_pair(DimPair(x, y)).kind
            if kind != want and len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"({x}, {y}) classified {kind} but q={q}")
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
