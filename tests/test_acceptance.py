"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with output visible:  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from fibquiver import cli, suites
from fibquiver.fibcore import (
    DimPair,
    NOT_A_PAIR,
    check_three_term,
    classify_pair,
    euler_form,
    fib,
    fib_pair,
    fib_range,
    sigma_minus,
    sigma_plus,
)
from fibquiver.profiles import (
    compress_biradial,
    compress_radial,
    expand_biradial,
    expand_radial,
    radial_profile,
    radial_start,
    radial_step,
    radial_sums,
    u_profile,
    u_start,
    u_step,
    u_sums,
    u_table,
)
from fibquiver.reflect import r_vec, s_vec

FIXTURES = Path(__file__).parent / "fixtures"

U_ROWS = [
    {-1: 1, 0: 1},
    {0: 1, 1: 1, 2: 1},
    {-2: 1, -1: 1, 0: 4, 1: 2, 2: 3, 3: 1, 4: 1},
    {-4: 1, -3: 1, -2: 6, -1: 5, 0: 17, 1: 8, 2: 13, 3: 4, 4: 5, 5: 1, 6: 1},
    {-6: 1, -5: 1, -4: 8, -3: 7, -2: 32, -1: 24, 0: 77, 1: 35, 2: 60, 3: 19,
     4: 26, 5: 6, 6: 7, 7: 1, 8: 1},
]
U_SIDE_COLUMNS = [(1, 1), (2, 5), (13, 34), (89, 233), (610, 1597)]


def _verdict(num: int, label: str, t0: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - t0
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"
        print(f"criterion {num} ({label}): PASS ({elapsed:.2f}s < {limit:.0f}s)", flush=True)
    else:
        print(f"criterion {num} ({label}): PASS ({elapsed:.2f}s)", flush=True)


def test_c1_u_table_fidelity():
    t0 = time.perf_counter()
    rows = u_table(4)
    for row, want, sums in zip(rows, U_ROWS, U_SIDE_COLUMNS):
        assert dict(zip(row.support(), row.values)) == want
        assert u_sums(row) == sums
    assert list(rows[2].values) == [1, 1, 4, 2, 3, 1, 1]
    assert list(rows[3].values) == [1, 1, 6, 5, 17, 8, 13, 4, 5, 1, 1]
    assert list(rows[4].values) == [
        1, 1, 8, 7, 32, 24, 77, 35, 60, 19, 26, 6, 7, 1, 1]
    _verdict(1, "u-table fidelity", t0, limit=1.0)


def test_c2_partition_formula_at_scale():
    t0 = time.perf_counter()
    u = u_start()
    for t in range(301):
        assert u_sums(u) == (fib(4 * t - 1), fib(4 * t + 1)), t
        if t < 300:
            u = u_step(u)
    _verdict(2, "partition formula to t=300", t0, limit=10.0)


def test_c3_radial_sums_at_scale():
    t0 = time.perf_counter()
    p = radial_start()
    for t in range(301):
        assert radial_sums(p) == (fib(2 * t), fib(2 * t + 2)), t
        if t < 300:
            p = radial_step(p)
    _verdict(3, "radial sums to t=300", t0, limit=10.0)


def test_c4_oracle_equivalence():
    t0 = time.perf_counter()
    for t in range(9):
        prof = radial_profile(t)
        vec = s_vec(t)
        assert expand_radial(prof).equals(vec), t
        assert compress_radial(vec) == prof, t

        half = t // 2
        uprof = u_profile(half)
        rvec = r_vec(2 * half)
        assert expand_biradial(uprof).equals(rvec), t
        assert compress_biradial(rvec) == uprof, t

        # compress-expand closes the loop in both orders
        assert compress_radial(expand_radial(prof)) == prof, t
        assert expand_biradial(compress_biradial(rvec)).equals(rvec), t
    _verdict(4, "oracle equivalence to t=8", t0, limit=30.0)


def test_c5_sequence_identities():
    t0 = time.perf_counter()
    for name, result in [
        ("prop41", suites.run_prop41(6)),
        ("cor42", suites.run_cor42(6, paths=3)),
        ("cor43", suites.run_cor43(6, paths=3)),
    ]:
        assert result.ok, (name, result.failures)
        assert result.checked >= 3 * 6
    # Scalar corollaries to t = 1000, with running partial sums.
    F = fib_range(0, 2003)
    odd_acc = 0
    for t in range(1, 1001):
        odd_acc += F[2 * t - 1]
        assert F[2 * t] == odd_acc, t
    even_acc = 0
    for t in range(0, 1001):
        assert F[2 * t + 1] == 1 + even_acc, t
        even_acc += F[2 * t + 2]
    _verdict(5, "filtration identities and scalar corollaries", t0)


def test_c6_classifier_brute_force():
    t0 = time.perf_counter()
    bound = 1000
    accepted = {}
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            verdict = classify_pair(DimPair(x, y))
            if verdict.kind != NOT_A_PAIR:
                accepted[(x, y)] = verdict.kind
    on_form = {
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if abs(x * x + y * y - 3 * x * y) == 1
    }
    assert set(accepted) == on_form
    for (x, y), kind in accepted.items():
        q = x * x + y * y - 3 * x * y
        assert (kind == "EvenPair") == (q == 1)
        assert (kind == "OddPair") == (q == -1)
    _verdict(6, f"classifier vs form on the {bound}-box ({len(accepted)} pairs)", t0, limit=30.0)


def test_c7_recursions_and_reflections():
    t0 = time.perf_counter()
    for t in range(-500, 501):
        assert check_three_term(t), t
        sign = 1 if (t + 1) % 2 == 0 else -1
        assert fib(-t) == sign * fib(t), t

    rng = random.Random(20260808)
    for _ in range(10_000):
        p = DimPair(rng.randrange(-10**30, 10**30), rng.randrange(-10**30, 10**30))
        assert sigma_plus(sigma_minus(p)) == p
        assert sigma_minus(sigma_plus(p)) == p
        q = euler_form(p)
        assert euler_form(sigma_plus(p)) == q
        assert euler_form(sigma_minus(p)) == q

    for n in range(-100, 101):
        a, b, c = fib_pair(2 * (n - 1)), fib_pair(2 * n), fib_pair(2 * (n + 1))
        assert a.x + c.x == 3 * b.x and a.y + c.y == 3 * b.y, n
    _verdict(7, "same-parity recursions and reflections", t0)


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fibquiver.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_c8_cli_contract():
    t0 = time.perf_counter()
    for suite, extra in [
        ("prop41", []),
        ("cor42", []),
        ("cor43", []),
        ("oracle", []),
        ("sums", []),
        ("three-term", []),
        ("pairs", []),
    ]:
        proc = _run_cli("verify", suite, *extra)
        assert proc.returncode == 0, (suite, proc.stderr)

    proc = _run_cli("utable", "4", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.encode() == (FIXTURES / "utable4.csv").read_bytes()

    fixture = str(cli.oeis.default_fixture_path("A000045"))
    payloads = [
        cli.payload_fib(-8, 8),
        cli.payload_classify(2, 5),
        cli.payload_classify(0, 0),
        cli.payload_pairs(10),
        cli.payload_utable(4),
        cli.payload_partition(3),
        cli.payload_svec(4, 12),
        cli.payload_rvec(4, 12),
        cli.payload_verify(suites.run_three_term(-10, 10)),
        cli.payload_oeis(cli.oeis.run_check("A000045"), fixture),
    ]
    for payload in payloads:
        assert json.loads(cli.emit_json(payload)) == payload

    proc = _run_cli("oeis-check", "A000045")
    assert proc.returncode == 0, proc.stderr
    assert "501 values match" in proc.stdout
    _verdict(8, "CLI contract", t0)
