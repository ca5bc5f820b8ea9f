"""The command-line surface: formats, exit codes, and stream separation."""

import contextlib
import functools
import importlib.util
import inspect
import io
import itertools
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibquiver import cli, errors, fibcore, profiles, reflect, suites
from fibquiver.fibcore import NON_PAIR, fib
from fibquiver.cli import (
    main,
    payload_classify,
    payload_fib,
    payload_oeis,
    payload_pairs,
    payload_partition,
    payload_rvec,
    payload_svec,
    payload_utable,
    payload_verify,
)

import reference
from test_mutants import MUTANTS, SCALED

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv), usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fib_range_ascii(capsys):
    code, out, err = run(capsys, "fib", "--from", "-10", "--to", "10")
    assert code == 0 and err == ""
    assert out == "-55,34,-21,13,-8,5,-3,2,-1,1,0,1,1,2,3,5,8,13,21,34,55\n"


def test_fib_usage_errors(capsys):
    code, out, err = run(capsys, "fib")
    assert code == 2 and out == "" and "error" in err
    code, out, err = run(capsys, "fib", "--from", "5", "--to", "1")
    assert code == 2 and "empty range" in err


def test_fib_csv(capsys):
    code, out, _ = run(capsys, "fib", "--from", "0", "--to", "3", "--format", "csv")
    assert code == 0
    assert out == "t,value\n0,0\n1,1\n2,1\n3,2\n"


@contextlib.contextmanager
def int_digit_limit(n):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("limit", [640, 1000, 4300, 5000])
def test_fib_digit_limit_boundary_is_exact(capsys, limit):
    with int_digit_limit(limit):
        n, a, b, past = 0, 0, 1, 10**limit
        while a < past:
            n, a, b = n + 1, b, a + b
        # f(n) is the first value Python itself refuses to print.
        with pytest.raises(ValueError):
            str(a)
        assert run(capsys, "fib", str(n - 1)) == (0, f"{b - a}\n", "")
        assert run(capsys, "fib", "--", str(1 - n))[0] == 0
        for argv in ([str(n)], ["--", str(-n)], ["--from", "0", "--to", str(n)]):
            code, out, err = run(capsys, "fib", "--format", "json", *argv)
            assert code == 2 and out == ""
            assert f"{limit} digits" in err and "PYTHONINTMAXSTRDIGITS" in err
    if limit == 4300:
        assert n == 20578


def test_fib_far_past_the_limit_is_refused_at_once(capsys):
    with int_digit_limit(4300):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "fib", "1000000000")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == "" and err.startswith("error: f(1000000000) has more than 4300 digits")
        assert run(capsys, "fib", "--", str(-(10**400)))[0] == 2


def test_fib_prints_past_the_default_limit_once_lifted(capsys):
    a, b = 0, 1
    for _ in range(30000):
        a, b = b, a + b
    with int_digit_limit(0):
        code, out, err = run(capsys, "fib", "30000")
        assert code == 0 and err == "" and int(out) == a


def test_partition_past_the_digit_limit_is_refused_before_computing(capsys):
    with int_digit_limit(640):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "partition", "766")  # f(3065) has 641 digits
        assert time.perf_counter() - t0 < 0.5
        assert code == 2 and out == ""
        assert err == ("error: f(3065) has more than 640 digits, Python's int -> str limit; "
                       "raise it with PYTHONINTMAXSTRDIGITS (0 lifts it)\n")
        code, out, err = run(capsys, "partition", "765")  # f(3061) has 640
        assert code == 0 and err == "" and out.endswith(f"  total = {fib(3061)}\n")


def test_utable_past_the_digit_limit_is_refused_before_rendering(capsys, monkeypatch):
    # Each cell is a term of one of its row's sums, so a table's largest
    # number is its last plus sum f(4 t_max + 1), and utable refuses as
    # partition does: row 765's plus sum f(3061) has 640 digits, row 766's
    # f(3065) has 641. The rows are stepped once and served to every call.
    stepped = profiles.u_table(765)
    monkeypatch.setattr(profiles, "u_table", lambda t_max: stepped[:t_max + 1])
    hint = "has more than 640 digits, Python's int -> str limit; raise it with PYTHONINTMAXSTRDIGITS (0 lifts it)\n"
    with int_digit_limit(640):
        # The boundary is exact: table 765 is not refused, and every number
        # it prints is at most its last plus sum, which has 640 digits.
        rows = payload_utable(765)["rows"]
        sums = [profiles.sums(row) for row in rows]
        pluses = [plus for _, plus in sums]
        assert pluses == sorted(pluses) and len(str(pluses[-1])) == 640
        assert all(max(row.values) <= plus and minus <= plus for row, (minus, plus) in zip(rows, sums))
        for t_max, f in (("766", "f(3065)"), ("842", "f(3369)")):
            _, _, err = run(capsys, "partition", t_max)
            assert err == f"error: {f} {hint}"
            for fmt in cli.FORMATS:
                assert run(capsys, "utable", t_max, "--format", fmt) == (2, "", err), fmt

        def unstepped(t_max):
            raise AssertionError("a row was stepped before the refusal")

        monkeypatch.setattr(profiles, "u_table", unstepped)
        for fmt in cli.FORMATS:
            assert run(capsys, "utable", "766", "--format", fmt) == (2, "", f"error: f(3065) {hint}"), fmt


def test_classify_ascii_verdicts(capsys):
    assert run(capsys, "classify", "2", "5")[1] == "OddPair t=3 up\n"
    assert run(capsys, "classify", "2", "2")[1] == "NotAPair\n"
    assert run(capsys, "classify", "--", "-1", "-2")[1] == "OddPair t=1 up (negated)\n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "2", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pair_kind"] == "OddPair" and data["t"] == 3 and data["negated"] is False


def test_pairs_listing(capsys):
    code, out, _ = run(capsys, "pairs", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,kind,t,direction,negated"
    assert "0,1,EvenPair,0,up,False" in lines
    assert "1,1,OddPair,-1,up,False" in lines


def test_utable_csv_matches_pinned_fixture(capsys):
    code, out, _ = run(capsys, "utable", "4", "--format", "csv")
    assert code == 0
    assert out == (FIXTURES / "utable4.csv").read_text()


def test_utable_ascii_shows_rows_and_sums(capsys):
    _, out, _ = run(capsys, "utable", "2")
    assert "[13, 34]" in out
    assert " 4 " in out  # the center value of row 2


def test_partition_totals(capsys):
    _, out, _ = run(capsys, "partition", "2")
    assert "minus target 13" in out and "plus target 34" in out
    code, out, _ = run(capsys, "partition", "2", "--format", "csv")
    rows = out.splitlines()
    assert rows[0] == "side,s,weight,value,product"
    assert "minus,-1,1,1,1" in rows and "plus,4,16,1,16" in rows


def test_svec_and_rvec_ascii(capsys):
    _, out, _ = run(capsys, "svec", "2")
    assert "ring 0 (1 vertex): 2" in out
    assert "sums: [3, 8]" in out
    _, out, _ = run(capsys, "rvec", "1")
    assert "ring 0: s=+0: 1" in out
    assert "s=+1: 1 (2 vertices) | s=-1: 0 (1 vertex)" in out
    assert "sums: [1, 2]" in out


def test_negative_indices_are_usage_errors(capsys):
    for argv in (["partition", "-1"], ["utable", "-1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "non-negative" in err
    assert run(capsys, "pairs", "-1") == (2, "", "error: bound must be non-negative, got -1\n")
    # The refusal names the positional that the command's usage line shows.
    for command in ("pairs", "utable", "partition"):
        _, _, err = run(capsys, command, "-1")
        name = err.removeprefix("error: ").split(" must be non-negative")[0]
        usage = cli.build_parser().commands[command].format_usage()
        assert usage.split()[-1] == name, (command, usage, err)


def test_oracle_cap_flag_and_env(capsys, monkeypatch):
    code, _, err = run(capsys, "svec", "13")
    assert code == 2
    assert "oracle cap 12" in err and "--oracle-cap" in err and "FIBQUIVER_ORACLE_CAP" in err

    code, out, _ = run(capsys, "svec", "13", "--oracle-cap", "13")
    assert code == 0 and "ring 13" in out

    monkeypatch.setenv("FIBQUIVER_ORACLE_CAP", "13")
    code, out, _ = run(capsys, "svec", "13")
    assert code == 0

    monkeypatch.setenv("FIBQUIVER_ORACLE_CAP", "not-a-number")
    code, _, err = run(capsys, "svec", "3")
    assert code == 2 and "FIBQUIVER_ORACLE_CAP" in err


@pytest.mark.parametrize("argv", [["svec", "0"], ["rvec", "1"], ["verify", "oracle", "--t", "0"]])
def test_a_negative_oracle_cap_is_refused_by_name(capsys, monkeypatch, argv):
    code, out, err = run(capsys, *argv, "--oracle-cap", "-1")
    assert (code, out, err) == (2, "", "error: --oracle-cap must be non-negative, got -1\n")
    monkeypatch.setenv("FIBQUIVER_ORACLE_CAP", "-3")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: FIBQUIVER_ORACLE_CAP must be non-negative, got -3\n")
    # The flag takes precedence over the variable, and a cap of 0 is allowed.
    assert run(capsys, "svec", "0", "--oracle-cap", "0")[0] == 0


@pytest.mark.parametrize(
    "argv,step",
    [
        (["prop41", "--t", "13"], 13),
        (["cor42", "--t", "13"], 13),
        (["cor43", "--t", "12"], 13),  # its far edge vector grows t + 1 waves
        (["oracle", "--t", "26"], 26),
    ],
)
def test_past_cap_suites_are_refused_before_any_wave(capsys, monkeypatch, argv, step):
    def no_wave(*args):
        raise AssertionError("a wave ran before the cap refusal")

    monkeypatch.setattr(reflect, "big_sigma", no_wave)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: step {step} exceeds the oracle cap 12; raise it with --oracle-cap or FIBQUIVER_ORACLE_CAP\n"


def test_verify_suites_exit_zero(capsys):
    for suite, extra in [
        ("prop41", ["--t", "3"]),
        ("cor42", ["--t", "3"]),
        ("cor43", ["--t", "2"]),
        ("oracle", ["--t-max", "5"]),
        ("sums", ["--t-max", "40"]),
        ("three-term", ["--from", "-30", "--to", "30"]),
        ("pairs", ["--max", "40"]),
    ]:
        code, out, err = run(capsys, "verify", suite, *extra)
        assert code == 0, (suite, err)
        assert "ok" in out


def test_verify_words_its_count_of_checks(capsys):
    # A one-point box is one check; json and csv carry the bare number.
    assert run(capsys, "verify", "pairs", "--max", "0") == (0, "pairs: ok (1 check)\n", "")
    assert run(capsys, "verify", "prop41", "--t", "1") == (0, "prop41: ok (3 checks)\n", "")
    code, out, _ = run(capsys, "verify", "pairs", "--max", "0", "--format", "json")
    assert code == 0 and json.loads(out)["checked"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "sums", "--t", "-1"],
        ["verify", "pairs", "--max", "-1"],
        ["verify", "three-term", "--from", "5", "--to", "3"],
        ["verify", "prop41", "--t", "0"],
        ["verify", "cor42", "--t", "0"],
        ["verify", "oracle", "--t", "-1"],
    ],
)
def test_verify_with_nothing_to_check_fails(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"suite {argv[1]} " in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "pairs", "--t", "3"], "--t"),
        (["verify", "pairs", "--t-max", "3"], "--t"),
        (["verify", "cor42", "--paths", "3"], "--paths"),
        (["verify", "oracle", "--t", "2", "--seed", "1"], "--seed"),
        (["verify", "sums", "--max", "3"], "--max"),
        (["verify", "three-term", "--t", "3"], "--t"),
        (["verify", "cor43", "--from", "1"], "--from"),
        (["verify", "pairs", "--to", "1"], "--to"),
        (["verify", "sums", "--oracle-cap", "3"], "--oracle-cap"),
        (["fib", "5", "--oracle-cap", "3"], "--oracle-cap"),
        (["utable", "2", "--oracle-cap", "3"], "--oracle-cap"),
        (["oeis-check", "A000045", "--oracle-cap", "3"], "--oracle-cap"),
        (["fib", "5", "--to", "3"], "--to"),
        (["fib", "5", "--from", "1", "--to", "3"], "--from"),
    ],
)
def test_unread_options_are_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    if argv[0] == "verify" and flag != "--paths":  # verify has no --paths
        assert err == f"error: verify {argv[1]} does not read {flag}\n"
    elif flag in ("--from", "--to"):  # fib reads them only without an index
        assert err == "error: give a single index or both --from and --to\n"
    else:
        assert f"unrecognized arguments: {flag}" in err


def test_env_cap_reaches_only_suites_that_read_it(capsys, monkeypatch):
    code, _, err = run(capsys, "verify", "oracle", "--t", "3", "--oracle-cap", "2")
    assert code == 2 and "oracle cap 2" in err
    monkeypatch.setenv("FIBQUIVER_ORACLE_CAP", "2")
    code, _, err = run(capsys, "verify", "prop41", "--t", "3")
    assert code == 2 and "oracle cap 2" in err
    monkeypatch.setenv("FIBQUIVER_ORACLE_CAP", "not-a-number")
    for argv in (["sums", "--t", "3"], ["three-term"], ["pairs", "--max", "3"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 0 and "ok" in out and err == "", argv


@pytest.mark.parametrize(
    "argv,module,name,breaks",
    [
        (["pairs", "--max", "10"], suites, "classify_pair", lambda real: lambda pair: NON_PAIR),
        (["oracle", "--t", "3"], profiles, "compress_radial",
         lambda real: lambda a, *, cap: profiles.step(real(a, cap=cap), 1)),  # one wave too many
        (["sums", "--t", "5"], profiles, "sums", lambda real: lambda p: tuple(v + 1 for v in real(p))),
        (["oracle", "--t", "2"], reflect, "parity_sums", lambda real: lambda a, t: real(a, t)[::-1]),  # minus, plus swapped
    ],
    ids=["pairs", "oracle", "sums", "oracle-parity-sums"],
)
def test_a_failing_suite_still_counts_every_check(capsys, monkeypatch, argv, module, name, breaks):
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    checked = json.loads(out)["checked"]
    monkeypatch.setattr(module, name, breaks(getattr(module, name)))
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert out.startswith(f"{argv[0]}: FAILED ({checked} checks)\n")
    lines = err.splitlines()
    assert 0 < len(lines) <= suites.MAX_REPORTED_FAILURES
    assert all(line.startswith(f"verify {argv[0]}: ") for line in lines)
    if argv[0] == "pairs":
        assert checked == 21 * 21
        assert lines[0] == "verify pairs: (-8, -3) classified NotAPair but q=1"


@pytest.mark.parametrize(
    "words,witness",
    [
        (1, "vertex vector is not constant on the radial classes: "
            "class 1: vertex '0' has entry 1 but vertex '1' has entry 2"),
        (2, "edge vector is not constant on the signed classes: "
            "class 1: vertex '1' has entry 2 but vertex '2' has entry 1"),
    ],
    ids=["vertex", "edge"],
)
def test_a_vector_off_the_classes_fails_verify_oracle(capsys, monkeypatch, words, witness):
    # One oracle entry raised by 1 leaves the vector not constant on its
    # classes, so compress cannot build a profile: the routes disagree, which
    # is a failure with the witness, not a refused input.
    real = reflect.Families.at

    def bumped(self, t, *start):
        a = real(self, t, *start)
        if t != 2 or len(start) != words:
            return a
        entries = dict(a.items())
        entries["1"] += 1
        return reflect.TreeVector(entries)

    code, out, _ = run(capsys, "verify", "oracle", "--t", "2", "--format", "json")
    checked = json.loads(out)["checked"]
    monkeypatch.setattr(reflect.Families, "at", bumped)
    code, out, err = run(capsys, "verify", "oracle", "--t", "2")
    assert code == 1 and out.startswith(f"oracle: FAILED ({checked} checks)\n")
    assert f"  counterexample: t=2: {witness}\n" in out
    assert f"verify oracle: t=2: {witness}\n" in err
    assert all(line.startswith("verify oracle: t=2: ") for line in err.splitlines())


def _doubled_rim(a):
    return reflect.TreeVector({v: c * 2 if len(v) == 2 else c for v, c in a.items()})


@pytest.mark.parametrize(
    "t,fault,refusal",
    [
        (2, _doubled_rim, "the last class must be the rim class 2, holding 1"),
        (1, lambda a: reflect.TreeVector({}), "the zero vector has no profile"),
    ],
    ids=["doubled-rim", "emptied"],
)
def test_a_vector_with_no_profile_fails_verify_oracle(capsys, monkeypatch, t, fault, refusal):
    # A vector constant on its classes that no profile fits: compress refuses
    # it, and the routes disagree, a failure rather than a refused input.
    real = reflect.Families.at
    code, out, _ = run(capsys, "verify", "oracle", "--t", "2", "--format", "json")
    checked = json.loads(out)["checked"]

    def faulty(self, k, *start):
        a = real(self, k, *start)
        return fault(a) if k == t and len(start) == 1 else a

    monkeypatch.setattr(reflect.Families, "at", faulty)
    code, out, err = run(capsys, "verify", "oracle", "--t", "2", "--format", "json")
    assert code == 1 and json.loads(out)["checked"] == checked
    failures = [
        f"t={t}: expanded radial profile differs from the vertex vector",
        f"t={t}: vertex vector has no radial profile: {refusal}",
        f"t={t}: vertex vector parity sums differ from the radial profile sums",
    ]
    assert json.loads(out)["failures"] == failures
    assert err == "".join(f"verify oracle: {failure}\n" for failure in failures)


def test_a_stepped_profile_past_the_cap_fails_verify_oracle(capsys, monkeypatch):
    # A stepped row one class wider than its wave count reaches past the cap,
    # so expand refuses it: a fault of the profile route, not a refused input.
    real = profiles.radial_step

    def widened(p):
        p = real(p)
        return p._replace(values=(*p.values, 1)) if p.waves == 2 else p

    monkeypatch.setattr(profiles, "radial_step", widened)
    code, out, err = run(capsys, "verify", "oracle", "--t", "2", "--oracle-cap", "2")
    assert code == 1 and out.startswith("oracle: FAILED (18 checks)\n")
    assert err.splitlines()[0] == "verify oracle: t=2: stepped radial profile does not expand: step 3 exceeds the oracle cap 2"


def test_the_oracle_with_no_wave_is_refused_at_cap_0(capsys):
    # The edge unit already reaches class -1, so cap 0 is refused up front:
    # not a disagreement between the routes.
    code, out, err = run(capsys, "verify", "oracle", "--t", "0", "--oracle-cap", "0")
    assert (code, out) == (2, "")
    assert err == "error: step 1 exceeds the oracle cap 0; raise it with --oracle-cap or FIBQUIVER_ORACLE_CAP\n"
    assert run(capsys, "verify", "oracle", "--t", "0", "--oracle-cap", "1")[0] == 0


def test_a_failed_self_check_exits_through_main(capsys, monkeypatch):
    # The partition targets and the witness reconstruction check the
    # program's own arithmetic: a failure is an error line and exit 1.
    real_wave, real_witness = profiles.wave, fibcore._witness

    def bumped_wave(row, lo, weights, parity):
        real_wave(row, lo, weights, parity)
        if len(row) > 12:
            row[len(row) // 2] += 1

    def witness_down(p, q):
        w = real_witness(p, q)
        return w._replace(direction=fibcore.DOWN) if max(map(abs, p)) > 100 else w

    monkeypatch.setattr(profiles, "wave", bumped_wave)
    assert run(capsys, "partition", "7") == (1, "", "error: partition terms do not reach their targets at t=7\n")
    monkeypatch.setattr(fibcore, "_witness", witness_down)
    assert run(capsys, "classify", "233", "610") == (
        1, "", "error: witness reconstruction failed for (233, 610)\n"
    )


def test_a_broken_push_down_is_reported_after_its_label(capsys, monkeypatch):
    # The scaled reflection keeps Cor. 4.2 as a vector identity; the
    # push-down of each far end is what fails, on stdout and stderr alike.
    MUTANTS[SCALED][0](monkeypatch)
    code, out, err = run(capsys, "verify", "cor42", "--t", "4")
    assert code == 1
    first = "t=1 path=['', '0']: filtration-sum push-down (1, 6) is not the EvenPair (f(2), f(4))"
    shown = [line for line in out.splitlines() if line.startswith("  counterexample: ")]
    assert shown[0] == f"  counterexample: {first}"
    assert err.splitlines()[0] == f"verify cor42: {first}"
    assert all(" push-down " in line for line in shown + err.splitlines())
    code, out, _ = run(capsys, "verify", "cor42", "--t", "4", "--format", "json")
    failures = json.loads(out)["failures"]
    assert code == 1 and failures[0] == first and all(" push-down " in f for f in failures)


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "three-term", "--from", "-5", "--to", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "verify" and data["ok"] is True and data["failures"] == []


def test_oeis_check_bundled(capsys):
    code, out, err = run(capsys, "oeis-check", "A000045")
    assert code == 0 and out.startswith("A000045: 501 values match ") and err == ""


def test_oeis_check_words_its_count_of_values(capsys, tmp_path):
    # One record is one value that matches; json and csv carry the bare number.
    one = tmp_path / "one.txt"
    one.write_text("5 5\n")
    assert run(capsys, "oeis-check", "A000045", "--fixture", str(one)) == (
        0, f"A000045: 1 value matches {one}\n", "")
    code, out, _ = run(capsys, "oeis-check", "A000045", "--fixture", str(one), "--format", "json")
    assert code == 0 and json.loads(out)["checked"] == 1


def test_oeis_check_mismatch(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n1 1\n2 1\n3 99\n")
    code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(bad))
    assert code == 1 and out == ""
    assert "mismatch at index 3" in err


def test_oeis_check_empty_fixture_is_refused(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# header only\n")
    for fmt in cli.FORMATS:
        code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(empty), "--format", fmt)
        assert code == 2 and out == "", fmt
        assert err == "error: fixture for A000045 holds no records; nothing to check\n", fmt


def test_oeis_check_parse_error(capsys, tmp_path):
    broken = tmp_path / "broken.txt"
    broken.write_text("0 0\noops\n")
    code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(broken))
    assert code == 2 and "error" in err


def test_oeis_check_refuses_a_fixture_whose_indices_do_not_increase(capsys, tmp_path):
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("0 0\n0 1\n")
    code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(repeated))
    assert (code, out, err) == (2, "", "error: line 2: index 0 not greater than previous 0\n")


def test_every_error_class_is_a_refused_input_or_a_failed_check():
    # main sets the exit status from these two bases alone: a ValueError
    # exits 2, an ArithmeticError 1.
    classes = [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__]
    assert classes
    for c in classes:
        assert issubclass(c, ValueError) != issubclass(c, ArithmeticError), c


def test_oeis_check_names_a_fixture_value_past_the_digit_limit(capsys, tmp_path):
    big = tmp_path / "big.txt"
    with int_digit_limit(0):
        big.write_text(f"30000 {fib(30000)}\n")  # 6,270 digits
    with int_digit_limit(4300):
        code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(big))
    assert (code, out) == (2, "")
    assert err == ("error: line 1: a field has more than 4300 digits, Python's int -> str limit; "
                   "raise it with PYTHONINTMAXSTRDIGITS (0 lifts it)\n")
    with int_digit_limit(0):
        code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(big), "--format", "csv")
    assert (code, out, err) == (0, "sequence,checked,ok\nA000045,1,True\n", "")


def test_oeis_check_mismatch_past_the_digit_limit_keeps_its_exit_code(capsys, tmp_path):
    small = tmp_path / "small.txt"
    small.write_text("30000 5\n")
    with int_digit_limit(4300):
        code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(small))
    assert (code, out) == (1, "")
    assert err == ("error: mismatch at index 30000: fixture has 5, generator produced "
                   "a number of more than 4300 digits (Python's int -> str limit)\n")


def test_oeis_check_unreadable_fixture(capsys, tmp_path):
    # A directory, and the empty path, which is refused as given rather
    # than read as the working directory or the bundled fixture.
    for fixture in (str(tmp_path), ""):
        code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", fixture)
        assert code == 2 and out == "", fixture
        assert err.startswith("error:") and err.count("\n") == 1, (fixture, err)
    assert "''" in err and "'.'" not in err  # the empty path is named as given


def test_oeis_check_unknown_sequence(capsys):
    assert run(capsys, "oeis-check", "A999999") == (2, "", "error: no generator configured for 'A999999'\n")


def test_json_round_trip_all_payloads(capsys):
    fixture = str(cli.oeis.default_fixture_path("A000045"))
    payloads = [
        payload_fib(-5, 5),
        payload_classify(2, 5),
        payload_classify(2, 2),
        payload_pairs(5),
        payload_partition(2),
        payload_svec(3, 12),
        payload_rvec(3, 12),
        payload_verify(suites.run_three_term(-5, 5)),
        payload_oeis(cli.oeis.run_check("A000045", fixture), fixture),
    ]
    for payload in payloads + [payload_utable(3)]:
        assert list(payload)[:2] == ["schema_version", "kind"], payload["kind"]
        assert payload["schema_version"] == 1
    for payload in payloads:
        assert json.loads(cli.emit(payload, "json")) == payload
    # The u_table payload carries its rows; its json is the reference dict.
    assert json.loads(cli.emit(payload_utable(3), "json")) == reference.payload_utable(3)


def test_cli_json_output_equals_builder(capsys):
    code, out, _ = run(capsys, "utable", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == reference.payload_utable(3)


def _reference_csv(header: str, rows: list[list]) -> str:
    """The generic csv join: one line per row of values, None left blank."""
    lines = [header]
    lines.extend(",".join("" if v is None else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _reference_ascii_utable(payload: dict) -> list[str]:
    """The ascii table read through a (t, s)-keyed map of cell strings."""
    rows = payload["rows"]
    lo = min(r["values"][0][0] for r in rows)
    hi = max(r["values"][-1][0] for r in rows)
    cells = {(r["t"], s): str(v) for r in rows for s, v in r["values"]}
    widths = {
        s: max(len(str(s)), max((len(cells.get((r["t"], s), "")) for r in rows), default=1))
        for s in range(lo, hi + 1)
    }
    head = "t\\s | " + " ".join(str(s).rjust(widths[s]) for s in range(lo, hi + 1))
    out = [head, "-" * len(head)]
    for r in rows:
        line = f"{r['t']:>3} | " + " ".join(
            cells.get((r["t"], s), "").rjust(widths[s]) for s in range(lo, hi + 1)
        )
        out.append(line + f"   [{r['minus']}, {r['plus']}]")
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 120))
@example(0)
@example(120)
@example(200)  # the size of the benchmark's tail job
def test_utable_rendering_matches_the_reference_routes(t_max):
    # The golden fixtures pin t = 4 and t = 12 only; these tables have
    # columns of many more widths. The renderers read the stepped rows, the
    # references the [s, v] lists.
    payload, want = payload_utable(t_max), reference.payload_utable(t_max)
    rows = [[row["t"], s, v] for row in want["rows"] for s, v in row["values"]]
    assert cli.emit(payload, "csv") == _reference_csv("t,s,value", rows)
    assert cli.emit(payload, "ascii") == "\n".join(_reference_ascii_utable(want)) + "\n"
    assert cli.emit(payload, "json") == json.dumps(want, indent=2) + "\n"


def test_the_utable_rows_are_summed_only_by_the_writers_that_print_sums(capsys, monkeypatch):
    # The payload's rows are the stepped table as it is; csv prints no sums
    # and reads none, and ascii and json read each row's sums once.
    _, want, _ = run(capsys, "utable", "40", "--format", "csv")
    real, summed = profiles.sums, []

    def refused(row):
        raise AssertionError("the csv table read a row's sums")

    monkeypatch.setattr(profiles, "sums", refused)
    assert run(capsys, "utable", "40", "--format", "csv") == (0, want, "")
    monkeypatch.setattr(profiles, "sums", lambda row: summed.append(row) or real(row))
    for fmt in ("ascii", "json"):
        summed.clear()
        assert run(capsys, "utable", "40", "--format", fmt)[0] == 0
        assert summed == profiles.u_table(40), fmt
    assert payload_utable(40)["rows"] == profiles.u_table(40)


def test_the_ascii_utable_is_written_without_a_second_copy():
    # The whole table is one %-template, so the peak is the text plus the
    # template and its arguments; lines joined into the text would hold it twice.
    payload = payload_utable(200)
    tracemalloc.start()
    try:
        text = cli.emit(payload, "ascii")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text), (peak, len(text))


def test_csv_ends_with_single_newline(capsys):
    for argv in (["fib", "1"], ["utable", "1", "--format", "csv"], ["svec", "1", "--format", "csv"]):
        _, out, _ = run(capsys, *argv)
        assert out.endswith("\n") and not out.endswith("\n\n")


# Every payload kind in every format, pinned byte for byte. oeis-check pins
# csv only: its json and ascii forms print the absolute fixture path. To
# regenerate a file, run its argv with --format <suffix> and save stdout.
GOLDEN = {
    "fib": ["fib", "--from", "-3", "--to", "3"],
    "classify": ["classify", "-1", "-2"],
    "pairs": ["pairs", "10"],
    "utable": ["utable", "4"],
    "utable12": ["utable", "12"],  # ascii columns 2 to 8 characters wide, sums up to 10 digits
    "partition": ["partition", "2"],
    "svec": ["svec", "3"],
    "rvec": ["rvec", "4"],
    "rvec3": ["rvec", "3"],  # an odd wave count, off the signed table's rows
    "svec12": ["svec", "12"],  # the oracle cap
    "rvec11": ["rvec", "11"],  # an odd wave count one below the cap
    "verify": ["verify", "cor42", "--t", "2"],
    "oeis-check": ["oeis-check", "A147316"],
}
GOLDEN_CASES = [(name, fmt) for name in GOLDEN for fmt in cli.FORMATS if name != "oeis-check" or fmt == "csv"]


@pytest.mark.parametrize("name,fmt", GOLDEN_CASES)
def test_cli_output_matches_golden(capsys, name, fmt):
    code, out, err = run(capsys, *GOLDEN[name], "--format", fmt)
    assert code == 0 and err == ""
    assert out.encode() == (FIXTURES / "cli_golden" / f"{name}.{fmt}").read_bytes()


class Tail(str):
    """A pin on the last line of stdout alone."""


# Command lines pinned by (line, exit status, stdout): a golden file, the
# exact text, or the last line alone. A line may start with NAME=value words,
# the environment it runs in, as in a shell. A new pin is one more row.
PINNED = [
    ("fib 10", 0, "55\n"),
    ("utable 0 --format csv", 0, "t,s,value\n0,-1,1\n0,0,1\n"),  # the csv header
    ("oeis-check A132262", 0, f"A132262: 231 values match {cli.oeis.default_fixture_path('A132262')}\n"),
    ("oeis-check A147316", 0, f"A147316: 231 values match {cli.oeis.default_fixture_path('A147316')}\n"),
    ("verify pairs --max 3", 0, "pairs: ok (49 checks)\n"),
    ("fib 127", 0, "155576970220531065681649693\n"),  # the last seed pair
    ("fib 128", 0, "251728825683549488150424261\n"),  # the first index doubled from the seed
    ("fib -- -129", 0, "407305795904080553832073954\n"),  # m = 128 by index negation
    ("pairs 1000000000000000", 0, Tail("290 pairs with |x|,|y| <= 1000000000000000")),  # the benchmark's largest bound
    ("classify 2", 2, ""),  # a usage error
    ("fib 5 --bogus", 2, ""),  # a leftover is the whole parser's usage error
    ("svec 3", 0, FIXTURES / "cli_golden" / "svec.ascii"),
    ("verify oracle --t 4", 0, "oracle: ok (30 checks)\n"),
    ("verify oracle --t 12", 0, "oracle: ok (78 checks)\n"),  # both routes at the oracle cap
    ("verify prop41 --t 12", 0, "prop41: ok (36 checks)\n"),  # the code route at the oracle cap
    ("verify cor42 --t 12", 0, "cor42: ok (36 checks)\n"),  # the corollaries at the oracle cap too
    ("verify cor43 --t 11", 0, "cor43: ok (36 checks)\n"),
    ("verify oracle --t 13 --oracle-cap 13", 0, "oracle: ok (84 checks)\n"),  # a raised cap reaches expand and compress
    ("verify prop41 --t 13 --oracle-cap 13", 0, "prop41: ok (39 checks)\n"),
    ("verify cor42 --t 13 --oracle-cap 13", 0, "cor42: ok (39 checks)\n"),
    ("verify cor43 --t 12 --oracle-cap 13", 0, "cor43: ok (39 checks)\n"),
    ("verify cor43 --t 0 --oracle-cap 0", 2, ""),  # a far end refused by the cap before any wave
    ("FIBQUIVER_ORACLE_CAP=2 verify cor42 --t 3", 2, ""),
    ("verify cor42 --t 3 --seed 5", 0, "cor42: ok (9 checks)\n"),  # --seed still parses, and is ignored
    ("verify cor42 --t 3 --paths 3", 2, ""),  # no --paths option
    ("verify sums --t 60", 0, "sums: ok (122 checks)\n"),  # the table rows against the push-down rule
    ("classify -- -3 -8", 0, "EvenPair t=-4 down\n"),  # parsed by classify's own subparser
    ("fib --from -3 --to 3", 0, "2,-1,1,0,1,1,2\n"),  # negative option values, read as a plain line
    ("utable 4 --form=csv", 0, FIXTURES / "utable4.csv"),  # an abbreviated "=" option, parsed by argparse
]


def split_line(line):
    """(environment, argv) of a pinned line."""
    env = dict(word.split("=", 1) for word in itertools.takewhile(lambda word: "=" in word, line.split()))
    return env, line.split()[len(env):]


@pytest.mark.parametrize("line,code,pin", PINNED, ids=[line for line, _, _ in PINNED])
def test_a_pinned_line_keeps_its_status_and_output(capsys, monkeypatch, line, code, pin):
    # As a fresh process would, the call reads PYTHONINTMAXSTRDIGITS as its digit limit.
    env, argv = split_line(line)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with int_digit_limit(int(env.get("PYTHONINTMAXSTRDIGITS", sys.get_int_max_str_digits()))):
        got, out, err = run(capsys, *argv)
    assert got == code, err
    if isinstance(pin, Tail):
        out = out.splitlines()[-1]
    assert out == (pin.read_text() if isinstance(pin, Path) else pin)


# (argv, FIBQUIVER_ORACLE_CAP) of an earlier and a later call in one process
SEQUENCES = [
    ((["verify", "cor42", "--t", "2", "--seed", "3", "--format", "json"], None),
     (["verify", "cor42", "--t", "2"], None)),
    ((["fib", "--from", "1", "--to", "3"], None), (["fib", "5"], None)),
    ((["svec", "3", "--oracle-cap", "20"], None), (["svec", "3"], "2")),
    ((["classify", "2"], None), (["classify", "2", "5"], None)),
    # A suite's vector families live for its call only.
    ((["verify", "prop41", "--t", "4"], None), (["verify", "prop41", "--t", "2"], None)),
    ((["verify", "cor43", "--t", "3"], None), (["verify", "cor43", "--t", "1", "--format", "json"], None)),
    # The table carries the cap, and the cap lives for its call only too.
    ((["verify", "cor42", "--t", "3", "--oracle-cap", "13"], None), (["verify", "cor42", "--t", "3"], "2")),
]


@pytest.mark.parametrize(
    "earlier,later", SEQUENCES, ids=["verify", "fib", "oracle-cap", "usage-error", "prop41-families", "cor43-families", "cor42-cap"]
)
def test_calls_leave_no_state_for_the_next(capsys, monkeypatch, earlier, later):
    def call_with_env(argv, env):
        if env is None:
            monkeypatch.delenv("FIBQUIVER_ORACLE_CAP", raising=False)
        else:
            monkeypatch.setenv("FIBQUIVER_ORACLE_CAP", env)
        return run(capsys, *argv)

    cli.build_parser.cache_clear()
    first = call_with_env(*later)
    cli.build_parser.cache_clear()
    call_with_env(*earlier)
    assert call_with_env(*later) == first


def test_builders_are_looked_up_at_call_time(capsys, monkeypatch):
    assert run(capsys, "classify", "2", "5")[0] == 0
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "payload_classify", lambda x, y: seen.append((x, y)) or payload_classify(x, y))
    monkeypatch.setattr(cli, "emit", lambda payload, fmt: seen.append(fmt) or "replaced\n")
    assert run(capsys, "classify", "2", "5") == (0, "replaced\n", "")
    assert seen == [(2, 5), "ascii"]


def test_suite_options_are_read_through_a_wrapper(capsys, monkeypatch):
    # A functools.wraps wrapper, as a tracer installs, takes *args and
    # **kwargs; the options a suite reads are still its own.
    def wrapped(run_suite):
        @functools.wraps(run_suite)
        def wrapper(*args, **kwargs):
            return run_suite(*args, **kwargs)
        return wrapper

    for name, run_suite in suites.SUITES.items():
        monkeypatch.setitem(suites.SUITES, name, wrapped(run_suite))
    assert run(capsys, "verify", "prop41", "--t", "1") == (0, "prop41: ok (3 checks)\n", "")
    assert run(capsys, "verify", "pairs", "--t", "3") == (2, "", "error: verify pairs does not read --t\n")
    assert run(capsys, "verify", "cor42", "--t", "1", "--seed", "5")[0] == 0


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every call is a fresh process and pays the import.
    src = str(Path(cli.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fibquiver.cli; fibquiver.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fibquiver.cli", "fib", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "13\n"


# main parses a command line that starts with a command's name with that
# command's subparser alone; each must parse as the whole parser parses it.
PARSED = [
    ["classify", "--", "-3", "-8"],
    ["classify", "2", "5", "--format", "json"],
    ["fib", "--from", "-5", "--to", "3"],
    ["fib", "--from=-5", "--to=3", "--format=csv"],
    ["fib", "5"],
    ["pairs", "10"],
    ["utable", "4", "--form", "csv"],  # an abbreviated option
    ["partition", "2"],
    ["svec", "3", "--oracle-cap", "4"],
    ["rvec", "3", "--oracle-cap", "4"],
    ["verify", "pairs", "--max", "3"],
    ["verify", "oracle", "--t", "3", "--oracle-cap", "4"],
    ["verify", "prop41", "--t-max", "3", "--oracle-cap", "13"],
    ["verify", "cor42", "--t", "3", "--oracle-cap", "5", "--seed", "5"],
    ["verify", "cor43", "--oracle-cap", "13"],
    ["verify", "three-term", "--from", "-3", "--to", "4"],
    ["oeis-check", "A000045", "--fixture", "b.txt"],
]


@pytest.mark.parametrize("argv", PARSED, ids=" ".join)
def test_a_command_line_parses_as_the_whole_parser_parses_it(argv):
    whole = vars(cli.build_parser().parse_args(argv))
    assert whole.pop("command") == argv[0]
    assert vars(cli._parse(argv)) == whole


def _whole_parser_run(capsys, argv):
    """(exit code, stdout, stderr) of the whole parser's parse_args(argv)."""
    try:
        cli.build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


USAGE_ERRORS = [
    [],
    ["-h"],
    ["nosuch"],
    ["--format", "csv", "fib", "5"],
    ["fib", "5", "--bogus"],
    ["fib", "5", "extra", "--bogus"],
    ["fib", "-h"],
    ["fib", "x"],
    ["classify", "2"],
    ["utable", "4", "--format", "xml"],
    ["verify", "nosuch"],
    ["svec", "3", "--oracle-cap", "many"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_usage_errors_and_help_are_the_whole_parsers(capsys, argv):
    assert run(capsys, *argv) == _whole_parser_run(capsys, argv)


def test_an_unrecognized_argument_is_refused_by_the_whole_parser(capsys):
    code, out, err = run(capsys, "fib", "5", "--bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: fibquiver [-h]\n")
    assert err.endswith("\nfibquiver: error: unrecognized arguments: --bogus\n")


def test_a_closed_stdout_is_one_error_line():
    # The 944 KB text outgrows the pipe, so its write meets the closed end.
    argv = [sys.executable, "-m", "fibquiver.cli", "fib", "--from", "0", "--to", "3000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_a_closed_stdout_without_an_fd_is_left_alone(capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    stdout = Closed()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["fib", "5"]) == 2
    assert sys.stdout is stdout and not stdout.closed
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


# Random command lines over every subcommand. Indices stay within 40, and
# within 6 for the brute-force commands, so each run is fast.
NUMBER = st.integers(-40, 40).map(str)
ORACLE_STEP = st.integers(-40, 6).map(str)
# verify's options other than --t, by the suite parameter they set
SUITE_OPTIONS = {"lo": "--from", "hi": "--to", "bound": "--max", "seed": "--seed"}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["fib", "pairs", "classify", "utable", "partition", "svec", "rvec", "verify", "oeis-check"]))
    capped = command in ("svec", "rvec")
    if command == "fib":
        argv = draw(st.one_of(
            st.tuples(NUMBER).map(list),
            st.tuples(NUMBER, NUMBER).map(lambda r: [f"--from={r[0]}", f"--to={r[1]}"]),
        ))
    elif command == "classify":
        argv = [draw(NUMBER), draw(NUMBER)]
    elif command in ("svec", "rvec"):
        argv = [draw(ORACLE_STEP)]
    elif command == "verify":
        # Each suite is given only options it reads; any other is a usage
        # error, tested in test_unread_options_are_usage_errors.
        suite = draw(st.sampled_from(sorted(suites.SUITES)))
        reads = inspect.signature(suites.SUITES[suite]).parameters
        capped = "cap" in reads
        argv = [suite]
        if "t_max" in reads:
            argv.append(f"--t={draw(ORACLE_STEP)}" if capped else f"--t-max={draw(NUMBER)}")
        argv += [f"{opt}={draw(NUMBER)}" for name, opt in SUITE_OPTIONS.items() if name in reads and draw(st.booleans())]
    elif command == "oeis-check":
        argv = [draw(st.one_of(st.sampled_from(["A000045", "A132262", "A147316"]), NUMBER.map("A{}".format)))]
    else:
        argv = [draw(NUMBER)]
    if capped and draw(st.booleans()):
        argv.append(f"--oracle-cap={draw(NUMBER)}")
    return [command, *argv, f"--format={draw(st.sampled_from(cli.FORMATS))}"]


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an escaping exception fails the test
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 0 and argv[-1] == "--format=json":
        assert json.loads(out.getvalue())["schema_version"] == 1


# main reads a plain command line straight off its command's subparser
# (cli._plain), and leaves every other line to argparse.
ROOT = Path(__file__).parent.parent
COMMANDS = cli.build_parser().commands
OPTIONS = sorted({option for command in COMMANDS.values() for option in command._option_string_actions})
LINE_TOKENS = st.one_of(
    st.sampled_from([*COMMANDS, *OPTIONS, "--", "-", "", "x", "--bogus", "-h5", "-1 2", *cli.FORMATS, "xml",
                     *suites.SUITES, "A000045", "b.txt"]),
    st.sampled_from(OPTIONS).flatmap(lambda o: st.integers(1, len(o) - 1).map(lambda k: o[:k])),  # prefixes
    st.tuples(st.sampled_from(OPTIONS), st.one_of(NUMBER, st.sampled_from(cli.FORMATS))).map("=".join),
    NUMBER,
    st.sampled_from(["-0", "-1.5", "-.5", "1.5", "-1e3", "-5x", "--5", "1_0", " 7 ", "-٣"]),  # signs and decimals
    st.text(max_size=3),
)


def _read_plain(argv):
    """The plain reader's Namespace for argv, None where it declines or
    argv names no command."""
    command = COMMANDS.get(argv[0]) if argv else None
    return None if command is None else cli._plain(command, list(argv[1:]))


def _subparser_reads(argv):
    """(Namespace, leftovers) of argv's command's own subparser; a usage
    error escapes as SystemExit."""
    with contextlib.redirect_stderr(io.StringIO()):
        return COMMANDS[argv[0]].parse_known_args(list(argv[1:]))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(list(COMMANDS)), st.lists(LINE_TOKENS, max_size=6))
@example("classify", ["--", "-3", "-8"])
@example("fib", ["--from", "-5", "--to", "3", "--format", "csv"])
@example("verify", ["cor42", "--t", "3", "--seed", "-5", "--oracle-cap", "4"])
@example("oeis-check", ["--fixture", "", "A000045"])
@example("oeis-check", ["-h"])  # untyped values that start with "-"
@example("oeis-check", ["A000045", "--fixture", "-x"])
def test_a_plain_line_is_read_as_its_subparser_reads_it(name, rest):
    # argparse's rules for "--" and negative numbers vary by version; the
    # reader must agree with the one it runs on, or decline.
    args = cli._plain(COMMANDS[name], rest)
    if args is not None:
        assert _subparser_reads([name, *rest]) == (args, [])


def _benchmark_lines():
    spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return [job.argv for workload in jobs.WORKLOADS for job in jobs.make_jobs(workload, 0, ROOT)]


@pytest.mark.parametrize(
    "lines,declined",
    [
        (_benchmark_lines, set()),
        (lambda: PARSED, {"fib --from=-5 --to=3 --format=csv", "utable 4 --form csv"}),
        (lambda: [split_line(line)[1] for line, _, _ in PINNED], {"classify 2", "fib 5 --bogus", "verify cor42 --t 3 --paths 3", "utable 4 --form=csv"}),
        (lambda: USAGE_ERRORS, {" ".join(argv) for argv in USAGE_ERRORS}),
    ],
    ids=["benchmark", "parsed", "pinned", "usage-errors"],
)
def test_plain_lines_take_the_plain_path(lines, declined):
    # Every benchmark job is plain, so the reader's gain cannot silently
    # vanish; "=" forms, abbreviations, usage errors and help go to argparse.
    read = [(argv, _read_plain(argv)) for argv in lines()]
    assert {" ".join(argv) for argv, args in read if args is None} == declined
    assert all(_subparser_reads(argv) == (args, []) for argv, args in read if args is not None)
