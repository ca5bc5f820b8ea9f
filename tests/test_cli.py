"""The command-line surface: formats, exit codes, and stream separation."""

import contextlib
import inspect
import io
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibquiver import cli, profiles, reflect, suites
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


def test_fib_single_value(capsys):
    code, out, _ = run(capsys, "fib", "10")
    assert code == 0 and out == "55\n"


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


def test_utable_header_is_stable(capsys):
    _, out, _ = run(capsys, "utable", "0", "--format", "csv")
    assert out == "t,s,value\n0,-1,1\n0,0,1\n"


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
        (["verify", "prop41", "--paths", "9"], "--paths"),
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
    if argv[0] == "verify":
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


def test_verify_failure_prints_counterexample(capsys, monkeypatch):
    def broken(**kwargs):
        return suites.SuiteResult("pairs", False, 1, ["acceptance mismatch at (1, 1)"])

    monkeypatch.setitem(suites.SUITES, "pairs", broken)
    code, out, err = run(capsys, "verify", "pairs")
    assert code == 1
    assert "FAILED" in out
    assert "acceptance mismatch at (1, 1)" in err


@pytest.mark.parametrize(
    "argv,module,name,breaks",
    [
        (["pairs", "--max", "10"], suites, "classify_pair", lambda real: lambda pair: NON_PAIR),
        (["oracle", "--t", "3"], profiles, "compress_radial",
         lambda real: lambda a, *, cap: profiles.step(real(a, cap=cap), 1)),  # one wave too many
        (["sums", "--t", "5"], profiles, "u_sums", lambda real: lambda p: tuple(v + 1 for v in real(p))),
    ],
    ids=["pairs", "oracle", "sums"],
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


@pytest.mark.parametrize("suite", ["cor42", "cor43"])
def test_paths_is_a_bounded_count(capsys, suite):
    counts = {}
    for paths in ("1", "3"):
        code, out, _ = run(capsys, "verify", suite, "--t", "2", "--paths", paths, "--format", "json")
        assert code == 0
        counts[paths] = json.loads(out)["checked"]
    assert 0 < counts["1"] < counts["3"]

    code, out, err = run(capsys, "verify", suite, "--t", "2", "--paths", "0")
    assert code == 2 and out == "" and err.startswith("error:")

    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", suite, "--t", "1", "--paths", "100000")
    assert code == 0 and "ok" in out
    assert time.perf_counter() - start < 1.0


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "three-term", "--from", "-5", "--to", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "verify" and data["ok"] is True and data["failures"] == []


def test_oeis_check_bundled(capsys):
    code, out, err = run(capsys, "oeis-check", "A000045")
    assert code == 0 and "501 values match" in out and err == ""


def test_oeis_check_mismatch(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n1 1\n2 1\n3 99\n")
    code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(bad))
    assert code == 1 and out == ""
    assert "mismatch at index 3" in err


def test_oeis_check_empty_fixture_warns(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# header only\n")
    code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(empty))
    assert code == 0
    assert "warning" in err and "vacuous" in err
    assert "0 values match" in out


def test_oeis_check_parse_error(capsys, tmp_path):
    broken = tmp_path / "broken.txt"
    broken.write_text("0 0\noops\n")
    code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", str(broken))
    assert code == 2 and "error" in err


def test_oeis_check_unreadable_fixture(capsys, tmp_path):
    # A directory, and the empty path, which is refused as given rather
    # than read as the working directory or the bundled fixture.
    for fixture in (str(tmp_path), ""):
        code, out, err = run(capsys, "oeis-check", "A000045", "--fixture", fixture)
        assert code == 2 and out == "", fixture
        assert err.startswith("error:") and err.count("\n") == 1, (fixture, err)
    assert "''" in err and "'.'" not in err  # the empty path is named as given


def test_oeis_check_unknown_sequence(capsys):
    code, _, err = run(capsys, "oeis-check", "A999999")
    assert code == 2 and "no generator configured" in err


def test_json_round_trip_all_payloads(capsys):
    fixture = str(cli.oeis.default_fixture_path("A000045"))
    payloads = [
        payload_fib(-5, 5),
        payload_classify(2, 5),
        payload_classify(2, 2),
        payload_pairs(5),
        payload_utable(3),
        payload_partition(2),
        payload_svec(3, 12),
        payload_rvec(3, 12),
        payload_verify(suites.run_three_term(-5, 5)),
        payload_oeis(cli.oeis.run_check("A000045"), fixture),
    ]
    for payload in payloads:
        assert json.loads(cli.emit(payload, "json")) == payload
        assert payload["schema_version"] == 1


def test_cli_json_output_equals_builder(capsys):
    code, out, _ = run(capsys, "utable", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == payload_utable(3)


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


def test_utable_rendering_matches_the_reference_routes():
    # The golden fixtures pin t = 4 only, where every column is 1-2
    # characters wide; these tables have columns of many widths.
    for t_max in [*range(61), 101]:
        payload = payload_utable(t_max)
        rows = [[row["t"], s, v] for row in payload["rows"] for s, v in row["values"]]
        assert cli.emit(payload, "csv") == _reference_csv("t,s,value", rows), t_max
        assert cli.emit(payload, "ascii") == "\n".join(_reference_ascii_utable(payload)) + "\n", t_max
        assert cli.emit(payload, "json") == json.dumps(payload, indent=2) + "\n", t_max


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
    "partition": ["partition", "2"],
    "svec": ["svec", "3"],
    "rvec": ["rvec", "4"],
    "rvec3": ["rvec", "3"],  # an odd wave count, off the signed table's rows
    "verify": ["verify", "cor42", "--t", "2"],
    "oeis-check": ["oeis-check", "A147316"],
}
GOLDEN_CASES = [(name, fmt) for name in GOLDEN for fmt in cli.FORMATS if name != "oeis-check" or fmt == "csv"]


@pytest.mark.parametrize("name,fmt", GOLDEN_CASES)
def test_cli_output_matches_golden(capsys, name, fmt):
    code, out, err = run(capsys, *GOLDEN[name], "--format", fmt)
    assert code == 0 and err == ""
    assert out.encode() == (FIXTURES / "cli_golden" / f"{name}.{fmt}").read_bytes()


# (argv, FIBQUIVER_ORACLE_CAP) of an earlier and a later call in one process
SEQUENCES = [
    ((["verify", "cor42", "--t", "2", "--paths", "6", "--seed", "3", "--format", "json"], None),
     (["verify", "cor42", "--t", "2"], None)),
    ((["fib", "--from", "1", "--to", "3"], None), (["fib", "5"], None)),
    ((["svec", "3", "--oracle-cap", "20"], None), (["svec", "3"], "2")),
    ((["classify", "2"], None), (["classify", "2", "5"], None)),
]


@pytest.mark.parametrize("earlier,later", SEQUENCES, ids=["verify", "fib", "oracle-cap", "usage-error"])
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


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "fibquiver.cli", "fib", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "13\n"


# Random command lines over every subcommand. Indices stay within 40, and
# within 6 for the brute-force commands, so each run is fast.
NUMBER = st.integers(-40, 40).map(str)
ORACLE_STEP = st.integers(-40, 6).map(str)
# verify's options other than --t, by the suite parameter they set
SUITE_OPTIONS = {"lo": "--from", "hi": "--to", "bound": "--max", "paths": "--paths", "seed": "--seed"}


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
