"""b-file parsing, generator registry, and fixture cross-checks."""

import pytest

from fibquiver.errors import BFileParseError, SequenceMismatch
from fibquiver.fibcore import fib
from fibquiver.oeis import (
    GENERATORS,
    check_bfile,
    default_fixture_path,
    load_bfile,
    parse_bfile,
    run_check,
)


def test_parse_basic():
    bf = parse_bfile("0 0\n1 1\n2 1\n3 2\n")
    assert bf.records == ((0, 0), (1, 1), (2, 1), (3, 2))
    assert len(bf) == 4


def test_parse_skips_comments_and_blanks():
    bf = parse_bfile("# a comment\n\n  5 5\n# another\n6 8\n")
    assert bf.records == ((5, 5), (6, 8))


def test_parse_allows_negative_indices_and_values():
    bf = parse_bfile("-2 -1\n-1 1\n0 0\n")
    assert bf.records == ((-2, -1), (-1, 1), (0, 0))


def test_parse_rejects_malformed_lines():
    with pytest.raises(BFileParseError, match="line 1"):
        parse_bfile("1 2 3\n")
    with pytest.raises(BFileParseError, match="non-integer"):
        parse_bfile("0 zero\n")
    with pytest.raises(BFileParseError, match="not greater"):
        parse_bfile("3 2\n3 2\n")
    with pytest.raises(BFileParseError, match="not greater"):
        parse_bfile("3 2\n1 1\n")


def test_check_matches_generator():
    bf = parse_bfile("\n".join(f"{n} {fib(n)}" for n in range(40)))
    result = check_bfile("A000045", bf, fib)
    assert result.ok and result.checked == 40 and result.warning is None


def test_check_reports_first_mismatch():
    # A truncated final value: 832040 cut to 83204.
    lines = [f"{n} {fib(n)}" for n in range(30)] + ["30 83204"]
    bf = parse_bfile("\n".join(lines))
    with pytest.raises(SequenceMismatch) as exc:
        check_bfile("A000045", bf, fib)
    assert exc.value.n == 30
    assert exc.value.expected == 83204
    assert exc.value.actual == 832040
    assert "index 30" in str(exc.value)


def test_check_empty_fixture_is_vacuous_with_warning():
    bf = parse_bfile("# nothing but comments\n# here\n")
    result = check_bfile("A000045", bf, fib)
    assert result.ok and result.checked == 0
    assert "vacuous" in result.warning


def test_generator_registry():
    assert set(GENERATORS) == {"A000045", "A132262", "A147316"}
    g = GENERATORS["A000045"]()
    assert g(10) == 55 and g(-4) == -3


def test_triangle_generators_prefixes():
    g = GENERATORS["A132262"]()
    assert [g(k) for k in range(10)] == [1, 1, 1, 2, 1, 1, 2, 3, 1, 1]
    g = GENERATORS["A147316"]()
    assert [g(k) for k in range(12)] == [1, 1, 1, 1, 1, 1, 1, 4, 2, 3, 1, 1]
    with pytest.raises(ValueError):
        g(-1)


def test_bundled_fixture_paths():
    assert default_fixture_path("A000045").name == "b000045.txt"
    assert default_fixture_path("a000045").name == "b000045.txt"
    with pytest.raises(ValueError):
        default_fixture_path("X123")


def test_bundled_fixtures_pass():
    for seq in ("A000045", "A132262", "A147316"):
        result = run_check(seq)
        assert result.ok and result.checked > 200, seq


def test_bundled_fibonacci_fixture_values():
    bf = load_bfile(default_fixture_path("A000045"))
    assert bf.records[0] == (0, 0)
    assert bf.records[10] == (10, 55)
    assert bf.records[-1][0] == 500


def test_run_check_unknown_sequence():
    with pytest.raises(KeyError):
        run_check("A999999")


def test_run_check_with_custom_fixture(tmp_path):
    fixture = tmp_path / "b.txt"
    fixture.write_text("0 0\n1 1\n2 1\n")
    result = run_check("a000045", fixture)
    assert result.sequence == "A000045" and result.ok and result.checked == 3
