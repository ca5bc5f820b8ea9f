"""b-file parsing and cross-checking of generated sequences against fixtures.

A b-file is the plain-text sequence format: one "index value" pair per
line, indices strictly increasing, lines starting with '#' ignored. The
checker replays the sequence's generator (GENERATORS) over the fixture's
index range and reports the first disagreement.

The bundled A000045 fixture is definitional. The two triangle fixtures
were generated locally by the generators they check, so they pin
self-consistency only; to cross-check, pass the published b-files with
--fixture. No network access anywhere; fixtures are read-only files.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .errors import SequenceMismatch, digit_limit_error
from .fibcore import fib
from .profiles import Profile, radial_start, rows, u_start


def parse_bfile(text: str) -> tuple[tuple[int, int], ...]:
    """The (index, value) records of a b-file, index strictly increasing."""
    records: list[tuple[int, int]] = []
    last_n: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            limit, digits = sys.get_int_max_str_digits(), [f.lstrip("+-") for f in parts]
            if limit and all(d.isdigit() for d in digits) and max(map(len, digits)) > limit:
                raise digit_limit_error(f"line {lineno}: a field", limit) from None
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        if last_n is not None and n <= last_n:
            raise ValueError(f"line {lineno}: index {n} not greater than previous {last_n}")
        records.append((n, value))
        last_n = n
    return tuple(records)


def _flat_rows(start: Profile) -> Callable[[int], int]:
    """Position k of a profile table read row by row over each row's stored
    classes, ascending: the radial table gives 1; 1,1; 2,1,1; 2,3,1,1; ...
    and the signed-class table 1,1; 1,1,1; 1,1,4,2,3,1,1; ..."""
    flat: list[int] = []
    table = rows(start)

    def gen(k: int) -> int:
        if k < 0:
            raise ValueError(f"triangle position must be non-negative, got {k}")
        while len(flat) <= k:
            flat.extend(next(table).values)
        return flat[k]

    return gen


# Sequence id -> a fresh generator of the value at index n.
GENERATORS: dict[str, Callable[[], Callable[[int], int]]] = {
    "A000045": lambda: fib,
    "A132262": lambda: _flat_rows(radial_start()),
    "A147316": lambda: _flat_rows(u_start()),
}


class CheckResult(NamedTuple):
    sequence: str
    checked: int


def check_bfile(sequence: str, records: tuple[tuple[int, int], ...], gen: Callable[[int], int]) -> CheckResult:
    """Compare generator output against every fixture record.

    Raises SequenceMismatch at the first differing index, and ValueError on
    an empty fixture (comments only), which would check nothing.
    """
    if not records:
        raise ValueError(f"fixture for {sequence} holds no records; nothing to check")
    for n, expected in records:
        actual = gen(n)
        if actual != expected:
            raise SequenceMismatch(n, expected, actual)
    return CheckResult(sequence, len(records))


def default_fixture_path(sequence: str) -> Path:
    """Bundled fixture for a sequence id like 'A000045': data/b000045.txt."""
    seq = sequence.upper()
    if not (seq.startswith("A") and seq[1:].isdigit()):
        raise ValueError(f"not a sequence id: {sequence!r}")
    return Path(__file__).with_name("data") / f"b{seq[1:].zfill(6)}.txt"


def run_check(sequence: str, fixture: str | Path) -> CheckResult:
    """Check the sequence's generator against the b-file at fixture."""
    make = GENERATORS.get(sequence.upper())
    if make is None:
        raise ValueError(f"no generator configured for {sequence!r}")
    gen = make()
    return check_bfile(sequence.upper(), parse_bfile(Path(fixture).read_text()), gen)
