"""b-file parsing and cross-checking of generated sequences against fixtures.

A b-file is the plain-text sequence format: one "index value" pair per
line, indices strictly increasing, lines starting with '#' ignored. The
checker replays a named generator over the fixture's index range and
reports the first disagreement.

Which generator a sequence id maps to is configuration, not code: the
bundled data/oeis_map.json can be edited or swapped out per invocation.
No network access anywhere; fixtures are read-only local files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

from .errors import BFileParseError, SequenceMismatch
from .fibcore import fib
from .profiles import radial_step, radial_start, u_step, u_start


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: (index, value) records with strictly increasing index."""

    records: tuple[tuple[int, int], ...]

    def __len__(self):
        return len(self.records)


def parse_bfile(text: str) -> BFile:
    records: list[tuple[int, int]] = []
    last_n: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(f"line {lineno}: non-integer field in {raw!r}") from None
        if last_n is not None and n <= last_n:
            raise BFileParseError(f"line {lineno}: index {n} not greater than previous {last_n}")
        records.append((n, value))
        last_n = n
    return BFile(tuple(records))


def load_bfile(path: str | Path) -> BFile:
    return parse_bfile(Path(path).read_text())


def _flat_rows(row, step) -> Callable[[int], int]:
    """Position k of a profile table read row by row over each row's stored
    classes, ascending: the radial table gives 1; 1,1; 2,1,1; 2,3,1,1; ...
    and the signed-class table 1,1; 1,1,1; 1,1,4,2,3,1,1; ..."""
    flat: list[int] = []

    def gen(k: int) -> int:
        nonlocal row
        if k < 0:
            raise ValueError(f"triangle position must be non-negative, got {k}")
        while len(flat) <= k:
            flat.extend(row.values)
            row = step(row)
        return flat[k]

    return gen


GENERATORS: dict[str, Callable[[], Callable[[int], int]]] = {
    "fibonacci": lambda: fib,
    "radial-triangle-rows": lambda: _flat_rows(radial_start(), radial_step),
    "u-triangle-rows": lambda: _flat_rows(u_start(), u_step),
}


def make_generator(name: str, offset: int = 0) -> Callable[[int], int]:
    if name not in GENERATORS:
        raise KeyError(f"unknown generator {name!r} (have {sorted(GENERATORS)})")
    f = GENERATORS[name]()
    if offset == 0:
        return f
    return lambda n: f(n - offset)


@dataclass(frozen=True)
class CheckResult:
    sequence: str
    checked: int
    ok: bool
    warning: Optional[str] = None


def check_bfile(sequence: str, bfile: BFile, gen: Callable[[int], int]) -> CheckResult:
    """Compare generator output against every fixture record.

    Raises SequenceMismatch at the first differing index. An empty fixture
    (comments only) passes vacuously, with a warning attached.
    """
    if not bfile.records:
        return CheckResult(sequence, 0, True, warning="fixture holds no records; vacuous pass")
    for n, expected in bfile.records:
        actual = gen(n)
        if actual != expected:
            raise SequenceMismatch(n, expected, actual)
    return CheckResult(sequence, len(bfile.records), True)


def data_path(name: str) -> Path:
    return Path(str(resources.files("fibquiver").joinpath("data", name)))


def default_mapping_path() -> Path:
    return data_path("oeis_map.json")


def load_mapping(path: str | Path | None = None) -> dict:
    p = Path(path) if path is not None else default_mapping_path()
    mapping = json.loads(p.read_text())
    if "sequences" not in mapping:
        raise ValueError(f"mapping file {p} lacks a 'sequences' table")
    return mapping


def default_fixture_path(sequence: str) -> Path:
    """Bundled fixture for a sequence id like 'A000045': data/b000045.txt."""
    seq = sequence.upper()
    if not (seq.startswith("A") and seq[1:].isdigit()):
        raise ValueError(f"not a sequence id: {sequence!r}")
    return data_path(f"b{seq[1:].zfill(6)}.txt")


def run_check(
    sequence: str,
    fixture: str | Path | None = None,
    mapping_path: str | Path | None = None,
) -> CheckResult:
    """Resolve the configured generator for a sequence id and check it
    against the fixture (bundled by default)."""
    mapping = load_mapping(mapping_path)
    entry = mapping["sequences"].get(sequence.upper())
    if entry is None:
        raise KeyError(f"no generator configured for {sequence!r}")
    gen = make_generator(entry["generator"], entry.get("offset", 0))
    path = Path(fixture) if fixture is not None else default_fixture_path(sequence)
    return check_bfile(sequence.upper(), load_bfile(path), gen)
