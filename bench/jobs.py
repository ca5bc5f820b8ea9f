"""Seeded job lists for the three workloads, and the references that check them.

A job is one fibquiver command line (argv) plus a check on its stdout. The
references here share no code with fibquiver: Fibonacci numbers come from
streaming addition, pair verdicts from q(x, y) = x^2 + y^2 - 3xy, table rows
from their weighted class sums, and `utable 4 --format csv` from the bytes
of tests/fixtures/utable4.csv. A check returns None when the output is
right and a one-line reason when it is not; output it cannot parse makes it
raise ValueError, IndexError, KeyError, TypeError or AttributeError.

Job sizes are fixed multisets; the seed draws the order, the exact pairs,
some sizes within narrow strata, and the suite seeds. That keeps the cost
of a pass nearly the same for every seed while the inputs differ.
"""

from __future__ import annotations

import json
import random
import re
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional

Check = Callable[[str], Optional[str]]

# `fib t` prints t's value in decimal. Python refuses int -> str past 4300
# digits, so the program exits 2 from this index on; the benchmark keeps
# these jobs and counts them as failed until the program prints them.
FIB_STR_LIMIT_INDEX = 20578

# Large-index fib jobs in pair-classify, fixed so the failing ones can be
# named: all but the first are at or past FIB_STR_LIMIT_INDEX. The last,
# twice a pass, is the workload's tail job.
LARGE_FIB = (20577, 20578, 40000, 70000, 100000, 100000)


class Job(NamedTuple):
    argv: tuple[str, ...]
    check: Check


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def fib_ref(t: int) -> int:
    """f(t) by streaming addition, extended by f(-t) = (-1)**(t+1) f(t)."""
    a, b = 0, 1
    for _ in range(abs(t)):
        a, b = b, a + b
    return -a if t < 0 and t % 2 == 0 else a


def q(x: int, y: int) -> int:
    return x * x + y * y - 3 * x * y


def class_size(s: int) -> int:
    """Vertices in signed class s of an edge-grown vector."""
    return 2 ** s if s >= 0 else 2 ** (-s - 1)


def shell_size(d: int) -> int:
    """Vertices at distance d from one vertex of the 3-regular tree."""
    return 1 if d == 0 else 3 * 2 ** (d - 1)


@contextmanager
def unlimited_int_digits():
    """Lift the int <-> str digit limit for a reference comparison only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _int(s: str) -> int:
    with unlimited_int_digits():
        return int(s)


def _expect(ok: bool, reason: str) -> Optional[str]:
    return None if ok else reason


# ----------------------------------------------------------------------
# checks, one builder per command
# ----------------------------------------------------------------------

def check_fib(lo: int, hi: int) -> Check:
    def check(out: str) -> Optional[str]:
        want = [fib_ref(t) for t in range(lo, hi + 1)]
        try:
            got = [_int(v) for v in out.rstrip("\n").split(",")]
        except ValueError:
            return f"fib {lo}..{hi}: unparsable output"
        return _expect(got == want and out.endswith("\n"), f"fib {lo}..{hi}: values differ from streaming addition")

    return check


_VERDICT = re.compile(r"(EvenPair|OddPair|NotAPair)(?: t=(-?\d+) (up|down)( \(negated\))?)?$")
MAX_WITNESS_INDEX = 10**6


def verdict_error(x: int, y: int, text: str) -> Optional[str]:
    """None when the ascii verdict for (x, y) agrees with q and, for a pair,
    its witness [f(t), f(t+-2)] (negated if flagged) reproduces (x, y)."""
    m = _VERDICT.match(text)
    if not m:
        return f"({x}, {y}): unparsable verdict {text!r}"
    kind, t, direction, negated = m.groups()
    want = {1: "EvenPair", -1: "OddPair"}.get(q(x, y), "NotAPair")
    if kind != want:
        return f"({x}, {y}): verdict {kind}, q says {want}"
    if kind == "NotAPair":
        return _expect(t is None, f"({x}, {y}): witness on a non-pair")
    t = int(t)
    if abs(t) > MAX_WITNESS_INDEX:
        return f"({x}, {y}): witness index {t} out of range"
    pair = (fib_ref(t), fib_ref(t + 2 if direction == "up" else t - 2))
    if negated:
        pair = (-pair[0], -pair[1])
    return _expect(pair == (x, y), f"({x}, {y}): witness t={t} {direction} gives {pair}")


def check_classify(x: int, y: int) -> Check:
    return lambda out: verdict_error(x, y, out.rstrip("\n"))


def reference_pairs(bound: int) -> set[tuple[int, int]]:
    """Every |q| = 1 point in the box: the pairs +-[f(t), f(t+-2)]."""
    k = 2
    while abs(fib_ref(k)) <= bound:
        k += 1
    points = set()
    for t in range(-k - 2, k + 3):
        for other in (fib_ref(t + 2), fib_ref(t - 2)):
            for sign in (1, -1):
                x, y = sign * fib_ref(t), sign * other
                if abs(x) <= bound and abs(y) <= bound:
                    points.add((x, y))
    return points


_PAIR_ROW = re.compile(r"\((-?\d+), (-?\d+)\)  (.*)$")


def check_pairs(bound: int) -> Check:
    def check(out: str) -> Optional[str]:
        lines = out.rstrip("\n").split("\n")
        want = reference_pairs(bound)
        if lines[-1] != f"{len(want)} pairs with |x|,|y| <= {bound}":
            return f"pairs {bound}: summary {lines[-1]!r}, expected {len(want)} pairs"
        got = set()
        for line in lines[:-1]:
            m = _PAIR_ROW.match(line)
            if not m:
                return f"pairs {bound}: unparsable row {line!r}"
            x, y = int(m.group(1)), int(m.group(2))
            err = verdict_error(x, y, m.group(3))
            if err:
                return f"pairs {bound}: {err}"
            got.add((x, y))
        return _expect(got == want, f"pairs {bound}: point set differs from the reference")

    return check


_VERIFY = re.compile(r"(\S+): ok \((\d+) checks\)$")


def check_verify(suite: str) -> Check:
    """Exit 0 is judged by the caller; here: ok, with at least one check."""

    def check(out: str) -> Optional[str]:
        m = _VERIFY.match(out.rstrip("\n"))
        if not m or m.group(1) != suite:
            return f"verify {suite}: unexpected output {out[:80]!r}"
        return _expect(int(m.group(2)) > 0, f"verify {suite}: ok after 0 checks")

    return check


_OEIS = re.compile(r"(A\d+): (\d+) values match ")


def check_oeis(sequence: str) -> Check:
    def check(out: str) -> Optional[str]:
        m = _OEIS.match(out)
        if not m or m.group(1) != sequence:
            return f"oeis-check {sequence}: unexpected output {out[:80]!r}"
        return _expect(int(m.group(2)) > 0, f"oeis-check {sequence}: ok after 0 records")

    return check


def row_sums_error(t: int, cells: dict[int, int]) -> Optional[str]:
    """Index-t signed-class row: sizes times values sum to f(4t-1) over odd
    |s| and f(4t+1) over even |s|."""
    minus = plus = 0
    for s, v in cells.items():
        if v < 0:
            return f"row {t}: negative value at class {s}"
        if abs(s) % 2:
            minus += class_size(s) * v
        else:
            plus += class_size(s) * v
    return _expect((minus, plus) == (fib_ref(4 * t - 1), fib_ref(4 * t + 1)), f"row {t}: weighted sums are not f(4t-1), f(4t+1)")


def _utable_json(n: int, out: str) -> Optional[str]:
    p = json.loads(out)
    if (p.get("schema_version"), p.get("kind"), p.get("t_max")) != (1, "u_table", n):
        return "header fields"
    if [r["t"] for r in p["rows"]] != list(range(n + 1)):
        return "row indices"
    for r in p["rows"]:
        err = row_sums_error(r["t"], dict(r["values"]))
        if err or (r["minus"], r["plus"]) != (fib_ref(4 * r["t"] - 1), fib_ref(4 * r["t"] + 1)):
            return err or f"row {r['t']}: minus/plus fields"
    return None


def _utable_csv(n: int, out: str) -> Optional[str]:
    lines = iter(out.splitlines())
    if next(lines, None) != "t,s,value":
        return "csv header"
    rows: dict[int, dict[int, int]] = {}
    for line in lines:
        t, s, v = map(int, line.split(","))
        rows.setdefault(t, {})[s] = v
    if list(rows) != list(range(n + 1)):
        return "row indices"
    for t, cells in rows.items():
        err = row_sums_error(t, cells)
        if err:
            return err
    return None


def _utable_ascii(n: int, out: str) -> Optional[str]:
    lines = out.splitlines()
    head = lines[0].split(" | ", 1)[1]
    # Cells are right-justified under the header's class labels, so each
    # column ends where its label ends.
    spans, start = [], 0
    for m in re.finditer(r"\S+", head):
        spans.append((int(m.group()), start, m.end()))
        start = m.end() + 1
    rows = lines[2:]
    if len(rows) != n + 1:
        return f"{len(rows)} rows"
    for t, line in enumerate(rows):
        label, body = line.split(" | ", 1)
        body, _, sums = body.rpartition("   [")
        if int(label) != t or not sums.endswith("]"):
            return f"row {t}: layout"
        cells = {s: int(body[a:b]) for s, a, b in spans if body[a:b].strip()}
        err = row_sums_error(t, cells)
        if err or tuple(map(int, sums[:-1].split(", "))) != (fib_ref(4 * t - 1), fib_ref(4 * t + 1)):
            return err or f"row {t}: bracketed sums"
    return None


def check_utable(n: int, fmt: str, fixture: Optional[bytes] = None) -> Check:
    """With a fixture, the output must equal its bytes; otherwise every row's
    weighted sums must match the reference Fibonacci numbers."""
    parse = {"json": _utable_json, "csv": _utable_csv, "ascii": _utable_ascii}[fmt]

    def check(out: str) -> Optional[str]:
        if fixture is not None:
            return _expect(out.encode() == fixture, f"utable {n} {fmt}: differs from the fixture bytes")
        err = parse(n, out)
        return err and f"utable {n} {fmt}: {err}"

    return check


_TERM = re.compile(r"  class +(-?\d+): (\d+) \* (\d+) = (\d+)$")


def check_partition(t: int) -> Check:
    """Each side's terms are size * value = product over classes of the
    side's parity, summing to f(4t-1) (minus) and f(4t+1) (plus)."""

    def check(out: str) -> Optional[str]:
        lines = out.rstrip("\n").split("\n")
        if lines[0] != f"step {t}":
            return f"partition {t}: header {lines[0]!r}"
        targets = {"minus": fib_ref(4 * t - 1), "plus": fib_ref(4 * t + 1)}
        side, total = None, 0
        for line in lines[1:]:
            if line.endswith(":") and " target " in line:
                side, target = line[:-1].split(" target ")
                if side not in targets or int(target) != targets[side]:
                    return f"partition {t}: {line!r}"
                total = 0
            elif line.startswith("  total = "):
                if side is None or total != targets[side] or int(line.split(" = ")[1]) != total:
                    return f"partition {t}: {side} terms sum to {total}"
                targets.pop(side)
                side = None
            else:
                m = _TERM.match(line)
                if not m or side is None:
                    return f"partition {t}: unparsable line {line!r}"
                s, w, v, prod = map(int, m.groups())
                if w != class_size(s) or w * v != prod or (abs(s) % 2 == 1) != (side == "minus"):
                    return f"partition {t}: bad term {line.strip()!r}"
                total += prod
        return _expect(not targets, f"partition {t}: missing side(s) {sorted(targets)}")

    return check


_SVEC_RING = re.compile(r"ring (\d+) \((\d+) (?:vertex|vertices)\): (\d+)$")
_RVEC_CLASS = re.compile(r"s=([+-])(\d+): (\d+) \((\d+) (?:vertex|vertices)\)")
_SUMS = re.compile(r"sums: \[(-?\d+), (-?\d+)\]$")


def _parity_sums_error(label: str, t: int, terms: list[tuple[int, int, int]], lo: int, hi: int, last: str) -> Optional[str]:
    """terms are (distance, size, value); sums by distance parity against t
    must be (f(lo), f(hi)) and match the printed sums line."""
    minus = sum(size * v for d, size, v in terms if d % 2 != t % 2)
    plus = sum(size * v for d, size, v in terms if d % 2 == t % 2)
    m = _SUMS.match(last)
    want = (fib_ref(lo), fib_ref(hi))
    if not m or (int(m.group(1)), int(m.group(2))) != want or (minus, plus) != want:
        return f"{label} {t}: sums are not f({lo}), f({hi})"
    return None


def check_svec(t: int) -> Check:
    def check(out: str) -> Optional[str]:
        lines = out.rstrip("\n").split("\n")
        terms = []
        for d, line in enumerate(lines[1:-1]):
            m = _SVEC_RING.match(line)
            if not m or int(m.group(1)) != d or int(m.group(2)) != shell_size(d):
                return f"svec {t}: ring line {line!r}"
            terms.append((d, shell_size(d), int(m.group(3))))
        if len(terms) != t + 1 or terms[-1][2] != 1:
            return f"svec {t}: {len(terms)} rings"
        return _parity_sums_error("svec", t, terms, 2 * t, 2 * t + 2, lines[-1])

    return check


def check_rvec(t: int) -> Check:
    def check(out: str) -> Optional[str]:
        lines = out.rstrip("\n").split("\n")
        terms = []
        for line in lines[1:-1]:
            for sign, d, v, size in _RVEC_CLASS.findall(line):
                s = int(d) if sign == "+" else -int(d)
                if int(size) != class_size(s):
                    return f"rvec {t}: class {s} size {size}"
                terms.append((int(d), int(size), int(v)))
        if not terms:
            return f"rvec {t}: no classes"
        return _parity_sums_error("rvec", t, terms, 2 * t - 1, 2 * t + 1, lines[-1])

    return check


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _job(check: Check, *argv) -> Job:
    return Job(tuple(str(a) for a in argv), check)


def _verify(suite: str, *args) -> Job:
    return _job(check_verify(suite), "verify", suite, *args)


def _utable(n: int, fmt: str, fixture: Optional[bytes] = None) -> Job:
    return _job(check_utable(n, fmt, fixture), "utable", n, "--format", fmt)


# Each workload's pass is built in three tiers around a block of jobs of
# equal cost, where the median job falls, and one tail job that runs twice a
# pass. A pass takes 2.5-3.2 s with its probes, so a 35 s run makes 11 or
# more passes and the tail metric (see timings in bench/run.py) is the tail
# job's time; the next tier, at under 2/3 of the tail job's time, does not
# overtake it.


def profile_tables(rng: random.Random, root: Path, tiny: bool = False) -> list[Job]:
    """Profile tables in all three formats, partitions, radial/signed sums and
    the two triangle b-file checks. Sizes repeat within the list, so a row
    cache would show its gain (and its memory)."""
    fixture = (root / "tests" / "fixtures" / "utable4.csv").read_bytes()
    median, mid, tail = (8, 14, 20) if tiny else (40, 100, 200)
    jobs = []
    # below the median: a few ms each
    jobs += [_job(check_oeis(seq), "oeis-check", seq) for seq in ("A132262", "A147316") for _ in range(2)]
    jobs += [_utable(4, "csv", fixture) for _ in range(2)]
    p = median // 2 + rng.randint(-2, 2)
    jobs.append(_job(check_partition(p), "partition", p))
    jobs.append(_verify("sums", "--t-max", median // 2 + rng.randint(-2, 2)))
    # the median block: one small table in two formats of equal cost
    jobs += [_utable(median, fmt) for fmt in ("csv", "ascii") for _ in range(4)]
    # above the median
    jobs.append(_verify("sums", "--t-max", 3 * median // 2 + rng.randint(-2, 2)))
    jobs.append(_utable(3 * median // 2 + rng.randint(-2, 2), "json"))
    n = mid + rng.randint(-1, 1)
    jobs += [_utable(n, fmt) for fmt in ("json", "csv", "ascii")]
    p = 3 * mid // 2 + rng.randint(-1, 1)
    jobs.append(_job(check_partition(p), "partition", p))
    jobs.append(_verify("sums", "--t-max", 3 * mid // 2 + rng.randint(-1, 1)))
    jobs += [_utable(tail, "ascii") for _ in range(2)]
    return jobs


def _far_pair(rng: random.Random, t: int) -> tuple[int, int]:
    x, y = fib_ref(t), fib_ref(t + 2 if rng.random() < 0.5 else t - 2)
    return (-x, -y) if rng.random() < 0.5 else (x, y)


def _far_index(rng: random.Random, i: int, n: int) -> int:
    """Stratum i of n over 1000 <= |t| < 3000, with a seeded sign."""
    width = 2000 // n
    return rng.choice((1, -1)) * (1000 + width * i + rng.randrange(width))


def pair_classify(rng: random.Random, root: Path, tiny: bool = False) -> list[Job]:
    """Classifier jobs: near misses, box scans, far pairs, pair listings and
    large-index fib. Box scans are the median job, `fib 100000` is the tail,
    and the large-index fib jobs past the int -> str limit fail."""

    def count(n: int) -> int:
        return max(1, n // 40) if tiny else n

    jobs = []
    # below the median
    for i in range(count(80)):
        x, y = _far_pair(rng, _far_index(rng, i, count(80)))
        if rng.random() < 0.5:
            x += rng.choice((-2, -1, 1, 2))
        else:
            y += rng.choice((-2, -1, 1, 2))
        jobs.append(_job(check_classify(x, y), "classify", "--", x, y))
    for i in range(count(24)):
        t = 100 + 80 * i + rng.randrange(80)
        jobs.append(_job(check_fib(t, t), "fib", t))
    for _ in range(count(16)):
        lo = rng.randrange(-200, 1)
        hi = lo + rng.randrange(50, 200)
        jobs.append(_job(check_fib(lo, hi), "fib", "--from", lo, "--to", hi))
    # the median block: box scans of one size
    jobs += [_verify("pairs", "--max", 10) for _ in range(count(160))]
    # above the median
    for i in range(count(80)):
        x, y = _far_pair(rng, _far_index(rng, i, count(80)))
        jobs.append(_job(check_classify(x, y), "classify", "--", x, y))
    jobs += [_job(check_pairs(10**k), "pairs", 10**k) for k in (3, 6, 9, 12, 15) for _ in range(count(4))]
    large = LARGE_FIB[:2] if tiny else LARGE_FIB
    jobs += [_job(check_fib(t, t), "fib", t) for t in large]
    return jobs


def oracle_identities(rng: random.Random, root: Path, tiny: bool = False) -> list[Job]:
    """Brute-force tree vectors and the identity suites built on them. Most
    jobs take a few ms, so the per-request CLI cost shows in the median;
    `svec 12` is the tail."""
    jobs = []
    for _ in range(1 if tiny else 2):
        # below the median
        for _ in range(2 if tiny else 10):
            t = rng.randint(1, 2)
            jobs.append(_job(check_svec(t), "svec", t))
            t = rng.randint(1, 2)
            jobs.append(_job(check_rvec(t), "rvec", t))
        for _ in range(1 if tiny else 5):
            jobs.append(_verify("oracle", "--t", 1))
            jobs.append(_verify("prop41", "--t", 1))
            jobs.append(_verify("cor42", "--t", 1, "--seed", rng.randrange(10**6)))
            jobs.append(_verify("cor43", "--t", 0, "--seed", rng.randrange(10**6)))
        # the median block
        for _ in range(2 if tiny else 20):
            jobs.append(_job(check_svec(5), "svec", 5))
            jobs.append(_job(check_rvec(5), "rvec", 5))
        if tiny:
            continue
        # above the median, all well under 2/3 of the tail
        for t in (8, 9, 10, 8, 9, 10):
            jobs.append(_job(check_svec(t), "svec", t))
            jobs.append(_job(check_rvec(t), "rvec", t))
        jobs += [_job(check_rvec(11), "rvec", 11) for _ in range(2)]
        for t, reps in ((3, 3), (5, 2), (6, 2)):
            for _ in range(reps):
                jobs.append(_verify("prop41", "--t", t))
                jobs.append(_verify("cor42", "--t", t, "--seed", rng.randrange(10**6)))
                jobs.append(_verify("cor43", "--t", t, "--seed", rng.randrange(10**6)))
        jobs += [_verify("oracle", "--t", t) for t in (4, 4, 4, 6, 6, 8, 8)]
        for _ in range(2):
            jobs.append(_verify("prop41", "--t", 7))
            jobs.append(_verify("cor42", "--t", 7, "--seed", rng.randrange(10**6)))
    tail = 6 if tiny else 12
    jobs += [_job(check_svec(tail), "svec", tail) for _ in range(2)]
    return jobs


BUILDERS = {
    "profile-tables": profile_tables,
    "pair-classify": pair_classify,
    "oracle-identities": oracle_identities,
}
WORKLOADS = tuple(BUILDERS)


def make_jobs(workload: str, seed: int, root: Path, tiny: bool = False) -> list[Job]:
    """The workload's job list for one seed, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](rng, root, tiny)
    rng.shuffle(jobs)
    return jobs
