"""Command-line surface: exact computations in json, csv or ascii form.

Subcommands: fib, pairs, classify, utable, partition, svec, rvec, verify,
oeis-check. Every subcommand accepts --format {json,csv,ascii}; json and
csv are schema-stable (schema_version 1), ascii is for reading. Data goes
to stdout, diagnostics to stderr; the exit status is 0 exactly when all
requested checks pass.

Each output kind is declared once. A `payload_*` builder returns a dict
whose "kind" keys an entry of RENDERERS; that entry gives the kind's csv
header, its csv lines and its ascii lines. Every payload opens with the same
two keys, schema_version and kind, written by `_envelope`. Payloads hold
json-safe values (ints, strings, lists), and json is the dict itself, with
one exception: the u_table payload's rows are the stepped `Profile` rows
alone, and `emit` writes its text whole, with no string per cell. The ascii
and json writers take each row's sums as they write it; csv prints none.
Its ascii table is one %-template, its rows' "%<width>d" cells between
"%<n>s" blank runs; csv and json, for which one table template was no
faster, take one per row. Its json is byte for byte json.dumps(indent=2)
of the dict of [s, v] lists.
Each subparser sets `payload`, a function of the parsed arguments, and
`main` alone builds, renders and prints it and picks the exit status. A
command line that starts with a command's name is parsed by that command's
subparser alone, and what it leaves over is refused by the whole parser,
as parse_args refuses it; any other command line goes to the whole parser.
A stdout closed before the text is written is one `error:` line, exit 2.

A command takes only the options it reads, for verify those in the suite's
signature; any other exits 2. svec, rvec and verify respect an oracle cap,
raised per call with --oracle-cap or globally with FIBQUIVER_ORACLE_CAP.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import accumulate

from . import oeis, profiles, reflect, suites
from .errors import OracleCapExceeded, digit_limit_error
from .fibcore import classify_pair, enumerate_pairs, family_index, fib, fib_range
from .profiles import SIGNED, class_size
from .reflect import ORACLE_CAP

SCHEMA_VERSION = 1
ENV_CAP = "FIBQUIVER_ORACLE_CAP"
FORMATS = ("json", "csv", "ascii")
_LOG10_PHI = math.log10((1 + math.sqrt(5)) / 2)


# ----------------------------------------------------------------------
# payload builders: dicts of json-safe values, u_table's rows apart
# ----------------------------------------------------------------------

def _envelope(kind: str, fields: dict) -> dict:
    """A payload: schema_version, then kind, then the kind's own fields."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def _check_digit_limit(t: int) -> None:
    """Refuse f(t) whose decimal form is past Python's int -> str limit, at
    the exact boundary (f(20577) prints, f(20578) does not, at 4300 digits).
    `fib` checks its largest index; `partition` and `utable` check their
    last row's plus target, the largest number they print, before stepping.

    f(t) has about |t| log10(phi) digits, so an index clearly past the
    limit is refused without computing f(t); near the limit f(t) is cheap
    and compared exactly.
    """
    limit = sys.get_int_max_str_digits()
    if limit == 0 or abs(t) < (limit - 8) / _LOG10_PHI:
        return
    if abs(t) > (limit + 8) / _LOG10_PHI or abs(fib(t)) >= 10**limit:
        raise digit_limit_error(f"f({t})", limit)


def payload_fib(lo: int, hi: int) -> dict:
    if lo <= hi:
        _check_digit_limit(max(lo, hi, key=abs))
    values = fib_range(lo, hi)
    return _envelope("fib_range", {"from": lo, "to": hi, "values": [[lo + i, v] for i, v in enumerate(values)]})


def _pair_fields(p: tuple[int, int], verdict) -> dict:
    """A point's fields: x, y, pair_kind, then its witness's t, direction and
    negated, each None off the pairs."""
    x, y = p
    t, direction, negated = verdict.witness or (None, None, None)
    return {"x": x, "y": y, "pair_kind": verdict.kind, "t": t, "direction": direction, "negated": negated}


def payload_classify(x: int, y: int) -> dict:
    p = (x, y)
    return _envelope("pair_class", _pair_fields(p, classify_pair(p)))


def payload_pairs(bound: int) -> dict:
    pairs = [_pair_fields(p, verdict) for p, verdict in enumerate_pairs(bound)]
    return _envelope("pairs", {"bound": bound, "pairs": pairs})


def payload_utable(t_max: int) -> dict:
    """Rows 0..t_max: row t is the stepped `Profile`, read by the writers as
    it is, and the ascii and json writers take its sums as they write it.
    Each cell is a term of one of its row's sums, so the largest number
    printed is the last row's plus sum."""
    if t_max >= 0:  # a negative t_max is refused by the table itself
        _check_digit_limit(family_index(2 * t_max, edge=True) + 2)
    return _envelope("u_table", {"t_max": t_max, "rows": profiles.u_table(t_max)})


def payload_partition(t: int) -> dict:
    if t >= 0:  # a negative t is refused by the profile itself
        _check_digit_limit(family_index(2 * t, edge=True) + 2)  # the plus target is the largest number printed
    rep = profiles.partition_report(t)

    def side(terms, target):
        return {
            "target": target,
            "terms": [[x.cls, x.weight, x.value, x.product] for x in terms],
        }

    return _envelope("partition_report", {
        "t": t, "minus": side(rep.terms_minus, rep.target_minus), "plus": side(rep.terms_plus, rep.target_plus)
    })


def _payload_classes(kind: str, t: int, vec: reflect.TreeVector, compress, cap: int) -> dict:
    """[s, |C_s|, value] for every class within the vector's radius r: 0..r
    on the radial line, -r..r on the signed line. The profile is compress on
    the command's own oracle vector, grown by t waves: past the cap that is
    a refusal, and any other rejection, or a profile of another wave count,
    a failed self-check."""
    try:
        prof = compress(vec, cap=cap)
    except OracleCapExceeded:
        raise
    except ValueError as exc:
        raise ArithmeticError(f"the oracle vector has no profile: {exc}") from exc
    if prof.waves != t:
        raise ArithmeticError(f"the oracle vector grown by {t} waves has the profile of {prof.waves}")
    r = max(-prof.lo, prof.hi)
    lo = -r if prof.weights == SIGNED else 0
    values = dict(zip(prof.support(), prof.values))
    minus, plus = reflect.parity_sums(vec, prof.waves)
    classes = [[s, class_size(prof.weights, s), values.get(s, 0)] for s in range(lo, r + 1)]
    return _envelope(kind, {"t": prof.waves, "classes": classes, "minus": minus, "plus": plus})


def payload_svec(t: int, cap: int) -> dict:
    return _payload_classes("s_vector", t, reflect.s_vec(t, cap=cap), profiles.compress_radial, cap)


def payload_rvec(t: int, cap: int) -> dict:
    return _payload_classes("r_vector", t, reflect.r_vec(t, cap=cap), profiles.compress_biradial, cap)


def payload_verify(result: suites.SuiteResult) -> dict:
    return _envelope("verify", {
        "suite": result.suite, "ok": result.ok, "checked": result.checked, "failures": list(result.failures)
    })


def payload_oeis(result: oeis.CheckResult, fixture: str) -> dict:
    return _envelope("oeis_check", {
        "sequence": result.sequence, "fixture": fixture, "checked": result.checked,
        # Both kept for schema_version 1: a mismatch or an empty fixture is refused.
        "ok": True, "warning": None,
    })


# ----------------------------------------------------------------------
# rendering: one entry per payload kind
# ----------------------------------------------------------------------

def _csv_line(fields) -> str:
    return ",".join("" if v is None else str(v) for v in fields)


def _ascii_witness(p: dict) -> str:
    if p["t"] is None:
        return ""
    tail = " (negated)" if p["negated"] else ""
    return f" t={p['t']} {p['direction']}{tail}"


_PLURALS = {"check": "checks", "value": "values", "vertex": "vertices", "wave": "waves"}


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {_PLURALS[noun]}"


def _pair_row(p: dict) -> list:
    return [p["x"], p["y"], p["pair_kind"], p["t"], p["direction"], p["negated"]]


def _ascii_pairs(payload: dict) -> list[str]:
    lines = [
        f"({r['x']}, {r['y']})  {r['pair_kind']}{_ascii_witness(r)}"
        for r in payload["pairs"]
    ]
    lines.append(f"{len(payload['pairs'])} pairs with |x|,|y| <= {payload['bound']}")
    return lines


def _csv_utable(payload: dict) -> str:
    """One block of lines per row, from one %-template: the row's slice of
    the per-class templates "s,%d", each line led by "t,"."""
    rows = payload["rows"]
    lo = min(row.lo for row in rows)
    cells = [f"{s},%d" for s in range(lo, max(row.hi for row in rows) + 1)]
    blocks = (f"{t}," + (f"\n{t},".join(cells[row.lo - lo:row.hi - lo + 1]) % row.values)
              for t, row in enumerate(rows))
    return "\n".join(["t,s,value", *blocks, ""])


def _ascii_utable(payload: dict) -> str:
    """One column per class lo..hi, as wide as its widest cell. Cells are
    non-negative, so a column's widest cell is its largest. The whole text
    is one %-template: the header, then per row its own columns' slice of
    the joined "%<width>d" cells between two "%<n>s" blank runs filled from
    "" arguments, then its sums. So no line string is made, and no join."""
    rows = payload["rows"]
    lo = min(row.lo for row in rows)
    labels = range(lo, max(row.hi for row in rows) + 1)
    top = [0] * len(labels)
    for row in rows:
        first, end = row.lo - lo, row.hi - lo + 1
        top[first:end] = [x if x > v else v for x, v in zip(top[first:end], row.values)]
    widths = [max(len(str(s)), len(str(x))) for s, x in zip(labels, top)]
    head = "t\\s | " + " ".join(str(s).rjust(w) for s, w in zip(labels, widths))
    # at[i]: where column i's template starts in cells; col[i]: where its text starts in a row
    cells, at = " ".join(f"%{w}d" for w in widths), [0, *accumulate(len(str(w)) + 3 for w in widths)]
    col = [0, *accumulate(w + 1 for w in widths)]
    parts, args = [f"{head}\n{'-' * len(head)}\n"], []
    for t, row in enumerate(rows):
        first, end = row.lo - lo, row.hi - lo + 1
        parts.append(f"{t:>3} | %{col[first]}s{cells[at[first]:at[end] - 1]}%{col[-1] - col[end]}s   [%d, %d]\n")
        args += ("", *row.values, "", *profiles.sums(row))
    return "".join(parts) % tuple(args)


def _json_utable(payload: dict) -> str:
    """json.dumps(<the payload with one [s, v] list per cell>, indent=2),
    written from templates: every field is an int, so a row's cells are one
    %-template, the row's slice of the per-class [s, %d] templates."""
    rows = payload["rows"]
    lo = min(row.lo for row in rows)
    cells = [f"\n        [\n          {s},\n          %d\n        ]"
             for s in range(lo, max(row.hi for row in rows) + 1)]
    blocks = []
    for t, row in enumerate(rows):
        values = ",".join(cells[row.lo - lo:row.hi - lo + 1]) % row.values
        minus, plus = profiles.sums(row)
        blocks.append(f'\n    {{\n      "t": {t},\n      "values": [{values}\n      ],\n'
                      f'      "minus": {minus},\n      "plus": {plus}\n    }}')
    return (f'{{\n  "schema_version": {payload["schema_version"]},\n  "kind": "u_table",\n'
            f'  "t_max": {payload["t_max"]},\n  "rows": [{",".join(blocks)}\n  ]\n}}\n')


def _ascii_partition(payload: dict) -> list[str]:
    out = [f"step {payload['t']}"]
    for side in ("minus", "plus"):
        block = payload[side]
        out.append(f"{side} target {block['target']}:")
        for s, w, v, prod in block["terms"]:
            out.append(f"  class {s:>3}: {w} * {v} = {prod}")
        out.append(f"  total = {block['target']}")
    return out


def _ascii_svec(payload: dict) -> list[str]:
    out = [f"vertex vector after {_count(payload['t'], 'wave')}"]
    for d, size, v in payload["classes"]:
        out.append(f"ring {d} ({_count(size, 'vertex')}): {v}")
    out.append(f"sums: [{payload['minus']}, {payload['plus']}]")
    return out


def _ascii_rvec(payload: dict) -> list[str]:
    out = [f"edge vector after {_count(payload['t'], 'wave')}"]
    by_s = {s: (size, v) for s, size, v in payload["classes"]}
    radius = max(s for s in by_s)
    for d in range(radius + 1):
        size, v = by_s[d]
        line = f"ring {d}: s=+{d}: {v} ({_count(size, 'vertex')})"
        if d > 0 and -d in by_s:
            tsize, tv = by_s[-d]
            line += f" | s=-{d}: {tv} ({_count(tsize, 'vertex')})"
        out.append(line)
    out.append(f"sums: [{payload['minus']}, {payload['plus']}]")
    return out


def _ascii_verify(payload: dict) -> list[str]:
    status = "ok" if payload["ok"] else "FAILED"
    out = [f"{payload['suite']}: {status} ({_count(payload['checked'], 'check')})"]
    out.extend(f"  counterexample: {f}" for f in payload["failures"])
    return out


def _ascii_oeis(payload: dict) -> list[str]:
    verb = "matches" if payload["checked"] == 1 else "match"
    return [f"{payload['sequence']}: {_count(payload['checked'], 'value')} {verb} {payload['fixture']}"]


# payload kind -> (csv header, csv lines, ascii lines), for the line-based
# kinds; u_table is not one: `emit` writes its text whole, from templates
RENDERERS = {
    "fib_range": (
        "t,value", lambda p: map(_csv_line, p["values"]), lambda p: [",".join(str(v) for _, v in p["values"])]
    ),
    "pair_class": (
        "x,y,kind,t,direction,negated",
        lambda p: [_csv_line(_pair_row(p))],
        lambda p: [p["pair_kind"] + _ascii_witness(p)],
    ),
    "pairs": (
        "x,y,kind,t,direction,negated", lambda p: [_csv_line(_pair_row(r)) for r in p["pairs"]], _ascii_pairs
    ),
    "partition_report": (
        "side,s,weight,value,product",
        lambda p: [_csv_line([side, *term]) for side in ("minus", "plus") for term in p[side]["terms"]],
        _ascii_partition,
    ),
    "s_vector": ("d,size,value", lambda p: map(_csv_line, p["classes"]), _ascii_svec),
    "r_vector": ("s,size,value", lambda p: map(_csv_line, p["classes"]), _ascii_rvec),
    "verify": (
        "suite,checked,ok", lambda p: [_csv_line([p["suite"], p["checked"], p["ok"]])], _ascii_verify
    ),
    "oeis_check": (
        "sequence,checked,ok", lambda p: [_csv_line([p["sequence"], p["checked"], p["ok"]])], _ascii_oeis
    ),
}


def emit(payload: dict, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if payload["kind"] == "u_table":  # its text is written whole from its rows
        return {"json": _json_utable, "csv": _csv_utable, "ascii": _ascii_utable}[fmt](payload)
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    header, csv_lines, ascii_lines = RENDERERS[payload["kind"]]
    # A last empty line ends the text with "\n" without copying the whole text.
    if fmt == "csv":
        return "\n".join([header, *csv_lines(payload), ""])
    return "\n".join([*ascii_lines(payload), ""])


# ----------------------------------------------------------------------
# argument parsing: each subcommand sets `payload`, a function of its args
# ----------------------------------------------------------------------

def _resolve_cap(args) -> int:
    """The oracle cap: --oracle-cap, else FIBQUIVER_ORACLE_CAP, else the
    default. A negative cap is refused by the name it was given under."""
    cap, source = args.cap, "--oracle-cap"
    if cap is None:
        env = os.environ.get(ENV_CAP)
        if env is None:
            return ORACLE_CAP
        try:
            cap, source = int(env), ENV_CAP
        except ValueError:
            raise ValueError(f"{ENV_CAP} must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"{source} must be non-negative, got {cap}")
    return cap


def _fib_bounds(args) -> tuple[int, int]:
    bounds = (args.start, args.end)
    if args.t is not None and bounds == (None, None):
        return args.t, args.t
    if args.t is None and None not in bounds:
        return bounds
    raise ValueError("give a single index or both --from and --to")


# verify's options, keyed by their dest: the name of the suite parameter each sets
_SUITE_OPTIONS = {"t_max": "--t", "lo": "--from", "hi": "--to", "bound": "--max", "seed": "--seed",
                  "cap": "--oracle-cap"}


def _run_suite(args) -> suites.SuiteResult:
    """Run the suite on the options given, refusing one it does not read.
    The parameter names are read off the code of the function a
    functools.wraps wrapper stands for, as the wrapper's own takes *args."""
    run = suites.SUITES[args.suite]
    code = getattr(run, "__wrapped__", run).__code__
    reads = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    options = {}
    for name, flag in _SUITE_OPTIONS.items():
        if getattr(args, name) is not None:
            if name not in reads:
                raise ValueError(f"verify {args.suite} does not read {flag}")
            options[name] = getattr(args, name)
    if "cap" in reads:
        options["cap"] = _resolve_cap(args)
    return run(**options)


def _oeis_check(args) -> dict:
    if args.fixture == "":
        raise ValueError("--fixture needs a file path, got ''")
    fixture = str(oeis.default_fixture_path(args.sequence)) if args.fixture is None else args.fixture
    return payload_oeis(oeis.run_check(args.sequence, fixture), fixture)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.

    Parsing makes a fresh Namespace each time, and each `payload` looks up
    its builders by module global when it runs, so no call leaves state in
    the parser for the next.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="ascii", help="output format")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument(
        "--oracle-cap",
        dest="cap",
        type=int,
        default=None,
        metavar="N",
        help=f"raise the brute-force step cap (default {ORACLE_CAP}, env {ENV_CAP})",
    )

    parser = argparse.ArgumentParser(
        prog="fibquiver",
        description="Exact Fibonacci vectors on the 3-regular tree: tables, pair classification and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser: `main` parses a command line with its own

    p = sub.add_parser("fib", parents=[common], help="Fibonacci numbers over any integer index range")
    p.add_argument("t", nargs="?", type=int, default=None, help="single index")
    p.add_argument("--from", dest="start", type=int, default=None, help="first index")
    p.add_argument("--to", dest="end", type=int, default=None, help="last index")
    p.set_defaults(payload=lambda a: payload_fib(*_fib_bounds(a)))

    p = sub.add_parser("pairs", parents=[common], help="all Fibonacci pairs in a coordinate box")
    p.add_argument("bound", type=int, help="list pairs with |x|, |y| <= bound")
    p.set_defaults(payload=lambda a: payload_pairs(a.bound))

    p = sub.add_parser("classify", parents=[common], help="classify one lattice point")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.set_defaults(payload=lambda a: payload_classify(a.x, a.y))

    p = sub.add_parser("utable", parents=[common], help="signed-class table rows 0..t")
    p.add_argument("t", type=int)
    p.set_defaults(payload=lambda a: payload_utable(a.t))

    p = sub.add_parser("partition", parents=[common], help="itemized odd-index partition at one step")
    p.add_argument("t", type=int)
    p.set_defaults(payload=lambda a: payload_partition(a.t))

    p = sub.add_parser("svec", parents=[common, capped], help="vertex-grown tree vector, by distance rings")
    p.add_argument("t", type=int)
    p.set_defaults(payload=lambda a: payload_svec(a.t, _resolve_cap(a)))

    p = sub.add_parser("rvec", parents=[common, capped], help="edge-grown tree vector, by signed rings")
    p.add_argument("t", type=int)
    p.set_defaults(payload=lambda a: payload_rvec(a.t, _resolve_cap(a)))

    p = sub.add_parser("verify", parents=[common, capped], help="run a named identity suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.add_argument("--t", "--t-max", dest="t_max", type=int, default=None, metavar="T",
                   help="largest step or table row to check")
    p.add_argument("--from", dest="lo", type=int, default=None, metavar="START", help="first index (three-term)")
    p.add_argument("--to", dest="hi", type=int, default=None, metavar="END", help="last index (three-term)")
    p.add_argument("--max", dest="bound", type=int, default=None, metavar="MAX", help="box bound (pairs)")
    p.add_argument("--seed", type=int, default=None, help="ignored: the walks are fixed (cor42/cor43)")
    p.set_defaults(payload=lambda a: payload_verify(_run_suite(a)))

    p = sub.add_parser("oeis-check", parents=[common], help="check a generator against a b-file fixture")
    p.add_argument("sequence", help="sequence id, e.g. A000045")
    p.add_argument("--fixture", default=None, help="b-file path (default: bundled)")
    p.set_defaults(payload=_oeis_check)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)` apart from `command`, with the same
    usage errors: a command's own subparser parses the rest of its line."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _drop_stdout() -> None:
    """Point stdout's fd at os.devnull, so the exit flush of what it still
    holds writes nowhere; a stdout with no fd (a StringIO) is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # io.UnsupportedOperation
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    """Build the payload, render it and print it; the exit status is 0
    exactly when the payload is ok (payloads without a verdict always are).
    A stdout closed before the text is written is an error, exit 2."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        payload = args.payload(args)
        sys.stdout.write(emit(payload, args.format))
        sys.stdout.flush()
    except OracleCapExceeded as exc:
        print(
            f"error: {exc}; raise it with --oracle-cap or {ENV_CAP}",
            file=sys.stderr,
        )
        return 2
    except ArithmeticError as exc:  # a failed self-check, not a refused input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError):  # the reader of stdout is gone
            _drop_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in payload.get("failures", ()):
        print(f"verify {payload['suite']}: {failure}", file=sys.stderr)
    return 0 if payload.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
