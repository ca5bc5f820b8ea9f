"""Command-line surface: exact computations in json, csv or ascii form.

Subcommands: fib, pairs, classify, utable, partition, svec, rvec, verify,
oeis-check. Every subcommand accepts --format {json,csv,ascii}; json and
csv are schema-stable (schema_version 1), ascii is for reading. Data goes
to stdout, diagnostics to stderr; the exit status is 0 exactly when all
requested checks pass.

Each output kind is declared once. A `payload_*` builder returns a plain
dict whose "kind" keys an entry of RENDERERS; that entry gives the kind's
csv header, its csv rows and its ascii lines (json is the dict itself).
Each subparser sets `payload`, a function of the parsed arguments, and
`main` alone builds, renders and prints it and picks the exit status.

A command takes only the options it reads, for verify those in the suite's
signature; any other exits 2. svec, rvec and verify respect an oracle cap,
raised per call with --oracle-cap or globally with FIBQUIVER_ORACLE_CAP.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

from . import oeis, profiles, reflect, suites
from .errors import (
    BFileParseError,
    NotSymmetric,
    OracleCapExceeded,
    SequenceMismatch,
)
from .fibcore import DimPair, classify_pair, enumerate_pairs, fib, fib_range
from .profiles import RADIAL, SIGNED, class_sizes
from .reflect import ORACLE_CAP

SCHEMA_VERSION = 1
ENV_CAP = "FIBQUIVER_ORACLE_CAP"
FORMATS = ("json", "csv", "ascii")
_LOG10_PHI = math.log10((1 + math.sqrt(5)) / 2)


# ----------------------------------------------------------------------
# payload builders: plain dicts of json-safe values (ints, strings, lists)
# ----------------------------------------------------------------------

def _check_digit_limit(t: int) -> None:
    """Refuse f(t) whose decimal form is past Python's int -> str limit, at
    the exact boundary (f(20577) prints, f(20578) does not, at 4300 digits).

    f(t) has about |t| log10(phi) digits, so an index clearly past the
    limit is refused without computing f(t); near the limit f(t) is cheap
    and compared exactly.
    """
    limit = sys.get_int_max_str_digits()
    if limit == 0 or abs(t) < (limit - 8) / _LOG10_PHI:
        return
    if abs(t) > (limit + 8) / _LOG10_PHI or abs(fib(t)) >= 10**limit:
        raise ValueError(
            f"f({t}) has more than {limit} digits, Python's int -> str limit; "
            f"raise it with PYTHONINTMAXSTRDIGITS (0 lifts it)"
        )


def payload_fib(lo: int, hi: int) -> dict:
    if lo <= hi:
        _check_digit_limit(max(lo, hi, key=abs))
    values = fib_range(lo, hi)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "fib_range",
        "from": lo,
        "to": hi,
        "values": [[lo + i, v] for i, v in enumerate(values)],
    }


def _witness_fields(verdict) -> dict:
    if verdict.witness is None:
        return {"t": None, "direction": None, "negated": None}
    w = verdict.witness
    return {"t": w.t, "direction": w.direction, "negated": w.negated}


def payload_classify(x: int, y: int) -> dict:
    verdict = classify_pair(DimPair(x, y))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "pair_class",
        "x": x,
        "y": y,
        "pair_kind": verdict.kind,
        **_witness_fields(verdict),
    }


def payload_pairs(bound: int) -> dict:
    rows = []
    for pt, verdict in enumerate_pairs(bound):
        rows.append({"x": pt.x, "y": pt.y, "pair_kind": verdict.kind, **_witness_fields(verdict)})
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "pairs",
        "bound": bound,
        "pairs": rows,
    }


def payload_utable(t_max: int) -> dict:
    rows = []
    for row in profiles.u_table(t_max):
        minus, plus = profiles.u_sums(row)
        rows.append(
            {
                "t": row.t,
                "values": [[s, row.value(s)] for s in row.support()],
                "minus": minus,
                "plus": plus,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "u_table",
        "t_max": t_max,
        "rows": rows,
    }


def payload_partition(t: int) -> dict:
    rep = profiles.partition_report(t)

    def side(terms, target):
        return {
            "target": target,
            "terms": [[x.cls, x.weight, x.value, x.product] for x in terms],
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "partition_report",
        "t": t,
        "minus": side(rep.terms_minus, rep.target_minus),
        "plus": side(rep.terms_plus, rep.target_plus),
    }


def payload_svec(t: int, cap: int) -> dict:
    vec = reflect.s_vec(t, cap=cap)
    prof = profiles.compress_radial(vec, cap=cap)
    minus, plus = reflect.parity_sums(vec, t)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "s_vector",
        "t": t,
        "classes": [[d, size, prof.values[d]] for d, size in enumerate(class_sizes(RADIAL, 0, t))],
        "minus": minus,
        "plus": plus,
    }


def payload_rvec(t: int, cap: int) -> dict:
    vec = reflect.r_vec(t, cap=cap)
    classes = profiles.compress_signed_classes(vec, cap=cap)
    radius = vec.support_radius()
    sizes = class_sizes(SIGNED, -radius, radius)
    minus, plus = reflect.parity_sums(vec, t)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "r_vector",
        "t": t,
        "classes": [[s, size, classes.get(s, 0)] for s, size in enumerate(sizes, -radius)],
        "minus": minus,
        "plus": plus,
    }


def payload_verify(result: suites.SuiteResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify",
        "suite": result.suite,
        "ok": result.ok,
        "checked": result.checked,
        "failures": list(result.failures),
    }


def payload_oeis(result: oeis.CheckResult, fixture: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "oeis_check",
        "sequence": result.sequence,
        "fixture": fixture,
        "checked": result.checked,
        "ok": result.ok,
        "warning": result.warning,
    }


# ----------------------------------------------------------------------
# rendering: one entry per payload kind
# ----------------------------------------------------------------------

def emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv(header: str, rows: list[list]) -> str:
    lines = [header]
    lines.extend(",".join("" if v is None else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _ascii_witness(p: dict) -> str:
    if p["t"] is None:
        return ""
    tail = " (negated)" if p["negated"] else ""
    return f" t={p['t']} {p['direction']}{tail}"


_PLURALS = {"vertex": "vertices", "wave": "waves"}


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


def _ascii_utable(payload: dict) -> list[str]:
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
    out = [f"{payload['suite']}: {status} ({payload['checked']} checks)"]
    out.extend(f"  counterexample: {f}" for f in payload["failures"])
    return out


def _ascii_oeis(payload: dict) -> list[str]:
    msg = f"{payload['sequence']}: {payload['checked']} values match {payload['fixture']}"
    if payload["warning"]:
        msg += f" [warning: {payload['warning']}]"
    return [msg]


# payload kind -> (csv header, csv rows, ascii lines)
RENDERERS = {
    "fib_range": (
        "t,value", lambda p: p["values"], lambda p: [",".join(str(v) for _, v in p["values"])]
    ),
    "pair_class": (
        "x,y,kind,t,direction,negated",
        lambda p: [_pair_row(p)],
        lambda p: [p["pair_kind"] + _ascii_witness(p)],
    ),
    "pairs": (
        "x,y,kind,t,direction,negated", lambda p: [_pair_row(r) for r in p["pairs"]], _ascii_pairs
    ),
    "u_table": (
        "t,s,value",
        lambda p: [[row["t"], s, v] for row in p["rows"] for s, v in row["values"]],
        _ascii_utable,
    ),
    "partition_report": (
        "side,s,weight,value,product",
        lambda p: [[side, *term] for side in ("minus", "plus") for term in p[side]["terms"]],
        _ascii_partition,
    ),
    "s_vector": ("d,size,value", lambda p: p["classes"], _ascii_svec),
    "r_vector": ("s,size,value", lambda p: p["classes"], _ascii_rvec),
    "verify": (
        "suite,checked,ok", lambda p: [[p["suite"], p["checked"], p["ok"]]], _ascii_verify
    ),
    "oeis_check": (
        "sequence,checked,ok", lambda p: [[p["sequence"], p["checked"], p["ok"]]], _ascii_oeis
    ),
}


def emit(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return emit_json(payload)
    header, csv_rows, ascii_lines = RENDERERS[payload["kind"]]
    if fmt == "csv":
        return _csv(header, csv_rows(payload))
    if fmt == "ascii":
        return "\n".join(ascii_lines(payload)) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------------
# argument parsing: each subcommand sets `payload`, a function of its args
# ----------------------------------------------------------------------

def _resolve_cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get(ENV_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_CAP} must be an integer, got {env!r}") from None
    return ORACLE_CAP


def _fib_bounds(args) -> tuple[int, int]:
    if args.t is not None:
        return args.t, args.t
    if args.start is None or args.end is None:
        raise ValueError("give a single index or both --from and --to")
    return args.start, args.end


# verify's options, keyed by their dest: the name of the suite parameter each sets
_SUITE_OPTIONS = {"t_max": "--t", "lo": "--from", "hi": "--to", "bound": "--max", "paths": "--paths",
                  "seed": "--seed", "cap": "--oracle-cap"}


def _run_suite(args) -> suites.SuiteResult:
    """Run the suite on the options given, refusing one it does not read."""
    run = suites.SUITES[args.suite]
    reads = inspect.signature(run).parameters
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
    fixture = args.fixture or str(oeis.default_fixture_path(args.sequence))
    return payload_oeis(oeis.run_check(args.sequence, fixture), fixture)


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("fib", parents=[common], help="Fibonacci numbers over any integer index range")
    p.add_argument("t", nargs="?", type=int, default=None, help="single index")
    p.add_argument("--from", dest="start", type=int, default=None, help="first index")
    p.add_argument("--to", dest="end", type=int, default=None, help="last index")
    p.set_defaults(payload=lambda a: payload_fib(*_fib_bounds(a)))

    p = sub.add_parser("pairs", parents=[common], help="all Fibonacci pairs in a coordinate box")
    p.add_argument("max", type=int, help="list pairs with |x|, |y| <= max")
    p.set_defaults(payload=lambda a: payload_pairs(a.max))

    p = sub.add_parser("classify", parents=[common], help="classify one lattice point")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.set_defaults(payload=lambda a: payload_classify(a.x, a.y))

    p = sub.add_parser("utable", parents=[common], help="signed-class table rows 0..t_max")
    p.add_argument("t_max", type=int)
    p.set_defaults(payload=lambda a: payload_utable(a.t_max))

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
    p.add_argument("--paths", type=int, default=None, help="at most this many path shapes per step (cor42/cor43)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the random walks drawn after the three fixed path shapes; "
                        "matters only with --paths above 3 (cor42/cor43)")
    p.set_defaults(payload=lambda a: payload_verify(_run_suite(a)))

    p = sub.add_parser("oeis-check", parents=[common], help="check a generator against a b-file fixture")
    p.add_argument("sequence", help="sequence id, e.g. A000045")
    p.add_argument("--fixture", default=None, help="b-file path (default: bundled)")
    p.set_defaults(payload=_oeis_check)

    return parser


def main(argv=None) -> int:
    """Build the payload, render it and print it; the exit status is 0
    exactly when the payload is ok (payloads without a verdict always are)."""
    args = build_parser().parse_args(argv)
    try:
        payload = args.payload(args)
        text = emit(payload, args.format)
    except OracleCapExceeded as exc:
        print(
            f"error: {exc}; raise it with --oracle-cap or {ENV_CAP}",
            file=sys.stderr,
        )
        return 2
    except SequenceMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BFileParseError, NotSymmetric, FileNotFoundError, KeyError, ValueError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    if payload.get("warning"):
        print(f"warning: {payload['warning']}", file=sys.stderr)
    print(text, end="")
    for failure in payload.get("failures", ()):
        print(f"verify {payload['suite']}: {failure}", file=sys.stderr)
    return 0 if payload.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
