"""fibquiver benchmark: seeded closed-loop CLI job lists, checked against
references, with end-to-end metrics and a separate traced per-layer run.

    python3 bench/run.py --workload pair-classify --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload pair-classify --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --compare RESULTS_A RESULTS_B
    python3 bench/run.py --self-test

One client, one process, no extra threads: each job is an argv handed to
fibquiver.cli.main in this process with stdout captured, and the next job
starts when it returns. A run repeats whole passes over the seeded job list
until --seconds have gone by. The last line of stdout is one JSON object;
the lines before it are the same numbers for reading, with provenance.
Each run also writes its full record to bench/results/. Times are scaled to
a reference host speed measured by bench/probe.py during the run. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple, Optional

import jobs as joblib
import spans
from probe import PROBE_REF_S, probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Times the import and parser build between two host-speed probes, after
# one probe that warms the probe's own code.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from probe import probe\n"
    "probe()\n"
    "before = probe()\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fibquiver.cli\n"
    "fibquiver.cli.build_parser()\n"
    "dt = time.perf_counter() - t0\n"
    "print(dt, (before + probe()) / 2)\n"
)

# Seconds of job time between host-speed probes; a probe takes about 2 ms.
PROBE_GAP_S = 0.02

OK, REFUSED, WRONG = "ok", "refused", "wrong"


class Outcome(NamedTuple):
    seconds: float
    status: str
    reason: Optional[str]


# ----------------------------------------------------------------------
# running jobs
# ----------------------------------------------------------------------

def _digest(text: str) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for i in range(0, len(text), 1 << 20):
        h.update(text[i:i + (1 << 20)].encode())
    return h.digest()


def judge(job: joblib.Job, code, out: str, err: str, verified: dict) -> tuple[str, Optional[str]]:
    """A refusal is exit 2 with a named error and nothing on stdout; it fails
    the job but prints nothing wrong. Any other nonzero exit, or output the
    reference rejects, is wrong. Output equal to an earlier verified output
    of the same argv passes without re-parsing."""
    if code == 2 and not out and err.startswith("error:"):
        return REFUSED, err.strip().splitlines()[-1]
    if code != 0:
        return WRONG, f"exit {code}: {err.strip()}"
    digest = _digest(out)
    if verified.get(job.argv) == digest:
        return OK, None
    try:
        reason = job.check(out)
    except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
        reason = f"unparsable output ({type(exc).__name__}: {exc})"
    if reason is not None:
        return WRONG, reason
    verified[job.argv] = digest
    return OK, None


def run_job(main, job: joblib.Job, verified: dict, tracer: Optional[spans.Tracer] = None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        span = tracer.begin(tracer.name_id(spans.JOB_SPAN)) if tracer else None
        t0 = time.perf_counter()
        try:
            code = main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a wrong answer, not a benchmark crash
            code = exc
        finally:
            dt = time.perf_counter() - t0
            if tracer:
                tracer.finish(span)
    if isinstance(code, Exception):
        return Outcome(dt, WRONG, f"raised {type(code).__name__}: {code}")
    return Outcome(dt, *judge(job, code, out.getvalue(), err.getvalue(), verified))


def run_pass(main, job_list, verified, tracer=None) -> list[Outcome]:
    outcomes = []
    for job in job_list:
        if tracer:
            tracer.job += 1
        outcomes.append(run_job(main, job, verified, tracer))
    return outcomes


def run_probed_pass(main, job_list, verified) -> tuple[list[Outcome], float]:
    """One untraced pass with a host-speed probe before any job that starts
    PROBE_GAP_S or more after the last probe; the outcomes and the mean
    probe time."""
    outcomes, probes = [], []
    last = -PROBE_GAP_S
    for job in job_list:
        if time.perf_counter() - last >= PROBE_GAP_S:
            probes.append(probe())
            last = time.perf_counter()
        outcomes.append(run_job(main, job, verified))
    return outcomes, statistics.fmean(probes)


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------

def measure_setup() -> tuple[float, float]:
    """Seconds to import fibquiver.cli and build its parser in a fresh
    interpreter, and the mean time of the probes around it."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True).stdout
    setup_s, probe_s = map(float, out.split())
    return setup_s, probe_s


def timings(job_list, passes: list[list[Outcome]], scales: list[float]) -> dict:
    """A job's time is the median, over its runs in every pass, of the run's
    time times its pass's scale; runs of the same argv are one job. Every
    run counts at its job's time: jobs_per_s is the job count of a pass over
    the sum of their times, and job_tail_ms is the highest percentile of the
    runs with at least ten runs beyond it."""
    runs_s: dict[tuple, list[float]] = {}
    for outcomes, k in zip(passes, scales):
        for job, o in zip(job_list, outcomes):
            runs_s.setdefault(job.argv, []).append(o.seconds * k)
    median_s = {argv: statistics.median(v) for argv, v in runs_s.items()}
    job_s = [median_s[job.argv] for job in job_list]
    runs = len(job_s) * len(passes)
    slowest = sorted(job_s, reverse=True)
    return {
        "jobs_per_s": len(job_s) / sum(job_s),
        "job_p50_ms": statistics.median(job_s) * 1e3,
        "job_tail_ms": slowest[min(10 // len(passes), len(job_s) - 1)] * 1e3,
        "tail_percentile": 100.0 * max(runs - 10, 0) / runs,
        "timed_jobs": runs,
    }


def summarize(job_list, passes: list[list[Outcome]], scales: list[float]) -> dict:
    """Failures over every pass; timings at the reference host speed, with
    the unscaled timings beside them."""
    failed = [(job, o) for p in passes for job, o in zip(job_list, p) if o.status != OK]
    n = len(passes) * len(job_list)
    raw = timings(job_list, passes, [1.0] * len(passes))
    return {
        **timings(job_list, passes, scales),
        "attempted": n,
        "failed": len(failed),
        "wrong": sum(o.status == WRONG for _, o in failed),
        "ok_frac": (n - len(failed)) / n,
        "failed_frac": len(failed) / n,
        "failed_argv": sorted({" ".join(job.argv) for job, _ in failed}),
        "reasons": sorted({o.reason[:200] for _, o in failed})[:10],
        "passes": len(passes),
        "pass_s": [sum(o.seconds for o in p) for p in passes],
        "unscaled": {k: raw[k] for k in ("jobs_per_s", "job_p50_ms", "job_tail_ms")},
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def provenance(seed: int, cpu_s: float, wall_s: float) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "seed": seed,
        "cpu_per_wall": cpu_s / wall_s,
    }


# ----------------------------------------------------------------------
# one benchmark run
# ----------------------------------------------------------------------

def run_e2e(main, job_list, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for `seconds`, with one fresh-interpreter set-up
    between passes so that set-up is sampled across the run as well; the
    end-to-end metrics. Each pass's times are scaled by PROBE_REF_S over
    its mean probe time, each set-up by PROBE_REF_S over its own probes."""
    measure_setup()  # compiles bytecode; not counted
    verified: dict = {}
    passes: list[list[Outcome]] = []
    probe_s: list[float] = []
    setup: list[tuple[float, float]] = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while not passes or time.perf_counter() - wall0 < seconds:
        outcomes, mean_probe = run_probed_pass(main, job_list, verified)
        passes.append(outcomes)
        probe_s.append(mean_probe)
        setup.append(measure_setup())
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    s = summarize(job_list, passes, [PROBE_REF_S / p for p in probe_s])
    metrics = {name: s[name] for name in ("jobs_per_s", "job_p50_ms", "job_tail_ms", "ok_frac")}
    metrics["setup_s"] = statistics.median(t * PROBE_REF_S / p for t, p in setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    s["unscaled"]["setup_s"] = statistics.median(t for t, _ in setup)
    return metrics, {**s, "wall_s": wall, "cpu_s": cpu, "probe_s": probe_s, "setup_runs_s": setup}


def run_traced(main, job_list, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternating untraced and traced passes for `seconds`; the per-layer
    metrics of the traced passes and the tracing overhead."""
    tracer = spans.Tracer()
    verified: dict = {}
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while not traced or time.perf_counter() - wall0 < seconds:
        plain.append(run_pass(main, job_list, verified))
        installed = spans.Installed(tracer)
        try:
            traced.append(run_pass(main, job_list, verified, tracer))
        finally:
            installed.undo()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    def seconds_of(ps):
        return sum(o.seconds for p in ps for o in p)

    metrics = spans.layer_metrics(tracer, len(traced), seconds_of(traced) / seconds_of(plain) - 1)
    tracer.write(spans_path)
    s = summarize(job_list, plain + traced, [1.0] * (len(plain) + len(traced)))
    return metrics, {**s, "wall_s": wall, "cpu_s": cpu, "spans": len(tracer.start)}


def report(workload: str, seed: int, trace: int, metrics: dict, detail: dict, prov: dict) -> None:
    units = spans.LAYER_METRICS if trace else E2E_UNITS
    per_pass = detail["attempted"] // detail["passes"]
    print(f"workload {workload}  seed {seed}  trace {trace}  passes {detail['passes']}  "
          f"jobs {detail['attempted']} ({per_pass} a pass)  wall {detail['wall_s']:.2f} s")
    if trace:
        notes = {"trace.overhead_frac": f"{detail['spans']} spans; counts and times are per pass"}
    else:
        raw = detail["unscaled"]
        notes = {
            "jobs_per_s": f"{per_pass} jobs / sum of their times; unscaled {raw['jobs_per_s']:.6g}",
            "job_p50_ms": f"median of those {per_pass} job times; unscaled {raw['job_p50_ms']:.6g}",
            "job_tail_ms": f"p{detail['tail_percentile']:.2f} of {detail['timed_jobs']} job runs, 10 beyond; "
                           f"unscaled {raw['job_tail_ms']:.6g}",
            "ok_frac": f"failed_frac {detail['failed_frac']:.6g} frac: {detail['failed']} failed, {detail['wrong']} wrong",
            "setup_s": f"median of {len(detail['setup_runs_s'])} fresh interpreters; unscaled {raw['setup_s']:.6g}",
        }
    for name, value in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:.6g} {units[name]}{note}")
    if not trace:
        print(f"host speed: probe mean {statistics.median(detail['probe_s']) * 1e3:.4g} ms (median over passes); "
              f"times are scaled to a probe of {PROBE_REF_S * 1e3:.4g} ms")
    print("provenance: " + "  ".join(f"{k} {v:.3g}" if isinstance(v, float) else f"{k} {v}" for k, v in prov.items()))
    for argv in detail["failed_argv"]:
        print(f"failed job: {argv}")
    for reason in detail["reasons"]:
        print(f"failure: {reason}")


def bench(workload: str, seed: int, seconds: float, trace: int, out_dir: Path, tiny: bool = False) -> dict:
    from fibquiver import cli

    job_list = joblib.make_jobs(workload, seed, ROOT, tiny)
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics, detail = run_traced(cli.main, job_list, seconds, out_dir / f"{workload}-seed{seed}-spans.csv.gz")
    else:
        metrics, detail = run_e2e(cli.main, job_list, seconds)
    prov = provenance(seed, detail["cpu_s"], detail["wall_s"])
    report(workload, seed, trace, metrics, detail, prov)
    units = spans.LAYER_METRICS if trace else E2E_UNITS
    result = {
        "correct": detail["wrong"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "provenance": prov, "detail": detail, **result}
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


# ----------------------------------------------------------------------
# compare and self-test
# ----------------------------------------------------------------------

def _load(directory: Path) -> dict:
    runs: dict = {}
    for path in sorted(directory.glob("*-trace0.json")):
        r = json.loads(path.read_text())
        runs.setdefault(r["workload"], {})[r["seed"]] = {k: m["value"] for k, m in r["metrics"].items()}
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]], higher: bool, bound: float) -> str:
    """The gain rule: B wins at least 9/10 of the seed-matched pairs (ties
    count for neither) and the medians differ by more than A's IQR. A's spread
    wider than the bound leaves the metric unresolved, unless every B run
    beats every A run."""
    sign = 1 if higher else -1
    qa1, ma, qa3 = _quartiles(a)
    mb = statistics.median(b)
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mb - ma) > qa3 - qa1:
        return "better"
    b_all_better = min(b) > max(a) if higher else max(b) < min(a)
    if qa3 - qa1 > bound * abs(ma) and not b_all_better:
        return "unresolved (A's spread exceeds the bound)"
    if sign * (ma - mb) > bound * abs(ma):
        return "worse, beyond the bound"
    return "within the bound"


def compare(dir_a: Path, dir_b: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = _load(dir_a), _load(dir_b)
    for workload in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[workload], b_runs[workload]
        seeds = sorted(set(a) & set(b))
        print(f"{workload}: {len(a)} runs in A, {len(b)} in B, {len(seeds)} seed-matched pairs")
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            av, bv = [r[name] for r in a.values()], [r[name] for r in b.values()]
            pairs = [(a[s][name], b[s][name]) for s in seeds]
            wins = sum((y > x) if higher else (y < x) for x, y in pairs)
            fmt = "median {1:.6g} [{0:.6g}, {2:.6g}]"
            print(f"  {name:12s} A {fmt.format(*_quartiles(av))}  B {fmt.format(*_quartiles(bv))} {m['unit']}"
                  f"  B wins {wins}/{len(pairs)}  -> {verdict(av, bv, pairs, higher, m['bound'])}")
    return 0


def self_test(out_dir: Path) -> int:
    """Tiny pass over every workload: every metric printed with its unit,
    the fib defect counted, and a wrong reference counted as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in joblib.WORKLOADS:
        job_list = joblib.make_jobs(workload, 0, ROOT, tiny=True)
        defect = sum(j.argv[:1] == ("fib",) and len(j.argv) == 2 and int(j.argv[1]) >= joblib.FIB_STR_LIMIT_INDEX
                     for j in job_list)
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = bench(workload, 0, 0, trace, out_dir, tiny=True)
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload} trace {trace}: metric {m['name']} missing or not in {m['unit']}")
            want_failed = defect * result["attempted"] // len(job_list)
            if not result["correct"] or result["failed"] != want_failed:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed, expected {want_failed}")
    from fibquiver import cli

    fixture = bytearray((ROOT / "tests" / "fixtures" / "utable4.csv").read_bytes())
    fixture[-2:-1] = b"2"  # the last cell of row 4 is 1
    wrong = joblib.Job(("utable", "4", "--format", "csv"), joblib.check_utable(4, "csv", bytes(fixture)))
    outcome = run_job(cli.main, wrong, {})
    if outcome.status != WRONG:
        problems.append(f"a wrong reference was not counted as failed: {outcome}")
    print(f"self-test: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=RESULTS, help="directory for result records and spans")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two result directories")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    missing = [p for p in (SRC / "fibquiver" / "cli.py", ROOT / "tests" / "fixtures" / "utable4.csv") if not p.is_file()]
    if missing:
        print(f"error: not a fibquiver checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test(args.out)
    if args.workload is None:
        ap.error("--workload is required")
    result = bench(args.workload, args.seed, args.seconds, args.trace, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
