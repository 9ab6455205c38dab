"""Benchmark of `gradedbethe verify`: time to verdicts, memory and correctness.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--record FILE] [--bless]

Every `run_scenario` call runs in a child process of its own (benchmarks/
child.py), as each `gradedbethe verify` invocation does, one at a time: a
closed loop with one client.  A workload is a pass of such calls; passes
repeat until `--seconds` have elapsed (at least one pass).  The seed is the
scenario's `seed`, which sets the ybe, rtt and vacuum sample points.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
first makes one untraced pass, then traced passes (benchmarks/tracer.py), and
reports the per-layer metrics (benchmarks/layers.py) together with the
tracing overhead.  The metric names and units are those of BENCHMARK.json at
the root of the checkout.  Every metric is printed with its unit; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

`--record FILE` appends the whole result, with an environment block, to a
JSON-lines file.  `--bless` rewrites the workload's expected verdicts
(benchmarks/expected/) from this run, if every row passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from tracer import LAYERS, load_spans, tree_problems  # noqa: E402

#: BLAS threads per child; at most nproc.  One thread is no slower than two
#: at M=6 on a 2-core machine (18.8 s against 19.7 s) and is steadier when
#: other processes share the cores.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CACHE_ENV_VAR = "GRADEDBETHE_CACHE"
#: set-up-only children per run, on top of the set-up of every measured call
SETUP_PROBES = 5
#: a run never lasts longer than this; later calls are cut and count as failed
RUN_BUDGET_S = 170.0
#: rows whose split point m is drawn from the scenario seed, not fixed by it
SEED_DRAWN_SPLIT = ("vacuum:factorization",)
GIB = 1024 ** 3


@dataclass(frozen=True)
class Workload:
    name: str
    #: the calls of one pass: (M, cache use), cache use being "none", "write"
    #: (fresh GRADEDBETHE_CACHE directory) or "read" (the one the same M wrote)
    steps: tuple[tuple[int, str], ...]
    why: str
    as_limit_bytes: int | None = None
    call_timeout_s: float = 150.0


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-rerun",
        ((3, "write"), (3, "read"), (4, "write"), (4, "read"), (5, "write"), (5, "read")),
        "The default scenario at M=3, 4 and 5, each run twice against one fresh "
        "GRADEDBETHE_CACHE directory: the first run writes the spectral cache and the "
        "second reads it, as a user does when re-running a scenario. Dense chain work is "
        "a small share here and verify_rtt a large one (its sub-chains have 1 to 5 sites "
        "whatever M is). The cache is used both ways, so a gain on one side that costs "
        "the other shows up."),
    Workload(
        "m6-full",
        ((6, "none"),),
        "The default scenario at M=6 with no cache. It is dominated by dense "
        "(3^(M+1))^2 assemblies in universal_form_factor, the TQ-fit transfer matrices "
        "and the twisted decompositions; this is where a sector-native operator core "
        "must show its gain, and where peak RSS lives. The cache is bypassed."),
    Workload(
        "m7-cap",
        ((7, "none"),),
        "The default scenario at M=7 in a child capped at 2 GiB of address space and "
        "60 s, the criterion for raising MAX_SITES. While it fails, the failure is "
        "recorded as data (fail_share = 1, no timing); it is therefore not a workload "
        "of BENCHMARK.json, whose workloads must complete.",
        as_limit_bytes=2 * GIB, call_timeout_s=60.0),
)}

#: units of the reported figures that BENCHMARK.json does not list
EXTRA_UNITS = {"verify_tail_s": "s", "fail_share": "ratio", "verdict_mismatches": "count",
               "report_digest_changes": "count"}


class HarnessError(RuntimeError):
    """The benchmark cannot run in this checkout."""


@dataclass
class Call:
    """Outcome of one child process."""

    m: int
    setup_s: float | None
    verify_s: float | None
    rss_mb: float
    rows: list | None
    sha256: str | None
    failure: str | None          # exception class, TimeoutExpired, exit:N or signal:N
    detail: str
    spans: list | None = None
    installed: list | None = None


class Harness:
    """Spawns the child processes of one run, one at a time, inside `work`."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def call(self, workload: Workload, m: int, seed: int, *, cache: str | None = None,
             trace: bool = False, setup_only: bool = False) -> Call:
        self.count += 1
        tag = self.work / f"call{self.count:04d}"
        req = {"src": str(SRC), "M": m, "seed": seed, "out": str(tag) + ".out",
               "result": str(tag) + ".result.json", "spans": str(tag) + ".spans.json",
               "trace": trace, "setup_only": setup_only, "run_id": self.count,
               "as_limit_bytes": workload.as_limit_bytes}
        with open(str(tag) + ".request.json", "w", encoding="utf-8") as fh:
            json.dump(req, fh)
        env = dict(os.environ)
        env.pop(CACHE_ENV_VAR, None)
        if cache is not None:
            env[CACHE_ENV_VAR] = cache
        timeout = min(workload.call_timeout_s, self.deadline - time.monotonic())
        if timeout <= 0:
            return Call(m, None, None, 0.0, None, None, "TimeoutExpired",
                        "run budget exhausted before the call started")
        with open(str(tag) + ".stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(tag) + ".request.json",
                 repr(spawned)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err)
            status, rusage, timed_out = _wait(proc, spawned + timeout)
        rss_mb = rusage.ru_maxrss / 1024.0
        try:
            with open(req["result"], encoding="utf-8") as fh:
                res = json.load(fh)
        except (OSError, json.JSONDecodeError):
            res = None
        if timed_out:
            return Call(m, None, None, rss_mb, None, None, "TimeoutExpired",
                        f"killed after {timeout:.0f} s")
        if res is None:
            code = os.waitstatus_to_exitcode(status)
            failure = f"signal:{-code}" if code < 0 else f"exit:{code}"
            stderr = Path(str(tag) + ".stderr").read_text(errors="replace")[-2000:]
            return Call(m, None, None, rss_mb, None, None, failure, stderr)
        if res["error"] is not None:
            return Call(m, res["setup_s"], None, rss_mb, None, None, res["error"]["class"],
                        res["error"]["traceback"])
        spans = load_spans(req["spans"]) if trace else None
        return Call(m, res["setup_s"], res["verify_s"], rss_mb, res["rows"], res["sha256"],
                    None, "", spans, res["installed"])


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap `proc`, killing it at `deadline`; returns (status, rusage, timed_out)."""
    timed_out = False
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.01)
    except BaseException:  # interrupted: leave no child behind, then re-raise
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, rusage, timed_out


def run_pass(harness: Harness, workload: Workload, seed: int, trace: bool) -> list[Call]:
    calls = []
    caches: dict[int, str] = {}
    for m, use in workload.steps:
        if use == "write":
            caches[m] = tempfile.mkdtemp(prefix=f"cache-m{m}-", dir=harness.work)
        calls.append(harness.call(workload, m, seed, cache=caches.get(m) if use != "none"
                                  else None, trace=trace))
    return calls


# -- correctness ---------------------------------------------------------------


def _verdict_key(row: list, m_sites: int) -> tuple:
    identity, m, sectors, verdict = row[:4]
    if identity in SEED_DRAWN_SPLIT and (m == "seed" or 1 <= m <= max(1, m_sites - 1)):
        m = "seed"
    return identity, m, json.dumps(sectors), verdict


def verdict_mismatches(rows: list, expected: list | None, m_sites: int) -> int:
    """Rows whose (identity, m, sectors, verdict) differ from the expected ones.

    Without expected verdicts every row must pass or be trivial.
    """
    if expected is None:
        return sum(1 for r in rows if r[3] not in ("pass", "trivial"))
    got = Counter(_verdict_key(r, m_sites) for r in rows)
    want = Counter(_verdict_key(r, m_sites) for r in expected)
    return max(sum((got - want).values()), sum((want - got).values()))


def load_expected(workload: Workload) -> dict[int, list] | None:
    path = EXPECTED / f"{workload.name}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return {int(m): rows for m, rows in json.load(fh)["rows"].items()}


def bless(workload: Workload, seed: int, passes: list[list[Call]]) -> Path:
    first = passes[0]
    if any(c.failure for c in first) or any(r[3] == "fail" for c in first for r in c.rows):
        raise HarnessError("refusing to bless a run with failed calls or rows")
    rows = {str(c.m): [[r[0], "seed" if r[0] in SEED_DRAWN_SPLIT else r[1], *r[2:4]]
                       for r in c.rows] for c in first}
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{workload.name}.json"
    lines = [f'"workload": {json.dumps(workload.name)}', f'"blessed_with_seed": {seed}']
    body = ",\n".join(f'{json.dumps(m)}: [\n' + ",\n".join(json.dumps(r) for r in rs) + "\n]"
                      for m, rs in rows.items())
    lines.append('"rows": {\n' + body + "\n}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return path


# -- metrics -------------------------------------------------------------------


def pass_time(calls: list[Call]) -> float | None:
    """Wall time of a pass's `run_scenario` calls; a failed call leaves no time."""
    if any(c.failure for c in calls):
        return None
    return sum(c.verify_s for c in calls)


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n <= 10:
        return None, None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(probes: list[Call], untraced: list[list[Call]], traced: list[list[Call]],
               expected: dict[int, list] | None) -> tuple[dict, dict]:
    """Timings and memory come from untraced calls only; the gates cover every call."""
    timed = [c for p in untraced for c in p]
    calls = timed + [c for p in traced for c in p]
    setups = [c.setup_s for c in probes + timed if c.setup_s is not None]
    times = [t for t in (pass_time(p) for p in untraced) if t is not None]
    attempted = failed = mismatches = digest_changes = 0
    failures: Counter = Counter()
    first_sha: dict[int, str] = {}
    headroom = math.inf
    for c in calls:
        want = expected.get(c.m) if expected else None
        if c.failure:
            n_rows = len(want) if want is not None else 1
            attempted += n_rows
            failed += n_rows
            failures[c.failure] += n_rows
            continue
        attempted += len(want) if want is not None else len(c.rows)
        n_fail = sum(1 for r in c.rows if r[3] == "fail")
        failed += n_fail
        if n_fail:
            failures["verdict:fail"] += n_fail
        mismatches += verdict_mismatches(c.rows, want, c.m)
        if first_sha.setdefault(c.m, c.sha256) != c.sha256:
            digest_changes += 1
        for r in c.rows:
            if r[3] != "trivial":
                headroom = min(headroom, layers.headroom_decades(r[4], r[5]))
    tail_pct, tail_s = tail(times)
    metrics = {
        "setup_s": statistics.median(setups) if setups else None,
        "verify_s": statistics.median(times) if times else None,
        "verify_tail_s": tail_s,
        "peak_rss_mb": max(c.rss_mb for c in timed),
        "fail_share": failed / attempted,
        "verdict_mismatches": mismatches,
        "min_headroom_decades": headroom if math.isfinite(headroom) else None,
        "report_digest_changes": digest_changes,
    }
    info = {"setup_samples": len(setups), "passes": len(untraced) + len(traced),
            "pass_s": times, "tail_percentile": tail_pct, "attempted": attempted,
            "failed": failed, "failures": dict(failures)}
    return metrics, info


def per_layer(reference: list[Call], traced: list[list[Call]]) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced passes) and tracer self-check problems."""
    problems = []
    derived = []
    for calls in traced:
        for c in calls:
            if c.failure:
                continue
            problems += [f"M={c.m}: {p}" for p in tree_problems(c.spans)]
            layers_seen = {name.split(".")[0] for name in c.installed}
            if layers_seen != set(LAYERS):
                problems.append(f"traced layers {sorted(layers_seen)} != {sorted(LAYERS)}")
        if pass_time(calls) is not None:
            derived.append(layers.derive([(c.spans, c.rows) for c in calls]))
    if not derived:
        return {}, problems + ["no traced pass completed"]
    out = {}
    for name in derived[0]:
        values = [d[name] for d in derived if d[name] is not None]
        out[name] = statistics.median(values) if values else None
    traced_s = statistics.median(pass_time(p) for p in traced if pass_time(p) is not None)
    ref_s = pass_time(reference)
    out["trace.overhead_s"] = traced_s - ref_s if ref_s is not None else None
    out["trace.spans"] = statistics.median(
        sum(len(c.spans) for c in p) for p in traced if pass_time(p) is not None)
    return out, problems


# -- driver --------------------------------------------------------------------


def environment(workload: Workload, seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    mem_total = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_total = int(line.split()[1]) * 1024
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "mem_total_bytes": mem_total, "blas_threads": BLAS_THREADS,
            "address_space_cap_bytes": workload.as_limit_bytes, "seed": seed}


def measure(harness: Harness, workload: Workload, seed: int, seconds: float,
            trace: bool) -> tuple[list[Call], list[list[Call]], list[list[Call]]]:
    """Set-up probes, then passes until `seconds` have elapsed.

    With tracing, the first pass is untraced (the reference) and the rest are
    traced; returns (probes, untraced passes, traced passes).
    """
    start = time.monotonic()
    m0 = workload.steps[0][0]
    probes = [harness.call(workload, m0, seed, setup_only=True) for _ in range(SETUP_PROBES)]
    untraced = [run_pass(harness, workload, seed, trace=False)]
    traced: list[list[Call]] = []
    while True:
        batch = traced if trace else untraced
        if batch and time.monotonic() - start >= seconds:
            break
        batch.append(run_pass(harness, workload, seed, trace=trace))
    return probes, untraced, traced


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", help="append the full result to this JSON-lines file")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite the workload's expected verdicts from this run")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    # a terminated harness still stops and reaps its child (see _wait)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "gradedbethe" / "__init__.py").is_file():
        raise HarnessError(f"no gradedbethe sources under {SRC}")
    contract_path = ROOT / "BENCHMARK.json"
    if not contract_path.is_file():
        raise HarnessError(f"{contract_path} is missing")
    contract = json.loads(contract_path.read_text(encoding="utf-8"))
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units.update(EXTRA_UNITS)
    expected = load_expected(workload)
    env = environment(workload, args.seed)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        harness = Harness(work, time.monotonic() + RUN_BUDGET_S)
        probes, untraced, traced = measure(harness, workload, args.seed, args.seconds,
                                           bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    e2e, info = end_to_end(probes, untraced, traced, expected)
    layer, problems = per_layer(untraced[0], traced) if args.trace else ({}, [])

    print(f"gradedbethe benchmark: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"why: {workload.why}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    pass_s = [round(t, 4) for t in info["pass_s"]]
    print(f"passes {info['passes']} (untraced pass times {pass_s}), "
          f"set-up samples {info['setup_samples']}, rows attempted {info['attempted']}, "
          f"failed {info['failed']}")
    if info["failures"]:
        print("failures: " + ", ".join(f"{k} x{v}" for k, v in info["failures"].items()))
        for c in (c for p in untraced + traced for c in p if c.failure):
            lines = c.detail.strip().splitlines()
            where = [ln.strip() for ln in lines if ln.lstrip().startswith("File ")][-1:]
            print(f"  M={c.m} {c.failure}: {' | '.join(where + lines[-1:])}")
    print("end to end:")
    for name, value in e2e.items():
        note = ""
        if name == "verify_tail_s":
            n = len(info["pass_s"])
            note = (f"  (p{info['tail_percentile']:.0f} of {n} passes)" if value is not None
                    else f"  (needs more than 10 passes, has {n})")
        print(f"  {name:<24} {_fmt(value):>14} {units[name] if value is not None else ''}{note}")
    if args.trace:
        print("per layer (traced passes):")
        for name, value in layer.items():
            print(f"  {name:<52} {_fmt(value):>14} {units.get(name, '?')}")
        for p in problems:
            print(f"tracer self-check: {p}")

    values = {**e2e, **layer}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and (layer or not args.trace):   # no traced pass completing is data
        raise HarnessError(f"metrics named in BENCHMARK.json but not computed: {missing}")
    correct = (e2e["verdict_mismatches"] == 0 and e2e["report_digest_changes"] == 0
               and not problems)

    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload.name, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "environment": env, "correct": correct, **info,
                                 "metrics": values, "problems": problems}) + "\n")
    if args.bless:
        print(f"expected verdicts written to {bless(workload, args.seed, untraced)}")

    print(json.dumps({
        "correct": correct, "attempted": info["attempted"], "failed": info["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
