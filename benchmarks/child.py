"""One benchmark call in its own process: set up, then one `run_scenario`.

Started by benchmarks/run.py as

    python3 benchmarks/child.py REQUEST.json SPAWNED

where SPAWNED is the parent's `time.monotonic()` just before the process was
started (CLOCK_MONOTONIC, shared by every process on the machine), so set-up
time counts interpreter start, imports and the scenario build.  The request
names the package source directory, the scenario (M, seed), the output and
cache directories, whether to stop after set-up, whether to trace, and an
optional address-space cap.  The result is written as JSON to the request's
`result` path.  An exception raised while running becomes data in the
result (its class, message and traceback tail), never a crash of the
benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc


def _load_package(src: str):
    sys.path.insert(0, src)
    import gradedbethe

    where = os.path.dirname(os.path.abspath(gradedbethe.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError(f"gradedbethe was imported from {where}, not from {src}")
    return gradedbethe


def _rows(reports) -> list[list]:
    return [[r.identity, r.m, [list(s) for s in r.sectors], r.verdict,
             float(r.rel_residual), float(r.tolerance)] for r in reports]


def main(request_path: str, spawned: float) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    if req.get("as_limit_bytes"):
        limit = int(req["as_limit_bytes"])
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    result: dict = {"setup_s": None, "verify_s": None, "rows": None, "sha256": None,
                    "error": None, "installed": None}
    tracer = None
    try:
        _load_package(req["src"])
        from gradedbethe import cli

        scenario = cli.Scenario.from_dict(cli.default_scenario_dict(req["M"], req["seed"]))
        if req["trace"]:
            from layers import OBSERVERS
            from tracer import Tracer

            tracer = Tracer(run_id=req["run_id"])
            result["installed"] = tracer.install("gradedbethe", OBSERVERS)
        result["setup_s"] = time.monotonic() - spawned
        if not req["setup_only"]:
            if tracer is not None:
                tracemalloc.start(1)
            start = time.perf_counter()
            _, reports = cli.run_scenario(scenario, req["out"])
            result["verify_s"] = time.perf_counter() - start
            result["rows"] = _rows(reports)
            with open(os.path.join(req["out"], "reports.jsonl"), "rb") as fh:
                result["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    except Exception as exc:  # the failure is the measurement: record it, do not crash
        result["error"] = {"class": type(exc).__name__, "message": str(exc)[:500],
                           "traceback": traceback.format_exc()[-3000:]}
    if tracer is not None:
        tracer.dump(req["spans"])
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 3 if result["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
