"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every public function of the six
modules (`graded`, `chain`, `bethe`, `spectrum`, `formfactors`, `cli`), the
`GradedMatrix` constructor and the entries of the `cli` check-runner table.
A public function is wrapped wherever it is bound: in its defining module and
in every module of the package that imported it, so calls through either name
are seen.

Each call becomes one span: name, start, end, parent span, run id, an outcome
status and the `tracemalloc` peak above the span's starting allocation.  Spans
are kept in memory and written as JSON when the traced process ends.  The
analysis helpers at the bottom derive self times from the spans and check
that each span tree is well formed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc

LAYERS = ("graded", "chain", "bethe", "spectrum", "formfactors", "cli")
FIELDS = ("name", "start", "end", "parent", "run", "status", "peak_bytes", "attrs")


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[list] = []   # [span index, allocation at entry, running peak]

    def _enter(self, name: str) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], peak)
        tracemalloc.reset_peak()
        parent = self._open[-1][0] if self._open else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.run_id, "", 0, None])
        self._open.append([index, current, current])
        self.spans[index][1] = time.perf_counter()
        return index

    def _exit(self, index: int, status: str) -> None:
        end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        frame = self._open.pop()
        if frame[0] != index:
            raise RuntimeError("span stack out of order")
        running = max(frame[2], peak)
        span = self.spans[index]
        span[2], span[5], span[6] = end, status, running - frame[1]
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], running)
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn, observe=None):
        """Return `fn` recording one span per call.

        `observe(args, kwargs, result)` may return a small JSON-able dict that
        is stored on the span; it runs after the span has ended.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(index, "raised:" + type(exc).__name__)
                raise
            tracer._exit(index, "none" if result is None else "")
            if observe is not None:
                tracer.spans[index][7] = observe(args, kwargs, result)
            return result

        return traced

    def install(self, package: str, observers: dict) -> list[str]:
        """Wrap the package's public surface; returns the span names installed."""
        pkg = importlib.import_module(package)
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        namespaces = [pkg, *modules.values()]
        installed = []
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, observers.get(name))
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is fn]:
                        setattr(ns, key, wrapped)
                installed.append(name)
        matrix = modules["graded"].GradedMatrix
        matrix.__init__ = self.wrap("graded.GradedMatrix", matrix.__init__)
        installed.append("graded.GradedMatrix")
        runners = modules["cli"]._CHECK_RUNNERS
        for check, runner in list(runners.items()):
            name = f"cli.check.{check}"
            runners[check] = self.wrap(name, runner, observers.get("cli.check"))
            installed.append(name)
        return installed

    def dump(self, path: str) -> None:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open at exit")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


# -- analysis -------------------------------------------------------------------


def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [dict(zip(data["fields"], row)) for row in data["spans"]]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def tree_problems(spans: list[dict], tol_s: float = 1e-6) -> list[str]:
    """Ways in which the spans fail to form one well-nested tree per run.

    Checks that each run has exactly one root, that children lie inside
    their parent's interval and belong to its run, that no self time is
    negative, and that the self times of each tree sum to its root's
    duration.
    """
    problems = []
    own = self_times(spans)
    roots: dict[int, int] = {}
    totals: dict[int, float] = {}
    for i, s in enumerate(spans):
        totals[s["run"]] = totals.get(s["run"], 0.0) + own[i]
        if own[i] < -tol_s:
            problems.append(f"span {i} ({s['name']}) has negative self time")
        if s["parent"] is None:
            if s["run"] in roots:
                problems.append(f"run {s['run']} has more than one root span")
            roots[s["run"]] = i
            continue
        p = spans[s["parent"]]
        if p["run"] != s["run"] or s["start"] < p["start"] or s["end"] > p["end"]:
            problems.append(f"span {i} ({s['name']}) lies outside its parent {p['name']}")
    for run, root in roots.items():
        dur = spans[root]["end"] - spans[root]["start"]
        if abs(totals[run] - dur) > tol_s:
            problems.append(f"run {run}: self times sum to {totals[run]!r}, root lasts {dur!r}")
    return problems
