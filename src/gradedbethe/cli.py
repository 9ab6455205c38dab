"""Batch runner: load a scenario config, run verification suites, emit reports.

The scenario is a single JSON document; all randomness (the spectral points
of the algebra checks and the vacuum factorization split) derives from its
one integer seed, so identical configs give byte-identical report files.
Reports are written as JSON lines in the fixed seven-key schema plus a
human-readable summary grid.  The work no check reads before the last one
ends, the rtt residuals and the leakage of the sectors the run does not
sweep, is one job list: a forked worker drains it while the checks run, and
this process drains the rest after them, where the process can fork safely
and has a second CPU to run the worker on.
"""

from __future__ import annotations

import argparse
import fcntl
import itertools
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; pay for it at start-up

from .bethe import bethe_residual, continue_twist
from .chain import (
    ChainSpec,
    PoleError,
    VacuumFunctions,
    _default_xi,
    entry_blocks,
    monodromy_entries,
    tm1_residual,
    vacuum_eigenvalue,
    verify_rtt,
    yang_baxter_residual,
    zero_mode_entry,
    zero_mode_limit_groups,
)
from .formfactors import (
    FormFactorReport,
    check_genfun_derivative,
    check_local_corollary,
    check_proposition1,
    check_theorem1,
    check_theorem2,
    make_report,
    twisted_dual_pairs,
    universal_form_factor,
    zero_mode_ladder_checks,
)
from .spectrum import (
    CACHE_ENV_VAR,
    _content,
    classify_spectrum,
    diagonalize_transfer,
    load_cache,
    save_cache,
    sector_indices,
    sector_labels_from_zero_modes,
)

__all__ = ["Scenario", "ScenarioError", "WorkerError", "run_scenario", "emit_report", "main",
           "default_scenario_dict", "KNOWN_CHECKS"]

KNOWN_CHECKS = ("rtt", "ybe", "vacuum", "spectrum-match", "theorem1", "theorem2",
                "proposition1", "ladder")
MAX_SITES = 7
SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Configuration does not validate."""


class WorkerError(RuntimeError):
    """A forked worker ended without sending its result."""


def _integer(name: str, value) -> int:
    """An integer field; a float such as 1.7, nan or inf is refused, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _positive(name: str, value) -> float:
    """A tolerance or step: a finite number above zero."""
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise ScenarioError(f"{name} must be a finite number above zero, got {value!r}")
    return number


def _finite(name: str, value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    return number


def _seed(name: str, value) -> int:
    """The generator seed: numpy takes integers from zero up."""
    seed = _integer(name, value)
    if seed < 0:
        raise ScenarioError(f"{name} must be an integer from 0 up, got {value!r}")
    return seed


def _distinct(name: str, values: list) -> list:
    """A list field whose entries each appear once: a repeat would repeat its rows."""
    for n, value in enumerate(values):
        if value in values[:n]:
            raise ScenarioError(f"duplicate {name} entry {value!r}")
    return values


@dataclass
class Scenario:
    """Validated run configuration."""

    chain: ChainSpec
    sectors: list[tuple[int, int]]
    splits: list[int]
    checks: list[str]
    seed: int = 7
    tol_exact: float = 1e-8
    tol_fd: float = 1e-5
    rtt_pairs: int = 20
    rtt_sizes: tuple[int, ...] = (1, 2, 3, 4, 5)
    beta_magnitude: float = 1e-2
    fd_delta: float = 1e-5

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Validate a scenario document; a field of the wrong type or value is a ScenarioError."""
        if not isinstance(data, dict):
            raise ScenarioError("a scenario is one JSON object")
        try:
            return cls._from_fields(data)
        except ScenarioError:
            raise
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"malformed scenario field: {exc}") from exc

    @classmethod
    def _from_fields(cls, data: dict) -> "Scenario":
        if data.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schema_version {data.get('schema_version')}")
        chain_data = dict(data.get("chain", {}))
        vacuum_index = chain_data.pop("vacuum_index", 1)
        if vacuum_index != 1:
            # root seeding and the sector labels count against the vacuum e_1
            raise ScenarioError(f"unsupported vacuum_index {vacuum_index}: only 1 is supported")
        m = _integer("M", chain_data.get("M", 4))
        if m > MAX_SITES:
            raise ScenarioError(f"dimension bound exceeded: M={m} > {MAX_SITES} (3^M states)")
        chain_data.setdefault("c", [1.0, 0.0])
        chain_data.setdefault("kappa", [[1.0, 0.0]] * 3)
        if chain_data.get("xi") is None:
            c = complex(chain_data["c"][0], chain_data["c"][1])
            chain_data["xi"] = [[x.real, x.imag] for x in _default_xi(m, c)]
        chain_data["M"] = m
        try:
            chain = ChainSpec.from_json(chain_data)
        except (ValueError, KeyError) as exc:
            raise ScenarioError(f"invalid chain spec: {exc}") from exc
        if not chain.twist.is_identity:
            # twisted chains fail theorem1, proposition1 and ladder rows and end
            # theorem2 in a traceback: the checks assume the untwisted chain
            raise ScenarioError(f"unsupported twist kappa={chain_data['kappa']}: "
                                "only the untwisted chain, kappa = (1, 1, 1), is supported")
        checks = list(data.get("checks", list(KNOWN_CHECKS)))
        if not checks:
            raise ScenarioError("empty check list")
        for name in checks:
            if name not in KNOWN_CHECKS:
                raise ScenarioError(f"unrecognized check name: {name!r}")
        sectors = _distinct("sectors", [
            tuple(_integer("sectors", x) for x in s)
            for s in data.get("sectors", [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [2, 1]])])
        for a, b in sectors:
            if a < 0 or b < 0 or a > m:
                raise ScenarioError(f"sector {(a, b)} out of range for M={m}")
        splits = _distinct("splits", [_integer("splits", x)
                                      for x in data.get("splits", list(range(1, m)))])
        if not splits:
            # theorem2, proposition1 and ladder read a split point; --check may
            # select them after validation, so reject whatever the checks are
            raise ScenarioError("empty split list; give at least one split point in 1..M")
        for split in splits:
            if not 1 <= split <= m:
                raise ScenarioError(f"split m={split} out of range")
        rtt_sizes = tuple(_distinct("rtt_sizes", [_integer("rtt_sizes", x)
                                                  for x in data.get("rtt_sizes", (1, 2, 3, 4, 5))]))
        if not rtt_sizes:
            raise ScenarioError("empty rtt_sizes; give at least one sub-chain size")
        if any(x < 1 or x > MAX_SITES for x in rtt_sizes):
            raise ScenarioError("rtt_sizes out of range")
        rtt_pairs = _integer("rtt_pairs", data.get("rtt_pairs", 20))
        if rtt_pairs < len(rtt_sizes):
            raise ScenarioError(f"rtt_pairs={rtt_pairs}; need at least one spectral pair "
                                f"for each of the {len(rtt_sizes)} rtt_sizes")
        return cls(
            chain=chain,
            sectors=sectors,
            splits=splits,
            checks=checks,
            seed=_seed("seed", data.get("seed", 7)),
            tol_exact=_positive("tol_exact", data.get("tol_exact", 1e-8)),
            tol_fd=_positive("tol_fd", data.get("tol_fd", 1e-5)),
            rtt_pairs=rtt_pairs,
            rtt_sizes=rtt_sizes,
            beta_magnitude=_finite("beta_magnitude", data.get("beta_magnitude", 1e-2)),
            fd_delta=_positive("fd_delta", data.get("fd_delta", 1e-5)),
        )

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


def default_scenario_dict(m: int = 4, seed: int = 7) -> dict:
    """The scenario exercised by the acceptance suite."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "chain": {"M": m, "c": [1.0, 0.0], "xi": None, "vacuum_index": 1,
                  "kappa": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]},
        "sectors": [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [2, 1]],
        "splits": list(range(1, m)),
        "checks": list(KNOWN_CHECKS),
    }


def _use_worker() -> bool:
    """Whether a forked worker can run beside this process, safely and usefully.

    Forking is safe only from a process with one OS thread (a BLAS pool or
    any other thread could hold a lock the child inherits locked), and
    useful only with a second CPU to run the child on.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


class _Jobs:
    """Float results of ``fn(*args)`` jobs, each run once, by whichever process claims it.

    Where ``fork`` is set, construction forks a child that starts
    claiming jobs at once, and ``join`` claims the rest in this process.  A
    claim takes the next job index from a memfd under a POSIX record lock,
    which the kernel releases if its holder dies.  The child sends back the
    indices it ran with raw float64 results, and the exceptions it caught
    pickled.  Both processes go on claiming after a job raises; ``join``
    returns the results in job order, or re-raises the exception of the
    lowest failing index with its type and message.  Without a child
    ``join`` runs every job here, in order.  ``close`` kills and reaps a
    child that was never joined.
    """

    def __init__(self, jobs, fork: bool):
        self._jobs = jobs
        self._pid = self._read = self._next = None
        if jobs and fork:
            self._fork()

    def _fork(self) -> None:
        try:
            next_job = os.memfd_create("gradedbethe-jobs")
        except OSError:
            return
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            # no process to spare: the jobs run in this process at the join
            for fd in (next_job, read, write):
                os.close(fd)
            return
        self._next = next_job
        if pid == 0:
            self._serve(read, write)
        os.close(write)
        self._pid, self._read = pid, read

    def _claims(self):
        """Indices of the jobs this process claims, until none is left."""
        if self._next is None:
            yield from range(len(self._jobs))
            return
        while True:
            fcntl.lockf(self._next, fcntl.LOCK_EX)
            try:
                index = int.from_bytes(os.pread(self._next, 8, 0), "little")
                os.pwrite(self._next, (index + 1).to_bytes(8, "little"), 0)
            finally:
                fcntl.lockf(self._next, fcntl.LOCK_UN)
            if index >= len(self._jobs):
                return
            yield index

    def _drain(self) -> tuple[dict[int, float], dict[int, Exception]]:
        results, failures = {}, {}
        for index in self._claims():
            fn, args = self._jobs[index]
            try:
                results[index] = float(fn(*args))
            except Exception as exc:
                failures[index] = exc
        return results, failures

    def _serve(self, read: int, write: int) -> None:
        """The child: run the jobs it claims, send the outcome and exit without returning."""
        code = 1
        try:
            os.close(read)
            results, failures = self._drain()
            out = (len(results).to_bytes(8, "little")
                   + np.array(list(results), dtype=np.int64).tobytes()
                   + np.array(list(results.values()), dtype=np.float64).tobytes()
                   + pickle.dumps(failures))
            with os.fdopen(write, "wb") as fh:
                fh.write(out)
            code = 0
        finally:
            os._exit(code)

    def join(self) -> list[float]:
        try:
            results, failures = self._drain()
            if self._pid is not None:
                read, self._read = self._read, None
                with os.fdopen(read, "rb") as fh:
                    out = fh.read()
                _, status = os.waitpid(self._pid, 0)
                self._pid = None
                code = os.waitstatus_to_exitcode(status)
                if code != 0:
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    raise WorkerError(f"the rtt worker ended without a result: {how}")
                n = int.from_bytes(out[:8], "little")
                indices = np.frombuffer(out, dtype=np.int64, count=n, offset=8)
                values = np.frombuffer(out, dtype=np.float64, count=n, offset=8 + 8 * n)
                results.update(zip(indices.tolist(), values.tolist()))
                failures.update(pickle.loads(out[8 + 16 * n:]))  # written by the child above
        finally:
            self.close()
        if failures:
            raise failures[min(failures)]
        return [results[index] for index in range(len(self._jobs))]

    def close(self) -> None:
        if self._read is not None:
            os.close(self._read)
            self._read = None
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._next is not None:
            os.close(self._next)
            self._next = None


# the checks that read the spectral decomposition; a run of none of them
# defers no leakage (one left out here would diagonalize every sector itself)
_SPECTRAL_CHECKS = ("spectrum-match", "theorem1", "theorem2", "proposition1", "ladder")


class _Workspace:
    """Shared state between checks of one scenario run.

    The decomposition holds the swept sectors, every sector at or below a
    requested one (all of them when none is requested), which are all that
    ``classify_spectrum`` reads.  Its consistency figure covers every
    sector wherever it is read, by ``spectrum-match`` or by the spectral
    cache: with a worker the leakage of the other sectors is a job of the
    list ``_start_jobs`` starts, and ``join`` completes the figure with it;
    without one a single pass diagonalizes every sector.
    """

    def __init__(self, scenario: Scenario, cache_directory: str | None):
        self.scenario = scenario
        self.spec = scenario.chain
        self.vac = VacuumFunctions(self.spec)
        self.rng = np.random.default_rng(scenario.seed)
        self.cache_directory = cache_directory
        requested = scenario.sectors
        self.swept = [s for s in sector_indices(self.spec) if not requested
                      or any(s[0] <= a and s[1] <= b for a, b in requested)]
        # spectrum-match reports the all-sector figure and the cache stores it
        self.figure_read = "spectrum-match" in scenario.checks or bool(cache_directory)
        self.jobs: _Jobs | None = None
        self.deferred = False       # job 0 is the leakage of the unswept sectors
        self.rtt: list[tuple[str, int]] = []    # (identity, job index) in row order
        self._results: list[float] | None = None
        self._cached = self._dec = None
        self._looked_up = False
        self._classified = None

    def close(self) -> None:
        """Reap the worker if the job list was never joined."""
        if self.jobs is not None:
            self.jobs.close()

    def _load(self):
        """The spectral cache's decomposition of the swept sectors, looked up once."""
        if not self._looked_up and self.cache_directory:
            self._cached = load_cache(self.cache_directory, self.spec, self.swept)
        self._looked_up = True
        return self._cached

    def defer_leakage(self, worker: bool) -> list:
        """[the leakage job of the unswept sectors] if a worker can take it off the checks' path.

        That is when the run reads the all-sector figure, a spectral check
        will diagonalize and the cache misses; otherwise [].
        """
        rest = [s for s in sector_indices(self.spec) if s not in self.swept]
        self.deferred = bool(worker and rest and self.figure_read
                             and any(name in _SPECTRAL_CHECKS for name in self.scenario.checks)
                             and self._load() is None)
        return [(_leakage, (self.spec, rest))] if self.deferred else []

    def decomposition(self):
        if self._dec is None:
            dec = self._load()
            if dec is None:
                # one pass over every sector, unless the figure is deferred or unread
                whole = self.figure_read and not self.deferred
                dec = diagonalize_transfer(self.spec, sectors=None if whole else self.swept)
                dec = replace(dec, states=[st for st in dec.states if st.sector in self.swept])
            self._dec = dec
        return self._dec

    def join(self) -> list[float]:
        """The job list's results in job order.

        The first call also completes the consistency figure with the
        deferred leakage and writes a decomposition this run computed to the
        spectral cache.
        """
        if self._results is None:
            self._results = self.jobs.join()
            if self.deferred:
                dec = self.decomposition()
                # a max over sectors diagonalized independently: the all-sector figure
                self._dec = replace(dec, consistency=max(dec.consistency, self._results[0]))
            if self.cache_directory and self._dec is not None and self._cached is None:
                save_cache(self.cache_directory, self._dec)
        return self._results

    def classified(self):
        if self._classified is None:
            self._classified = classify_spectrum(
                self.decomposition(), self.vac, sectors=self.scenario.sectors)
        return self._classified

    def states(self, sector, kind="primitive"):
        return [st for st in self.classified() if st.sector == sector and st.kind == kind]


def _random_point(rng, c: complex, offset: complex) -> complex:
    return complex(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0)) * c + offset


def _run_ybe(ws: _Workspace) -> list[FormFactorReport]:
    spec, rng = ws.spec, ws.rng
    out = []
    for k in range(3):
        u = _random_point(rng, spec.c, 3.0 * spec.c)
        v = _random_point(rng, spec.c, -3.0 * spec.c)
        w = _random_point(rng, spec.c, 1.5j * spec.c)
        resid = yang_baxter_residual(u, v, w, spec.c)
        out.append(make_report(f"ybe:{k}", resid, 0.0, 1e-10, residual=resid))
    return out


def _leakage(spec: ChainSpec, sectors: list[tuple[int, int]]) -> float:
    """The consistency figure of ``sectors``: their eigenvector leakage at the later probes."""
    return diagonalize_transfer(spec, sectors=sectors).consistency


def _start_jobs(ws: _Workspace) -> None:
    """Draw the rtt check's spectral points and start the run's job list.

    Runs at rtt's place in the check order whether or not rtt is requested,
    so the points come from ``ws.rng`` between ybe's draws and vacuum's.  The
    list holds, largest first: the leakage of the unswept sectors if a
    worker takes it (see ``_Workspace.defer_leakage``); then, if rtt is
    requested, ``tm1_residual`` on the scenario chain and the rtt pairs by
    sub-chain size.  The rows read the results in draw order through
    ``_Workspace.join``.
    """
    sc, rng = ws.scenario, ws.rng
    worker = _use_worker()
    jobs = ws.defer_leakage(worker)
    if "rtt" in sc.checks:
        rows = []  # (identity, sites, job) in draw order
        # rtt_pairs pairs in all, the remainder going to the first sizes
        per_size, extra = divmod(sc.rtt_pairs, len(sc.rtt_sizes))
        for n, m_sites in enumerate(sc.rtt_sizes):
            sub = ChainSpec(M=m_sites, c=sc.chain.c)
            for k in range(per_size + (n < extra)):
                u = _random_point(rng, sub.c, 3.0 * sub.c)
                v = _random_point(rng, sub.c, -3.0 * sub.c)
                rows.append((f"rtt:M{m_sites}.{k}", m_sites, (verify_rtt, (sub, u, v))))
        # entry-level commutation relation spot check on the scenario chain
        u = _random_point(rng, sc.chain.c, 2.0 * sc.chain.c)
        v = _random_point(rng, sc.chain.c, -2.0 * sc.chain.c)
        rows.append(("rtt:tm1-1223", sc.chain.M, (tm1_residual, (sc.chain, u, v, (1, 2, 2, 3)))))
        queued = [len(rows) - 1] + sorted(range(len(rows) - 1), key=lambda n: -rows[n][1])
        slot = {n: len(jobs) + q for q, n in enumerate(queued)}
        ws.rtt = [(identity, slot[n]) for n, (identity, _, _) in enumerate(rows)]
        jobs += [rows[n][2] for n in queued]
    ws.jobs = _Jobs(jobs, worker)


def _run_rtt(ws: _Workspace) -> list[FormFactorReport]:
    """The rtt rows: joins the job list ``_start_jobs`` started."""
    results = ws.join()
    return [make_report(identity, results[index], 0.0, 1e-10, residual=results[index])
            for identity, index in ws.rtt]


def _run_vacuum(ws: _Workspace) -> list[FormFactorReport]:
    spec, vac, rng = ws.spec, ws.vac, ws.rng
    out = []
    u = _random_point(rng, spec.c, 2.5 * spec.c)
    # the vacuum e_1 (x) ... (x) e_1 is the one basis vector of its content
    vac_s = _content(spec, (0, 0))
    t = monodromy_entries(spec, u, itertools.product((1, 2, 3), repeat=2), contents=[vac_s])
    worst_ann = 0.0
    worst_eig = 0.0
    for i, j in itertools.permutations((1, 2, 3), 2):
        # T_ij |vac> (i > j) and <vac| T_ij (i < j); blocks that do not exist act as zero
        images = [blk[:, 0] if i > j else blk[0]
                  for s, (image, blk) in t[i, j].items()
                  if (s if i > j else image) == vac_s]
        worst_ann = max([worst_ann] + [float(np.abs(x).max()) for x in images])
    for k in (1, 2, 3):
        lam = vac.lam(k, u)
        image = t[k, k][vac_s][1][:, 0]
        worst_eig = max(worst_eig, float(np.abs(image - lam).max()) / max(1, abs(lam)))
    out.append(make_report("vacuum:annihilation", worst_ann, 0.0, 1e-10, residual=worst_ann))
    out.append(make_report("vacuum:eigenvalue", worst_eig, 0.0, 1e-10, residual=worst_eig))

    # factorization lambda = lambda^(1) lambda^(2) at a random split
    m = int(rng.integers(1, spec.M)) if spec.M > 1 else 1
    worst_fact = 0.0
    for k in (1, 2, 3):
        lam_full = complex(t[k, k][vac_s][1][0, 0])
        lam_1 = vacuum_eigenvalue(spec, k, range(1, m + 1), u)
        lam_2 = vacuum_eigenvalue(spec, k, range(m + 1, spec.M + 1), u) if m < spec.M else 1.0
        worst_fact = max(worst_fact, abs(lam_full - lam_1 * lam_2) / max(1, abs(lam_full)))
    out.append(make_report("vacuum:factorization", worst_fact, 0.0, 1e-12, m=m,
                           residual=worst_fact))

    # zero modes: closed form vs large-u limit; the next-order coefficient
    # grows like M^2, so the evaluation point scales out with the chain;
    # compared entry block by entry block, which tile the limit's groups,
    # as |s a - s b| = |a - b| for the signs s; each aux (x) H group of the
    # limit is compared as soon as it is built
    diff = 0.0
    for k, block in zero_mode_limit_groups(spec, scale=1e6 * spec.M):
        for i, j in itertools.product((1, 2, 3), repeat=2):
            limit = entry_blocks(spec, {k: block}, i, j)
            if limit:
                exact = zero_mode_entry(spec, i, j, contents=limit)
                diff = max([diff] + [float(np.abs(blk - limit[s][1]).max())
                                     for s, (_, blk) in exact.items()])
    out.append(make_report("vacuum:zero-mode-limit", diff, 0.0, 1e-5, residual=diff))
    return out


def _consistency_report(consistency: float) -> FormFactorReport:
    return make_report("spectrum:consistency", consistency, 0.0, 1e-9, residual=consistency)


def _run_spectrum_match(ws: _Workspace) -> list[FormFactorReport]:
    spec, vac = ws.spec, ws.vac
    out = []
    dec = ws.decomposition()
    # the swept sectors' figure: run_scenario completes it at the join
    out.append(_consistency_report(dec.consistency))
    for sector in ws.scenario.sectors:
        name = f"spectrum-match:{sector[0]}{sector[1]}"
        states = dec.by_sector(tuple(sector))
        classified = [st for st in ws.classified() if st.sector == tuple(sector)]
        prims = [st for st in classified if st.kind == "primitive"]
        n_unresolved = sum(1 for st in classified if st.kind == "unresolved")
        if not states:
            out.append(make_report(f"{name}:empty-sector", 0, 0, 0.5, sectors=(sector, sector),
                                   residual=0.0))
            continue
        # every solution found must match exactly one state, and the sector
        # labels recovered from the zero modes must agree with the root counts
        n_label_ok = 0
        worst_res = 0.0
        for st in prims:
            labels = sector_labels_from_zero_modes(spec, st, vac)
            if labels == tuple(sector) == st.roots.sector:
                n_label_ok += 1
            res = bethe_residual(st.roots, vac)
            worst_res = max(worst_res, float(np.abs(res).max()) if res.size else 0.0)
        out.append(make_report(f"{name}:labels", n_label_ok, len(prims), 0.5,
                               sectors=(sector, sector),
                               residual=float(n_label_ok != len(prims))))
        out.append(make_report(f"{name}:unresolved", n_unresolved, 0, 0.5,
                               sectors=(sector, sector), residual=float(n_unresolved != 0)))
        out.append(make_report(f"{name}:bethe-residual", worst_res, 0.0, 1e-10,
                               sectors=(sector, sector), residual=worst_res))
    return out


def _theorem1_plan(ws: _Workspace):
    """Deterministic pairs spanning diagonal and off-diagonal index pairs."""
    p00 = ws.states((0, 0))
    p10 = ws.states((1, 0))
    p20 = ws.states((2, 0))
    p21 = ws.states((2, 1))
    d11 = ws.states((1, 1), "descendant")
    plan = []
    if len(p10) >= 2:
        plan.append((2, 2, p10[0], p10[1]))
        plan.append((1, 1, p10[1], p10[0]))
    if len(p10) >= 3:
        plan.append((2, 2, p10[1], p10[2]))
    if p20 and p10:
        plan.append((1, 2, p20[0], p10[0]))
    if len(p20) >= 2 and len(p10) >= 2:
        plan.append((1, 2, p20[1], p10[1]))
    if p00 and p10:
        plan.append((2, 1, p00[0], p10[0]))
    if p21 and p10:
        plan.append((1, 3, p21[0], p10[0]))
    if len(p21) >= 2:
        plan.append((3, 3, p21[0], p21[1]))
    for dpair in d11:
        for bpair in p10:
            if np.abs(dpair.tau_samples - bpair.tau_samples).max() > 1e-6:
                plan.append((2, 3, dpair, bpair))
                break
        break
    if p00 and d11:
        plan.append((3, 1, p00[0], d11[0]))
    if p10 and d11:
        for dpair in d11:
            if np.abs(dpair.tau_samples - p10[0].tau_samples).max() > 1e-6:
                plan.append((3, 2, p10[0], dpair))
                break
    return plan


def _run_theorem1(ws: _Workspace) -> list[FormFactorReport]:
    spec, vac, sc = ws.spec, ws.vac, ws.scenario
    out = []
    for (i, j, pc, pb) in _theorem1_plan(ws):
        # the universal form factor does not depend on the split point
        ff = universal_form_factor(spec, vac, pc, pb, i, j)
        for m in sc.splits:
            out.append(check_theorem1(spec, vac, pc, pb, i, j, m, tol=sc.tol_exact, ff=ff))
            out.append(check_local_corollary(spec, vac, pc, pb, i, j, m, tol=sc.tol_exact,
                                             ff=ff))
    return out


def _run_theorem2(ws: _Workspace) -> list[FormFactorReport]:
    spec, vac, sc = ws.spec, ws.vac, ws.scenario
    out = []
    candidates = []
    p10 = ws.states((1, 0))
    if p10:
        candidates.append(p10[0])
    d11 = ws.states((1, 1), "descendant")
    if d11:
        candidates.append(d11[0])
    for pair in candidates:
        for i in (1, 2, 3):
            traj = continue_twist(pair.roots, vac, direction=i, delta=sc.fd_delta)
            traj_fine = continue_twist(pair.roots, vac, direction=i, delta=sc.fd_delta / 10)
            for m in sc.splits:
                out.append(check_theorem2(spec, vac, pair, i, m, tol=sc.tol_fd,
                                          trajectory=traj))
            d_coarse = traj.dlog_ell_ratio(vac, sc.splits[-1])
            d_fine = traj_fine.dlog_ell_ratio(vac, sc.splits[-1])
            if abs(d_coarse) > 1e-6:
                consistency = abs(d_coarse - d_fine) / abs(d_coarse)
            else:
                consistency = abs(d_coarse - d_fine)
            out.append(make_report(
                f"theorem2-fd:{i}.{pair.sector[0]}{pair.sector[1]}", consistency, 0.0, 1e-3,
                sectors=(pair.sector, pair.sector), m=sc.splits[-1], residual=consistency))
    return out


def _prop1_pairs(ws: _Workspace, direction: int):
    """Same-sector state pairs; directions touching kappa_3 need b >= 1."""
    p21 = ws.states((2, 1))
    p10 = ws.states((1, 0))
    if direction == 3 and len(p21) >= 2:
        return p21[0], p21[1]
    if len(p10) >= 2:
        return p10[0], p10[1]
    return None, None


def _run_proposition1(ws: _Workspace) -> list[FormFactorReport]:
    spec, vac, sc = ws.spec, ws.vac, ws.scenario
    out = []
    m = sc.splits[len(sc.splits) // 2]
    for i in (1, 2, 3):
        pc, pb = _prop1_pairs(ws, i)
        if pc is None:
            continue
        beta = [0.0, 0.0, 0.0]
        beta[i - 1] = sc.beta_magnitude
        # pc and pb share a sector: one twisted diagonalization serves both
        for tp in twisted_dual_pairs(spec, vac, (pc, pb), tuple(beta)):
            out.append(check_proposition1(spec, vac, tp, pb, tuple(beta), m, tol=1e-7))

        # beta-derivative consistency with the universal form factor
        out.append(check_genfun_derivative(spec, vac, pc, pb, i, m, delta=1e-3, tol=1e-5))
    return out


def _run_ladder(ws: _Workspace) -> list[FormFactorReport]:
    spec, vac, sc = ws.spec, ws.vac, ws.scenario
    out = []
    m = sc.splits[len(sc.splits) // 2]
    p10 = ws.states((1, 0))
    p20 = ws.states((2, 0))
    d11 = ws.states((1, 1), "descendant")
    if p20 and p10:
        out.extend(zero_mode_ladder_checks(spec, vac, p20[0], p10[0], m,
                                           quadruples=((2, 2, 1, 2),)))
    if len(p10) >= 2:
        out.extend(zero_mode_ladder_checks(spec, vac, p10[0], p10[1], m,
                                           quadruples=((1, 2, 2, 1),)))
    if d11 and p10:
        for dpair in d11:
            if np.abs(dpair.tau_samples - p10[0].tau_samples).max() > 1e-6:
                out.extend(zero_mode_ladder_checks(spec, vac, dpair, p10[0], m,
                                                   quadruples=((2, 2, 2, 3),)))
                break
    return out


_CHECK_RUNNERS = {
    "ybe": _run_ybe,
    "rtt": _run_rtt,
    "vacuum": _run_vacuum,
    "spectrum-match": _run_spectrum_match,
    "theorem1": _run_theorem1,
    "theorem2": _run_theorem2,
    "proposition1": _run_proposition1,
    "ladder": _run_ladder,
}

# dependency order: algebra conformance, then spectra, then form factors
_CHECK_ORDER = ("ybe", "rtt", "vacuum", "spectrum-match", "theorem1", "theorem2",
                "proposition1", "ladder")


def run_scenario(scenario: Scenario, out_dir: str,
                 cache_directory: str | None = None) -> tuple[int, list[FormFactorReport]]:
    """Execute the scenario's checks in dependency order and write reports.

    Order rule: each check draws its random points from the one seeded
    generator at its place in ``_CHECK_ORDER``, and its rows sit at that
    place in the report.  Only work no check reads before the end moves.
    At rtt's place, requested or not, ``_start_jobs`` draws the rtt points
    and starts one job list, longest jobs first: the leakage of the sectors
    the spectral checks do not sweep, ``tm1_residual``, then the rtt pairs
    by sub-chain size.  A forked worker drains it from there, where that is
    safe and useful, and this process drains the rest after the last check.
    The join then fills the rtt rows and completes the
    ``spectrum:consistency`` row, the max of the swept and the deferred
    figures, which is the figure of one pass over every sector.  Without a
    worker the leakage is not deferred: that one pass runs instead.  Each
    job runs once, and either way the same calls see the same inputs, so
    both paths write the same bytes.  The worker is reaped on every exit, a
    check that raises included.

    Returns (exit_code, reports); exit code 0 means every non-skipped check
    passed, 1 means at least one failed.  A check that emits no rows emits
    one ``skipped`` row instead, so it cannot pass silently.  Configuration
    problems raise ScenarioError before anything runs (exit code 2 at the CLI
    level).
    """
    cache_directory = cache_directory or os.environ.get(CACHE_ENV_VAR)
    ws = _Workspace(scenario, cache_directory)
    names = [name for name in _CHECK_ORDER if name in scenario.checks]
    rows: dict[str, list[FormFactorReport]] = {}
    try:
        for name in _CHECK_ORDER:
            if name == "rtt":
                _start_jobs(ws)
            elif name in names:
                rows[name] = _CHECK_RUNNERS[name](ws)
        if "rtt" in names:
            rows["rtt"] = _CHECK_RUNNERS["rtt"](ws)
        ws.join()
    finally:
        ws.close()
    if "spectrum-match" in names:
        rows["spectrum-match"][0] = _consistency_report(ws.decomposition().consistency)
    reports: list[FormFactorReport] = []
    for name in names:
        # every runner that emits nothing found none of the states it reads
        reports.extend(rows[name] or [
            make_report(f"{name}:skipped:no-eligible-states", 0, 0, 0.0, residual=0.0,
                        skipped=True)])
    emit_report(reports, out_dir)
    failed = [r for r in reports if r.verdict == "fail"]
    return (1 if failed else 0), reports


def emit_report(reports: list[FormFactorReport], out_dir: str) -> tuple[str, str]:
    """Write the JSON-lines file and the summary grid; refuse empty input."""
    if not reports:
        raise ScenarioError("no reports to emit; empty check list is an error")
    os.makedirs(out_dir, exist_ok=True)
    jsonl_path = os.path.join(out_dir, "reports.jsonl")
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(rep.to_json_line() + "\n")

    lines = []
    width = max(len(r.identity) for r in reports) + 2
    lines.append(f"{'identity':<{width}}{'m':>3} {'sectors':<16}{'residual':>12} {'verdict'}")
    lines.append("-" * (width + 40))
    for rep in reports:
        sect = f"{rep.sectors[0]}<-{rep.sectors[1]}"
        mark = {"pass": "pass", "fail": "FAIL", "trivial": "zero*", "skipped": "skip"}[rep.verdict]
        lines.append(
            f"{rep.identity:<{width}}{rep.m:>3} {sect:<16}{rep.rel_residual:>12.3e} {mark}"
        )
    n_fail = sum(1 for r in reports if r.verdict == "fail")
    n_triv = sum(1 for r in reports if r.verdict == "trivial")
    lines.append("-" * (width + 40))
    n_skip = sum(1 for r in reports if r.verdict == "skipped")
    lines.append(f"total {len(reports)}  failed {n_fail}  trivially-zero {n_triv}"
                 + (f"  skipped {n_skip}" if n_skip else ""))
    lines.append("(zero* rows have both sides below the zero floor and never count as passes)")
    if n_skip:
        lines.append("(skip rows stand for checks that found none of the states they read "
                     "in the requested sectors and tested nothing)")
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return jsonl_path, summary_path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedbethe",
        description="Verification suites for graded integrable chain form factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ver = sub.add_parser("verify", help="run a scenario config")
    ver.add_argument("--config", required=True, help="path to the scenario JSON")
    ver.add_argument("--check", action="append", default=None,
                     help="restrict to a named check (repeatable)")
    ver.add_argument("--out", default="reports", help="output directory")
    ver.add_argument("--seed", type=int, default=None, help="override the config seed")
    ver.add_argument("--tol-exact", type=float, default=None,
                     help="override the tolerance for algebraically exact identities")
    ver.add_argument("--tol-fd", type=float, default=None,
                     help="override the tolerance for finite-difference identities")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = Scenario.from_file(args.config)
        if args.check:
            for name in args.check:
                if name not in KNOWN_CHECKS:
                    raise ScenarioError(f"unrecognized check name: {name!r}")
            scenario.checks = list(args.check)
        if args.seed is not None:
            scenario.seed = _seed("--seed", args.seed)
        if args.tol_exact is not None:
            scenario.tol_exact = _positive("--tol-exact", args.tol_exact)
        if args.tol_fd is not None:
            scenario.tol_fd = _positive("--tol-fd", args.tol_fd)
        code, reports = run_scenario(scenario, args.out)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, WorkerError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    n_fail = sum(1 for r in reports if r.verdict == "fail")
    print(f"{len(reports)} checks, {n_fail} failures -> {args.out}/reports.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
