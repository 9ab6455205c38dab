"""Batch runner: load a scenario config, run verification suites, emit reports.

The scenario is a single JSON document; all randomness (the spectral points
of the algebra checks and the vacuum factorization split) derives from its
one integer seed, so identical configs give byte-identical report files.
Reports are written as JSON lines in the fixed seven-key schema plus a
human-readable summary grid.  The rtt check shares no state with the checks
after it, so its residuals are computed in a forked worker while they run,
where the process can fork safely and has a second CPU to run it on.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass

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
        sectors = [tuple(_integer("sectors", x) for x in s) for s in
                   data.get("sectors", [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [2, 1]])]
        for a, b in sectors:
            if a < 0 or b < 0 or a > m:
                raise ScenarioError(f"sector {(a, b)} out of range for M={m}")
        splits = [_integer("splits", x) for x in data.get("splits", list(range(1, m)))]
        if not splits:
            # theorem2, proposition1 and ladder read a split point; --check may
            # select them after validation, so reject whatever the checks are
            raise ScenarioError("empty split list; give at least one split point in 1..M")
        for split in splits:
            if not 1 <= split <= m:
                raise ScenarioError(f"split m={split} out of range")
        rtt_sizes = tuple(_integer("rtt_sizes", x)
                          for x in data.get("rtt_sizes", (1, 2, 3, 4, 5)))
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
            seed=_integer("seed", data.get("seed", 7)),
            tol_exact=_positive("tol_exact", data.get("tol_exact", 1e-8)),
            tol_fd=_positive("tol_fd", data.get("tol_fd", 1e-5)),
            rtt_pairs=rtt_pairs,
            rtt_sizes=rtt_sizes,
            beta_magnitude=float(data.get("beta_magnitude", 1e-2)),
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


class _Residuals:
    """Float residuals of ``fn(*args)`` jobs, read back in job order by ``join``.

    Where ``_use_worker`` allows, the jobs run in a child forked at
    construction, which sends the residuals back as raw float64 bytes over a
    pipe, or an exception pickled; ``join`` re-raises that exception with its
    type and message.  Otherwise ``join`` runs the jobs in this process.
    ``close`` kills and reaps a child that was never joined.
    """

    def __init__(self, jobs):
        self._jobs = jobs
        self._pid = self._read = None
        if _use_worker():
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                # no process to spare: the jobs run in this process at the join
                os.close(read)
                os.close(write)
                return
            if pid == 0:
                self._serve(read, write)
            os.close(write)
            self._pid, self._read = pid, read

    def _serve(self, read: int, write: int) -> None:
        """The child: run the jobs, send the outcome and exit without returning."""
        code = 1
        try:
            os.close(read)
            try:
                out = b"R" + np.array([fn(*args) for fn, args in self._jobs],
                                      dtype=np.float64).tobytes()
            except Exception as exc:
                out = b"E" + pickle.dumps(exc)
            with os.fdopen(write, "wb") as fh:
                fh.write(out)
            code = 0
        finally:
            os._exit(code)

    def join(self) -> list[float]:
        if self._pid is None:
            return [float(fn(*args)) for fn, args in self._jobs]
        read, self._read = self._read, None
        with os.fdopen(read, "rb") as fh:
            out = fh.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if out[:1] == b"R":
            return np.frombuffer(out, dtype=np.float64, offset=1).tolist()
        if out[:1] == b"E":
            raise pickle.loads(out[1:])  # written by the child forked above
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise WorkerError(f"the rtt worker ended without a result: {how}")

    def close(self) -> None:
        if self._read is not None:
            os.close(self._read)
            self._read = None
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


class _Workspace:
    """Shared state between checks of one scenario run."""

    def __init__(self, scenario: Scenario, cache_directory: str | None):
        self.scenario = scenario
        self.spec = scenario.chain
        self.vac = VacuumFunctions(self.spec)
        self.rng = np.random.default_rng(scenario.seed)
        self.cache_directory = cache_directory
        self.rtt: tuple[list[str], _Residuals] | None = None
        self._dec = None
        self._classified = None

    def close(self) -> None:
        """Reap the rtt worker if it was never joined."""
        if self.rtt is not None:
            self.rtt[1].close()

    def decomposition(self):
        if self._dec is None:
            dec = None
            if self.cache_directory:
                dec = load_cache(self.cache_directory, self.spec)
            if dec is None:
                dec = diagonalize_transfer(self.spec)
                if self.cache_directory:
                    save_cache(self.cache_directory, dec)
            self._dec = dec
        return self._dec

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


def _start_rtt(ws: _Workspace) -> None:
    """Draw the rtt check's spectral points and start computing its residuals.

    Runs at rtt's place in the check order, so the points come from ``ws.rng``
    between ybe's draws and vacuum's; the residuals are read by ``_run_rtt``.
    """
    sc, rng = ws.scenario, ws.rng
    identities, jobs = [], []
    # rtt_pairs pairs in all, the remainder going to the first sizes
    per_size, extra = divmod(sc.rtt_pairs, len(sc.rtt_sizes))
    for n, m_sites in enumerate(sc.rtt_sizes):
        sub = ChainSpec(M=m_sites, c=sc.chain.c)
        for k in range(per_size + (n < extra)):
            u = _random_point(rng, sub.c, 3.0 * sub.c)
            v = _random_point(rng, sub.c, -3.0 * sub.c)
            identities.append(f"rtt:M{m_sites}.{k}")
            jobs.append((verify_rtt, (sub, u, v)))
    # entry-level commutation relation spot check on the scenario chain
    u = _random_point(rng, sc.chain.c, 2.0 * sc.chain.c)
    v = _random_point(rng, sc.chain.c, -2.0 * sc.chain.c)
    identities.append("rtt:tm1-1223")
    jobs.append((tm1_residual, (sc.chain, u, v, (1, 2, 2, 3))))
    ws.rtt = (identities, _Residuals(jobs))


def _run_rtt(ws: _Workspace) -> list[FormFactorReport]:
    """The rtt rows: joins the residuals ``_start_rtt`` started."""
    identities, residuals = ws.rtt
    return [make_report(identity, resid, 0.0, 1e-10, residual=resid)
            for identity, resid in zip(identities, residuals.join())]


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


def _run_spectrum_match(ws: _Workspace) -> list[FormFactorReport]:
    spec, vac = ws.spec, ws.vac
    out = []
    dec = ws.decomposition()
    out.append(make_report("spectrum:consistency", dec.consistency, 0.0, 1e-9,
                           residual=dec.consistency))
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
    place in the report.  Only the rtt check's work moves: its points are
    drawn at its place (``_start_rtt``), which starts its residuals in a
    forked worker where that is safe and useful, and its runner, the join,
    runs after the last check.  Both paths make the same calls on the same
    inputs, so they write the same bytes.  The worker is reaped on every
    exit, a check that raises included.

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
        for name in names:
            if name == "rtt":
                _start_rtt(ws)
            else:
                rows[name] = _CHECK_RUNNERS[name](ws)
        if "rtt" in names:
            rows["rtt"] = _CHECK_RUNNERS["rtt"](ws)
    finally:
        ws.close()
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
            scenario.seed = args.seed
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
