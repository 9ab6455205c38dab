"""Batch runner: load a scenario config, run verification suites, emit reports.

The scenario is a single JSON document; all randomness (the spectral points
of the algebra checks and the vacuum factorization split) derives from its
one integer seed, so identical configs give byte-identical report files.
Reports are written as JSON lines in the fixed seven-key schema plus a
human-readable summary grid.  Every check runs in this process, at its
place in the check order.  The rtt rows, the zero-mode limit and the
commutator figure of the unswept sectors act on fixed probe columns and
build no group.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; pay for it at start-up

from .bethe import BetheSolverError, bethe_residual, continue_twist
from .chain import (
    ChainSpec,
    PoleError,
    _entry_apply,
    _probe_columns,
    _relative_gap,
    _zero_mode_apply,
    monodromy_entries,
    tm1_residual,
    transfer_apply,
    vacuum_eigenvalue,
    verify_rtt,
    yang_baxter_residual,
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
    _content,
    _swept_sectors,
    classify_spectrum,
    default_probes,
    diagonalize_transfer,
    sector_indices,
    sector_labels_from_zero_modes,
)

__all__ = ["Scenario", "ScenarioError", "run_scenario", "emit_report", "main",
           "default_scenario_dict", "KNOWN_CHECKS"]

MAX_SITES = 7
SCHEMA_VERSION = 1
_CHAIN_KEYS = ("M", "c", "xi")


class ScenarioError(ValueError):
    """Configuration does not validate."""


def _integer(name: str, value) -> int:
    """An integer field; a float such as 1.7, nan or inf is refused, not truncated.

    JSON true and false are refused too: Python reads them as 1 and 0.
    """
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(name: str, value) -> int:
    """The generator seed: numpy takes integers from zero up."""
    seed = _integer(name, value)
    if seed < 0:
        raise ScenarioError(f"{name} must be an integer from 0 up, got {value!r}")
    return seed


def _checks(names) -> list[str]:
    """A check list: at least one name, each one of KNOWN_CHECKS."""
    if not names:
        raise ScenarioError("empty check list")
    for name in names:
        if name not in KNOWN_CHECKS:
            raise ScenarioError(f"unrecognized check name: {name!r}")
    return list(names)


def _complex(value) -> complex:
    """A complex number written as its [real, imaginary] pair."""
    re, im = value
    return complex(re, im)


def _known_keys(name: str, data: dict, keys) -> None:
    """Refuse keys outside ``keys``: a misspelt key would otherwise be ignored."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ScenarioError(f"unknown {name} key(s): {', '.join(map(repr, unknown))}")


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
        # the scenario's keys are its fields' names
        _known_keys("scenario", data, ["schema_version"] + [f.name for f in fields(cls)])
        schema_version = data.get("schema_version", SCHEMA_VERSION)
        if isinstance(schema_version, bool) or schema_version != SCHEMA_VERSION:
            # JSON true is not 1
            raise ScenarioError(f"unsupported schema_version {schema_version}")
        chain_data = data.get("chain", {})
        if not isinstance(chain_data, dict):
            raise ScenarioError("chain must be a JSON object")
        # no twist key: the checks assume the untwisted chain, so a kappa is refused here
        _known_keys("chain", chain_data, _CHAIN_KEYS)
        m = _integer("M", chain_data.get("M", 4))
        if m > MAX_SITES:
            raise ScenarioError(f"dimension bound exceeded: M={m} > {MAX_SITES} (3^M states)")
        xi = chain_data.get("xi")
        try:
            # xi = None leaves the inhomogeneities to ChainSpec's default
            chain = ChainSpec(M=m, c=_complex(chain_data.get("c", [1.0, 0.0])),
                              xi=None if xi is None else tuple(map(_complex, xi)))
        except ValueError as exc:
            raise ScenarioError(f"invalid chain spec: {exc}") from exc
        checks = _checks(list(data.get("checks", KNOWN_CHECKS)))
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
        return cls(chain=chain, sectors=sectors, splits=splits, checks=checks,
                   seed=_seed("seed", data.get("seed", 7)))

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
        "chain": {"M": m, "c": [1.0, 0.0], "xi": None},
        "sectors": [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [2, 1]],
        "splits": list(range(1, m)),
        "checks": list(KNOWN_CHECKS),
    }


class _Workspace:
    """Shared state between checks of one scenario run.

    The decomposition holds the swept sectors, every sector at or below a
    requested one (all of them when none is requested), which are all that
    ``classify_spectrum`` reads.  ``spectrum-match`` covers the other
    sectors, ``rest``, by their commutator figure on probe columns.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.spec = scenario.chain
        self.rng = np.random.default_rng(scenario.seed)
        self.swept = _swept_sectors(sector_indices(self.spec), scenario.sectors)
        self.rest = [s for s in sector_indices(self.spec) if s not in self.swept]
        self._dec = None
        self._classified = None

    def decomposition(self):
        if self._dec is None:
            self._dec = diagonalize_transfer(self.spec, sectors=self.swept)
        return self._dec

    def classified(self):
        if self._classified is None:
            self._classified = classify_spectrum(self.decomposition(),
                                                 sectors=self.scenario.sectors)
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
    """The consistency figure of ``sectors``: how far t(u_0) and t(u_q) fail to commute there.

    The largest relative gap of t(u_0) t(u_q) Y and t(u_q) t(u_0) Y over the
    later probes u_q, for Y the probe columns kept on the sectors' indices.
    """
    kept = np.concatenate([sector_indices(spec)[s] for s in sectors])
    y = np.zeros((3 ** spec.M, 2), dtype=complex)
    y[kept] = _probe_columns(3 ** spec.M)[kept]
    first, *later = default_probes(spec)
    t_first = transfer_apply(spec, first, y)
    return max((_relative_gap(transfer_apply(spec, first, transfer_apply(spec, u, y)),
                              transfer_apply(spec, u, t_first)) for u in later))


_RTT_SIZES = (1, 2, 3, 4, 5)  # sub-chain sizes of the RTT rows
_RTT_PAIRS_PER_SIZE = 4       # spectral pairs at each size


def _run_rtt(ws: _Workspace) -> list[FormFactorReport]:
    """The RTT relation on sub-chains of each size in ``_RTT_SIZES``, then one
    entry-level commutation relation on the scenario chain."""
    spec, rng = ws.spec, ws.rng
    out = []
    for m_sites in _RTT_SIZES:
        sub = ChainSpec(M=m_sites, c=spec.c)
        for k in range(_RTT_PAIRS_PER_SIZE):
            u = _random_point(rng, sub.c, 3.0 * sub.c)
            v = _random_point(rng, sub.c, -3.0 * sub.c)
            resid = verify_rtt(sub, u, v)
            out.append(make_report(f"rtt:M{m_sites}.{k}", resid, 0.0, 1e-10, residual=resid))
    u = _random_point(rng, spec.c, 2.0 * spec.c)
    v = _random_point(rng, spec.c, -2.0 * spec.c)
    resid = tm1_residual(spec, u, v, (1, 2, 2, 3))
    out.append(make_report("rtt:tm1-1223", resid, 0.0, 1e-10, residual=resid))
    return out


def _run_vacuum(ws: _Workspace) -> list[FormFactorReport]:
    spec, rng = ws.spec, ws.rng
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
        lam = spec.lam(k, u)
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

    # zero modes: the letter rule's T_ij[0] Y against the large-u limit
    # (u/c)(T_ij(u) - delta_ij) Y on the probe columns, at u = far; the
    # next-order coefficient grows like M^2, so the point scales with the chain
    far = 1e6 * spec.M * spec.c
    y = _probe_columns(3 ** spec.M)
    gap = max(_relative_gap((far / spec.c) * (_entry_apply(spec, far, i, j, y) - (i == j) * y),
                            _zero_mode_apply(spec, i, j, y))
              for i, j in itertools.product((1, 2, 3), repeat=2))
    out.append(make_report("vacuum:zero-mode-limit", gap, 0.0, 1e-5, residual=gap))
    return out


def _run_spectrum_match(ws: _Workspace) -> list[FormFactorReport]:
    spec = ws.spec
    out = []
    dec = ws.decomposition()
    # the swept sectors' eigenvector leakage and the other sectors' commutator
    # figure, so every sector is covered
    figure = max(dec.consistency, _leakage(spec, ws.rest) if ws.rest else 0.0)
    out.append(make_report("spectrum:consistency", figure, 0.0, 1e-9, residual=figure))
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
            labels = sector_labels_from_zero_modes(spec, st)
            if labels == tuple(sector) == st.roots.sector:
                n_label_ok += 1
            res = bethe_residual(st.roots, spec)
            worst_res = max(worst_res, float(np.abs(res).max()) if res.size else 0.0)
        out.append(make_report(f"{name}:labels", n_label_ok, len(prims), 0.5,
                               sectors=(sector, sector),
                               residual=float(n_label_ok != len(prims))))
        out.append(make_report(f"{name}:unresolved", n_unresolved, 0, 0.5,
                               sectors=(sector, sector), residual=float(n_unresolved != 0)))
        out.append(make_report(f"{name}:bethe-residual", worst_res, 0.0, 1e-10,
                               sectors=(sector, sector), residual=worst_res))
    return out


def _first_apart(states, ref):
    """The first of ``states`` whose eigenvalue samples differ from ``ref``'s, else None.

    The form-factor checks of a pair need a probe point that separates its
    two eigenvalue functions; a descendant shares its primitive's samples.
    """
    return next((st for st in states
                 if np.abs(st.tau_samples - ref.tau_samples).max() > 1e-6), None)


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
    if d11 and (bpair := _first_apart(p10, d11[0])) is not None:
        plan.append((2, 3, d11[0], bpair))
    if p00 and (dpair := _first_apart(d11, p00[0])) is not None:
        plan.append((3, 1, p00[0], dpair))
    if p10 and (dpair := _first_apart(d11, p10[0])) is not None:
        plan.append((3, 2, p10[0], dpair))
    return plan


def _run_theorem1(ws: _Workspace) -> list[FormFactorReport]:
    spec, sc = ws.spec, ws.scenario
    out = []
    for (i, j, pc, pb) in _theorem1_plan(ws):
        # the universal form factor does not depend on the split point
        ff = universal_form_factor(spec, pc, pb, i, j)
        for m in sc.splits:
            out.append(check_theorem1(spec, pc, pb, i, j, m, ff=ff))
            out.append(check_local_corollary(spec, pc, pb, i, j, m, ff=ff))
    return out


_TWIST_STEP = 1e-5  # half-width of theorem2's central difference; its tenth checks it


def _run_theorem2(ws: _Workspace) -> list[FormFactorReport]:
    spec, sc = ws.spec, ws.scenario
    out = []
    candidates = []
    p10 = ws.states((1, 0))
    if p10:
        candidates.append(p10[0])
    d11 = ws.states((1, 1), "descendant")
    if d11:
        candidates.append(d11[0])
    for pair in candidates:
        sectors = (pair.sector, pair.sector)
        for i in (1, 2, 3):
            try:
                traj = continue_twist(pair.roots, spec, direction=i, delta=_TWIST_STEP)
                traj_fine = continue_twist(pair.roots, spec, direction=i, delta=_TWIST_STEP / 10)
            except PoleError:  # a continued root hit an inhomogeneity
                out.append(make_report(f"theorem2:{i}:skipped:pole", 0, 0, 0.0, sectors=sectors,
                                       residual=0.0, skipped=True))
                continue
            for m in sc.splits:
                out.append(check_theorem2(spec, pair, i, m, trajectory=traj))
            d_coarse = traj.dlog_ell_ratio(spec, sc.splits[-1])
            d_fine = traj_fine.dlog_ell_ratio(spec, sc.splits[-1])
            if abs(d_coarse) > 1e-6:
                consistency = abs(d_coarse - d_fine) / abs(d_coarse)
            else:
                consistency = abs(d_coarse - d_fine)
            out.append(make_report(
                f"theorem2-fd:{i}.{pair.sector[0]}{pair.sector[1]}", consistency, 0.0, 1e-3,
                sectors=sectors, m=sc.splits[-1], residual=consistency))
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


_PROP1_BETA = 1e-2  # the twist exponent of proposition1's direction


def _run_proposition1(ws: _Workspace) -> list[FormFactorReport]:
    spec, sc = ws.spec, ws.scenario
    out = []
    m = sc.splits[len(sc.splits) // 2]
    for i in (1, 2, 3):
        pc, pb = _prop1_pairs(ws, i)
        if pc is None:
            continue
        beta = [0.0, 0.0, 0.0]
        beta[i - 1] = _PROP1_BETA
        # pc and pb share a sector: one twisted diagonalization serves both
        for tp in twisted_dual_pairs(spec, (pc, pb), tuple(beta)):
            out.append(check_proposition1(spec, tp, pb, tuple(beta), m))

        # beta-derivative consistency with the universal form factor
        out.append(check_genfun_derivative(spec, pc, pb, i, m))
    return out


def _run_ladder(ws: _Workspace) -> list[FormFactorReport]:
    spec, sc = ws.spec, ws.scenario
    out = []
    m = sc.splits[len(sc.splits) // 2]
    p10 = ws.states((1, 0))
    p20 = ws.states((2, 0))
    d11 = ws.states((1, 1), "descendant")
    if p20 and p10:
        out.extend(zero_mode_ladder_checks(spec, p20[0], p10[0], m, (2, 2, 1, 2)))
    if len(p10) >= 2:
        out.extend(zero_mode_ladder_checks(spec, p10[0], p10[1], m, (1, 2, 2, 1)))
    if p10 and (dpair := _first_apart(d11, p10[0])) is not None:
        out.extend(zero_mode_ladder_checks(spec, dpair, p10[0], m, (2, 2, 2, 3)))
    return out


# in run order: algebra conformance, then spectra, then form factors
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
KNOWN_CHECKS = tuple(_CHECK_RUNNERS)


def run_scenario(scenario: Scenario, out_dir: str) -> tuple[int, list[FormFactorReport]]:
    """Execute the scenario's checks in dependency order and write reports.

    Order rule: each check draws its random points from the one seeded
    generator at its place in ``_CHECK_RUNNERS``, and its rows sit at that
    place in the report.

    Returns (exit_code, reports); exit code 0 means every non-skipped check
    passed, 1 means at least one failed.  A check that emits no rows emits
    one ``skipped`` row instead, so it cannot pass silently.  Configuration
    problems raise ScenarioError before anything runs (exit code 2 at the CLI
    level).
    """
    ws = _Workspace(scenario)
    reports: list[FormFactorReport] = []
    for name in _CHECK_RUNNERS:
        if name in scenario.checks:
            # every runner that emits nothing found none of the states it reads
            reports.extend(_CHECK_RUNNERS[name](ws) or [
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
        lines.append("(skip rows stand for checks that tested nothing: they found none of the "
                     "states they read in the requested sectors, or hit a pole)")
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = Scenario.from_file(args.config)
        if args.check:
            scenario.checks = _checks(args.check)
        if args.seed is not None:
            scenario.seed = _seed("--seed", args.seed)
        code, reports = run_scenario(scenario, args.out)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, BetheSolverError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    n_fail = sum(1 for r in reports if r.verdict == "fail")
    print(f"{len(reports)} checks, {n_fail} failures -> {args.out}/reports.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
