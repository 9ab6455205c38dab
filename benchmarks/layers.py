"""Per-layer metrics of the traced run, derived from spans and report rows.

Times named `<layer>.<function>.s` are self times: the span's duration minus
the part covered by other traced calls beneath it, summed over calls, so each
second is charged to exactly one layer.  The `cli.check.<name>.s` and
`cli.emit_report.s` figures are stage wall times instead (their spans'
whole duration), because a check runner is a stage a user waits for.

Which end-to-end metric each layer metric should move, and on which workload,
is written down in benchmarks/README.md.

This module must stay importable without numpy: the benchmark's parent
process uses it too.
"""

from __future__ import annotations

import math
import os
from collections import Counter, defaultdict

from tracer import self_times

#: public chain functions that assemble a dense (3^(M+1))^2 complex matrix
DENSE_BUILDERS = ("chain.transfer_matrix", "chain.monodromy", "chain.monodromy_blocks",
                  "chain.zero_mode_limit", "chain.l_operator")
CHECKS = ("ybe", "rtt", "vacuum", "spectrum-match", "theorem1", "theorem2",
          "proposition1", "ladder")
FF_FUNCTIONS = ("check_theorem1", "check_local_corollary", "check_theorem2",
                "check_proposition1", "check_genfun_derivative", "twisted_dual_pair",
                "generating_functional", "zero_mode_ladder_checks")
#: identity families: the part of a report's identity before the first ':'
FAMILIES = ("ybe", "rtt", "vacuum", "spectrum", "spectrum-match", "theorem1",
            "theorem1-local", "theorem2", "theorem2-fd", "proposition1",
            "genfun-derivative", "ladder-commutator", "ladder-dual-annihilation",
            "ladder-raising-eigenvector")
STATE_KINDS = ("primitive", "descendant", "cluster", "unresolved")
EPS = 2.220446049250313e-16
MB = 1024.0 * 1024.0


def headroom_decades(rel_residual: float, tolerance: float) -> float:
    """log10(tolerance / residual); residuals below machine epsilon count as epsilon."""
    return math.log10(tolerance / max(rel_residual, EPS))


# -- observers: run inside the traced child, on the value a call returned ------


def _dense(args, kwargs, result):
    return {"M": args[0].M}


def _decomposition(args, kwargs, result):
    return None if result is None else {"consistency": float(result.consistency)}


OBSERVERS = {
    **{name: _dense for name in DENSE_BUILDERS},
    "spectrum.classify_spectrum":
        lambda args, kwargs, result: {"kinds": dict(Counter(c.kind for c in result))},
    "spectrum.diagonalize_transfer": _decomposition,
    "spectrum.load_cache": _decomposition,
    "spectrum.save_cache": lambda args, kwargs, result: {"bytes": os.path.getsize(result)},
    "cli.check": lambda args, kwargs, result: {"rows": len(result)},
}


# -- derivation ----------------------------------------------------------------


def _has_ancestor(spans: list[dict], index: int, name: str) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def derive(calls: list[tuple[list[dict], list[list]]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `calls` holds, for each `run_scenario` call of the pass, its spans and its
    report rows `[identity, m, sectors, verdict, rel_residual, tolerance]`.
    Counts and times are summed over the pass; peaks are maxima.
    """
    n = Counter()
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    peak = defaultdict(int)
    none_returns = Counter()
    raised = Counter()
    kinds = Counter()
    cache_bytes = 0
    dense_bytes = 0
    consistency = 0.0
    classify_solves = 0
    rows_by_check = Counter()
    headroom: dict[str, float] = {}
    trivial = 0

    for spans, rows in calls:
        own = self_times(spans)
        for i, s in enumerate(spans):
            name, attrs = s["name"], s["attrs"] or {}
            n[name] += 1
            self_s[name] += own[i]
            wall_s[name] += s["end"] - s["start"]
            peak[name] = max(peak[name], s["peak_bytes"])
            if s["status"] == "none":
                none_returns[name] += 1
            elif s["status"].startswith("raised:"):
                raised[name] += 1
            if name in DENSE_BUILDERS:
                dense_bytes += 16 * 9 ** (attrs["M"] + 1)
            kinds.update(attrs.get("kinds", {}))
            cache_bytes += attrs.get("bytes", 0)
            consistency = max(consistency, attrs.get("consistency", 0.0))
            rows_by_check[name] += attrs.get("rows", 0)
            if (name == "bethe.solve_bethe"
                    and _has_ancestor(spans, i, "spectrum.classify_spectrum")):
                classify_solves += 1
        for identity, _m, _sectors, verdict, resid, tol in rows:
            if verdict == "trivial":
                trivial += 1
                continue
            family = identity.split(":")[0]
            headroom[family] = min(headroom.get(family, math.inf), headroom_decades(resid, tol))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {
        "chain.dense_builds": sum(n[b] for b in DENSE_BUILDERS),
        "chain.dense_bytes_computed": dense_bytes,
    }
    for fn in ("transfer_matrix", "monodromy_blocks", "zero_mode", "verify_rtt"):
        out[f"chain.{fn}.calls"] = n[f"chain.{fn}"]
        out[f"chain.{fn}.s"] = self_s[f"chain.{fn}"]
    out["chain.zero_mode_limit.s"] = self_s["chain.zero_mode_limit"]

    out["spectrum.diagonalize_transfer.calls"] = n["spectrum.diagonalize_transfer"]
    out["spectrum.diagonalize_transfer.s"] = self_s["spectrum.diagonalize_transfer"]
    out["spectrum.classify_spectrum.s"] = self_s["spectrum.classify_spectrum"]
    out["spectrum.classify_spectrum.peak_alloc_mb"] = peak["spectrum.classify_spectrum"] / MB
    out["spectrum.match_roots_to_state.calls"] = n["spectrum.match_roots_to_state"]
    out["spectrum.match_roots_to_state.s"] = self_s["spectrum.match_roots_to_state"]
    for kind in STATE_KINDS:
        out[f"spectrum.states.{kind}"] = kinds[kind]
    out["spectrum.consistency"] = consistency
    out["spectrum.save_cache.s"] = self_s["spectrum.save_cache"]
    out["spectrum.load_cache.s"] = self_s["spectrum.load_cache"]
    out["spectrum.cache_bytes"] = cache_bytes
    out["spectrum.cache_hits"] = n["spectrum.load_cache"] - none_returns["spectrum.load_cache"]

    fit = "bethe.fit_roots_to_samples"
    out[f"{fit}.calls"] = n[fit]
    out[f"{fit}.s"] = self_s[fit]
    out[f"{fit}.hit_ratio"] = ratio(n[fit] - none_returns[fit], n[fit])
    out["bethe.solve_bethe.calls"] = n["bethe.solve_bethe"]
    out["bethe.solve_bethe.s"] = self_s["bethe.solve_bethe"]
    out["bethe.solve_bethe.failures"] = raised["bethe.solve_bethe"]
    out["bethe.seed_accept_ratio"] = ratio(kinds["primitive"], classify_solves)
    out["bethe.subset_seed_candidates.s"] = self_s["bethe.subset_seed_candidates"]
    out["bethe.continue_twist.calls"] = n["bethe.continue_twist"]
    out["bethe.continue_twist.s"] = self_s["bethe.continue_twist"]
    out["bethe.tau_eigenvalue.calls"] = n["bethe.tau_eigenvalue"]

    out["formfactors.universal_form_factor.calls"] = n["formfactors.universal_form_factor"]
    out["formfactors.universal_form_factor.s"] = self_s["formfactors.universal_form_factor"]
    for fn in FF_FUNCTIONS:
        out[f"formfactors.{fn}.s"] = self_s[f"formfactors.{fn}"]
    for family in FAMILIES:
        out[f"formfactors.{family}.headroom_decades"] = headroom.get(family)
    out["formfactors.trivial_rows"] = trivial

    out["graded.GradedMatrix.calls"] = n["graded.GradedMatrix"]
    out["graded.GradedMatrix.s"] = self_s["graded.GradedMatrix"]
    out["graded.permutation_between.calls"] = n["graded.permutation_between"]
    out["graded.permutation_between.s"] = self_s["graded.permutation_between"]
    out["graded.graded_commutator.s"] = self_s["graded.graded_commutator"]

    for check in CHECKS:
        name = f"cli.check.{check}"
        out[f"{name}.s"] = wall_s[name]
        out[f"{name}.rows"] = rows_by_check[name]
        out[f"{name}.peak_alloc_mb"] = peak[name] / MB
    out["cli.emit_report.s"] = wall_s["cli.emit_report"]
    return out
