"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line; run with ``pytest -s`` to see them
inline.  The shared M=4 fixtures come from conftest; criterion 2 builds its
own M=5 chain inside the timed block.
"""

import time

import numpy as np

from gradedbethe.bethe import continue_twist
from gradedbethe.chain import (
    ChainSpec,
    verify_rtt,
    yang_baxter_residual,
)
from gradedbethe.cli import Scenario, default_scenario_dict, run_scenario
from gradedbethe.formfactors import (
    check_genfun_derivative,
    check_local_corollary,
    check_proposition1,
    check_theorem1,
    check_theorem2,
    twisted_dual_pairs,
    universal_form_factor,
    zero_mode_ladder_checks,
)
from gradedbethe.spectrum import (
    classify_spectrum,
    diagonalize_transfer,
    match_roots_to_state,
    sector_labels_from_zero_modes,
)

from conftest import TESTED_SECTORS, descendant_pairs, primitive_pairs, theorem2, with_ff
from oracles import all_sectors, zero_mode_algebra_worst, zero_modes


def _line(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def test_ac1_rtt_and_ybe_conformance():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_rtt = 0.0
    for m_sites in (1, 2, 3, 4, 5):
        spec = ChainSpec(M=m_sites)
        for _ in range(4):  # 20 pairs across M = 1..5
            u = complex(rng.normal(0, 2), rng.normal(0, 2)) + 3.0
            v = complex(rng.normal(0, 2), rng.normal(0, 2)) - 3.0
            worst_rtt = max(worst_rtt, verify_rtt(spec, u, v))
    worst_ybe = 0.0
    for _ in range(5):
        u, v, w = (complex(rng.normal(0, 2), rng.normal(0, 2)) for _ in range(3))
        worst_ybe = max(worst_ybe, yang_baxter_residual(u + 3, v - 3, w + 1.5j))
    elapsed = time.time() - t0
    ok = worst_rtt < 1e-10 and worst_ybe < 1e-10 and elapsed < 5.0
    _line("AC1 rtt/ybe conformance", ok,
          f"rtt={worst_rtt:.2e} ybe={worst_ybe:.2e} time={elapsed:.2f}s")


def test_ac2_spectrum_match_m5():
    t0 = time.time()
    spec = ChainSpec(M=5)
    dec = diagonalize_transfer(spec, sectors=all_sectors(spec))
    classified = classify_spectrum(dec, sectors=TESTED_SECTORS)
    n_solutions = 0
    labels_ok = True
    for c in classified:
        if c.kind == "unresolved":
            labels_ok = False
        if c.kind != "primitive":
            continue
        n_solutions += 1
        pair = match_roots_to_state(dec, c.roots)  # unique or raises
        if sector_labels_from_zero_modes(spec, pair) != c.roots.sector:
            labels_ok = False
    elapsed = time.time() - t0
    ok = labels_ok and n_solutions >= 10 and elapsed < 30.0
    _line("AC2 spectrum match (M=5)", ok,
          f"{n_solutions} solutions matched uniquely, labels agree, time={elapsed:.1f}s")


def test_ac3_zero_mode_algebra(spec4):
    m = 2
    zm_tot, zm_1, zm_2 = (zero_modes(spec4, sites)
                          for sites in (None, range(1, m + 1), range(m + 1, spec4.M + 1)))
    # every product and bracket composed content by content, in exact integers
    w_total = zero_mode_algebra_worst(zm_tot, zm_tot, zm_tot)    # 81 quadruples
    w_partial = zero_mode_algebra_worst(zm_1, zm_1, zm_1)
    w_mixed = zero_mode_algebra_worst(zm_1, zm_tot, zm_1)        # partial against total
    w_cross = zero_mode_algebra_worst(zm_1, zm_2, None)          # distinct partials supercommute
    ok = w_total == 0.0 and w_partial == 0.0 and w_mixed == 0.0 and w_cross == 0.0
    _line("AC3 zero-mode algebra", ok,
          f"total={w_total} partial={w_partial} mixed={w_mixed} cross={w_cross}")


def _theorem1_pair_plan(pairs4):
    p00 = primitive_pairs(pairs4, (0, 0))
    p10 = primitive_pairs(pairs4, (1, 0))
    p20 = primitive_pairs(pairs4, (2, 0))
    p21 = primitive_pairs(pairs4, (2, 1))
    d11 = descendant_pairs(pairs4, (1, 1))
    d11_other = next(d for d in d11
                     if np.abs(d.tau_samples - p10[0].tau_samples).max() > 1e-6)
    return [
        (2, 2, p10[0], p10[1]),
        (1, 1, p10[1], p10[2]),
        (3, 3, p21[0], p21[1]),
        (1, 2, p20[0], p10[0]),
        (2, 1, p00[0], p10[0]),
        (1, 3, p21[0], p10[0]),
        (2, 3, d11_other, p10[0]),
        (3, 2, p10[0], d11_other),
    ]


def test_ac4_theorem1(spec4, pairs4):
    plan = _theorem1_pair_plan(pairs4)
    worst = 0.0
    nonzero = 0
    for (i, j, pc, pb) in plan:
        ff = universal_form_factor(spec4, pc, pb, i, j)
        for m in range(1, spec4.M):
            rep = check_theorem1(spec4, pc, pb, i, j, m, ff=ff)
            loc = check_local_corollary(spec4, pc, pb, i, j, m, ff=ff)
            assert rep.verdict != "fail", (i, j, m, rep.rel_residual)
            assert loc.verdict != "fail", (i, j, m, loc.rel_residual)
            if rep.verdict == "pass":
                nonzero += 1
                worst = max(worst, rep.rel_residual, loc.rel_residual)
    ok = worst < 1e-8 and nonzero >= 6 and len(plan) >= 6
    _line("AC4 theorem 1 + local corollary", ok,
          f"{len(plan)} pairs, {nonzero} nonzero instances, worst={worst:.2e}")


def test_ac5_theorem2(spec4, pairs4):
    pairs = [primitive_pairs(pairs4, (1, 0))[0], descendant_pairs(pairs4, (1, 1))[0]]
    worst = 0.0
    worst_fd = 0.0
    for pair in pairs:
        for i in (1, 2, 3):
            traj = continue_twist(pair.roots, spec4, direction=i, delta=1e-5)
            traj_fine = continue_twist(pair.roots, spec4, direction=i, delta=1e-6)
            for m in range(1, spec4.M):
                rep = check_theorem2(spec4, pair, i, m, trajectory=traj)
                assert rep.verdict != "fail", (pair.sector, i, m, rep.rel_residual)
                if rep.verdict == "pass":
                    worst = max(worst, rep.rel_residual)
            d5 = traj.dlog_ell_ratio(spec4, spec4.M - 1)
            d6 = traj_fine.dlog_ell_ratio(spec4, spec4.M - 1)
            if abs(d5) > 1e-6:
                worst_fd = max(worst_fd, abs(d5 - d6) / abs(d5))
    ok = worst < 1e-5 and worst_fd < 1e-3
    _line("AC5 theorem 2 (both sectors, all i, all m)", ok,
          f"worst={worst:.2e} fd-consistency={worst_fd:.2e}")


def test_ac6_proposition1(spec4, pairs4):
    p10 = primitive_pairs(pairs4, (1, 0))
    p21 = primitive_pairs(pairs4, (2, 1))
    worst_p1 = 0.0
    worst_gf = 0.0
    for i in (1, 2, 3):
        beta = [0.0, 0.0, 0.0]
        beta[i - 1] = 1e-2
        pc, pb = (p21[0], p21[1]) if i == 3 else (p10[0], p10[1])
        tp, = twisted_dual_pairs(spec4, [pc], tuple(beta))
        rep = check_proposition1(spec4, tp, pb, tuple(beta), 2)
        assert rep.verdict == "pass", (i, rep.rel_residual)
        worst_p1 = max(worst_p1, rep.rel_residual)

        gf = check_genfun_derivative(spec4, pc, pb, i, 2)
        assert gf.verdict == "pass", (i, gf.rel_residual)
        worst_gf = max(worst_gf, gf.rel_residual)

    # beta = 0 degenerates to on-shell orthogonality
    cross = abs(p10[0].left @ p10[1].right)
    cross /= np.linalg.norm(p10[0].left) * np.linalg.norm(p10[1].right)
    ok = worst_p1 < 1e-7 and worst_gf < 1e-5 and cross < 1e-8
    _line("AC6 proposition 1 + generating functional", ok,
          f"worst={worst_p1:.2e} derivative={worst_gf:.2e} orthogonality={cross:.2e}")


def test_ac7_ladder_relations(spec4, pairs4):
    p10 = primitive_pairs(pairs4, (1, 0))
    p20 = primitive_pairs(pairs4, (2, 0))
    d11 = descendant_pairs(pairs4, (1, 1))
    d_other = next(d for d in d11
                   if np.abs(d.tau_samples - p10[0].tau_samples).max() > 1e-6)
    reports = []
    reports += zero_mode_ladder_checks(spec4, p20[0], p10[0], 2, (2, 2, 1, 2))
    reports += zero_mode_ladder_checks(spec4, d_other, p10[0], 2, (2, 2, 2, 3))
    reports += zero_mode_ladder_checks(spec4, p10[0], p10[1], 2, (1, 2, 2, 1))
    worst_comm = max(r.rel_residual for r in reports if "commutator" in r.identity)
    worst_ann = max(r.rel_residual for r in reports if "annihilation" in r.identity)
    worst_eig = max(r.rel_residual for r in reports if "eigenvector" in r.identity)
    n_comm = sum(1 for r in reports if "commutator" in r.identity)
    ok = worst_comm < 1e-10 and worst_ann < 1e-8 and worst_eig < 1e-8 and n_comm == 3
    _line("AC7 ladder relations", ok,
          f"commutators={worst_comm:.2e} annihilation={worst_ann:.2e} raising={worst_eig:.2e}")


def test_ac8_scale_invariance(spec4, pairs4):
    p10 = primitive_pairs(pairs4, (1, 0))
    p20 = primitive_pairs(pairs4, (2, 0))
    rng = np.random.default_rng(808)

    def run(pairs):
        a, b, c = pairs
        out = []
        out.append(with_ff(check_theorem1, spec4, a, b, 2, 2, 2))
        out.append(with_ff(check_theorem1, spec4, c, a, 1, 2, 3))
        out.append(with_ff(check_local_corollary, spec4, a, b, 2, 2, 2))
        out.append(theorem2(spec4, a, 1, 2))
        out.extend(zero_mode_ladder_checks(spec4, c, a, 2, (2, 2, 1, 2)))
        return out

    base = run((p10[0], p10[1], p20[0]))
    worst = 0.0
    for _ in range(10):
        scales = [complex(*rng.normal(size=2)) for _ in range(6)]
        rescaled = (
            p10[0].rescaled(scales[0], scales[1]),
            p10[1].rescaled(scales[2], scales[3]),
            p20[0].rescaled(scales[4], scales[5]),
        )
        redo = run(rescaled)
        for r0, r1 in zip(base, redo):
            assert r0.verdict == r1.verdict, (r0.identity, r0.verdict, r1.verdict)
            worst = max(worst, abs(r0.rel_residual - r1.rel_residual))
    ok = worst < 1e-12
    _line("AC8 scale invariance (10 draws)", ok, f"max residual drift={worst:.2e}")


def test_ac9_determinism_and_runtime(tmp_path):
    cfg = default_scenario_dict(m=4, seed=7)
    t0 = time.time()
    code1, _ = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "run1"))
    code2, _ = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "run2"))
    elapsed = time.time() - t0
    same = True
    for name in ("reports.jsonl", "summary.txt"):
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        same = same and b1 == b2
    ok = code1 == 0 and code2 == 0 and same and elapsed < 120.0
    _line("AC9 determinism + runtime", ok,
          f"exit={code1}/{code2} byte-identical={same} two runs in {elapsed:.1f}s")
