from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import itertools

from gradedbethe.bethe import BetheRoots, bethe_residual, fit_roots_to_samples, \
    subset_seed_candidates
from gradedbethe.chain import ChainSpec, TwistConfig, monodromy_entries, sector_indices, \
    sector_step, transfer_blocks, zero_mode_entry
from gradedbethe.spectrum import (
    MatchError,
    _sector_eigenbasis,
    classify_spectrum,
    default_probes,
    diagonalize_transfer,
    match_roots_to_state,
    sandwich,
    sector_labels_from_zero_modes,
)

from conftest import TESTED_SECTORS, embed, primitive_pairs
from oracles import all_sectors, dense


def test_single_site_spectrum():
    # M = 1: three states, all in the vacuum multiplet, one per sector
    spec = ChainSpec(M=1)
    dec = diagonalize_transfer(spec, sectors=all_sectors(spec))
    assert len(dec.states) == 3
    assert sorted(s.sector for s in dec.states) == [(0, 0), (1, 0), (1, 1)]
    w = default_probes()[0]
    tau_vac = spec.lam(1, w) + spec.lam(2, w) - spec.lam(3, w)
    for st in dec.states:
        assert abs(st.tau_samples[0] - tau_vac) < 1e-12


def test_sector_indices_partition(spec4):
    sectors = sector_indices(spec4)
    total = sum(ix.size for ix in sectors.values())
    assert total == 3 ** spec4.M
    assert sectors[(0, 0)].size == 1
    assert sectors[(1, 0)].size == 4
    assert sectors[(2, 1)].size == 12
    assert (0, 1) not in sectors  # empty weight space


def test_eigenvalue_consistency_across_probes(dec4):
    # commuting family: sandwiching fixed eigenvectors at other probes gives
    # the same eigenvalue to machine precision
    assert dec4.consistency < 1e-9


def test_left_right_residuals(spec4, dec4):
    for st in dec4.states[:20]:
        if st.clustered:
            continue
        for q, w in enumerate(default_probes()):
            t = dense(spec4, transfer_blocks(spec4, w, sectors=all_sectors(spec4)))
            scale = max(1.0, abs(st.tau_samples[q]))
            r, l = embed(spec4, st.sector, st.right), embed(spec4, st.sector, st.left)
            right = np.linalg.norm(t @ r - st.tau_samples[q] * r) / scale
            left = np.linalg.norm(l @ t - st.tau_samples[q] * l) / scale
            assert right < 1e-8 and left < 1e-8


def test_biorthogonality_of_distinct_states(dec4):
    states = [s for s in dec4.by_sector((1, 0)) if not s.clustered]
    for i, si in enumerate(states):
        for sj in states[i + 1:]:
            num = abs(si.left @ sj.right)
            den = np.linalg.norm(si.left) * np.linalg.norm(sj.right)
            assert num / den < 1e-8


def test_match_empty_roots_is_vacuum(dec4):
    pair = match_roots_to_state(dec4, BetheRoots())
    assert pair.sector == (0, 0)


def test_match_rejects_perturbed_roots(spec4, dec4, pairs4):
    good = primitive_pairs(pairs4, (1, 0))[0].roots
    bad = BetheRoots(u=(good.u[0] + 0.1,))
    with pytest.raises(MatchError):
        match_roots_to_state(dec4, bad)


def test_every_solution_matches_exactly_one_state(dec4, classified4):
    # completeness at the tested sectors: each primitive's roots match back
    # to their own state and to no other
    for st in classified4:
        if st.kind != "primitive":
            continue
        pair = match_roots_to_state(dec4, st.roots)
        assert pair.sector == st.sector
        assert np.abs(pair.tau_samples - st.tau_samples).max() < 1e-9
        # the matched state is the classified one: same vectors, same roots
        assert pair.right is st.right and pair.left is st.left
        assert pair.roots is st.roots and pair.kind == "primitive"


def test_classified_states_are_the_decomposition_states_with_roots(dec4, classified4):
    # classification attaches roots to dec4's own states, and a state's kind
    # follows from its roots and cluster flag alone
    assert len(classified4) == sum(len(dec4.by_sector(s)) for s in TESTED_SECTORS)
    originals = {id(st.right): st for st in dec4.states}
    for st in classified4:
        original = originals[id(st.right)]
        assert st.left is original.left and st.sector == original.sector
        if st.clustered:
            assert st.roots is None and st.kind == "cluster"
        elif st.roots is None:
            assert st.kind == "unresolved"
        elif st.roots.n_u_inf or st.roots.n_v_inf:
            assert st.kind == "descendant"
        else:
            assert st.kind == "primitive"
    assert {st.kind for st in classified4} == {"primitive", "descendant", "cluster"}


def test_sector_labels_from_zero_modes(spec4, classified4):
    for st in classified4:
        if st.kind not in ("primitive", "descendant"):
            continue
        assert sector_labels_from_zero_modes(spec4, st) == st.roots.sector


def test_zero_mode_diagonal_action_on_matched_states(spec4, dec4, classified4):
    # T_11[0] B = (lambda_1[0] - a) B and cyclic, as operator actions
    every = all_sectors(spec4)
    zm = [dense(spec4, zero_mode_entry(spec4, i, i, sectors=every)) for i in (1, 2, 3)]
    for pair in classified4[:12]:
        if pair.kind not in ("primitive", "descendant"):
            continue
        a, b = pair.sector
        expect = {0: spec4.lam_zero_mode(1) - a,
                  1: spec4.lam_zero_mode(2) + a - b,
                  2: spec4.lam_zero_mode(3) - b}
        right = embed(spec4, pair.sector, pair.right)
        for i, val in expect.items():
            img = zm[i] @ right
            assert np.linalg.norm(img - val * right) < 1e-8 * np.linalg.norm(right)


def test_dual_annihilation_for_primitive_duals(dec4, classified4):
    # C_{a+1,b} T_12[0] = 0 for finite-root dual states
    t12 = dense(dec4.spec, zero_mode_entry(dec4.spec, 1, 2, sectors=all_sectors(dec4.spec)))
    for pair in classified4:
        if pair.kind != "primitive" or pair.sector[0] < 1:
            continue
        left = embed(dec4.spec, pair.sector, pair.left)
        resid = np.linalg.norm(left @ t12) / np.linalg.norm(left)
        assert resid < 1e-8


def test_pairing_and_rescale(classified4):
    pair = next(st for st in classified4 if st.kind == "primitive")
    base = pair.pairing
    assert abs(base) > 1e-12 * np.linalg.norm(pair.left) * np.linalg.norm(pair.right)
    scaled = pair.rescaled(3.0 - 1.0j, 0.5j)
    assert scaled.pairing == pytest.approx(base * (3.0 - 1.0j) * 0.5j)
    assert scaled.roots is pair.roots and scaled.kind == "primitive"


def test_cross_pairing_vanishes(classified4):
    p0, p1 = [st for st in classified4 if st.kind == "primitive" and st.sector == (1, 0)][:2]
    num = abs(p0.left @ p1.right)
    assert num / (np.linalg.norm(p0.left) * np.linalg.norm(p1.right)) < 1e-8


def test_twisted_decomposition_perturbs_continuously(spec4, dec4):
    twist = TwistConfig((1 + 1e-5, 1.0, 1.0))
    dec_tw = diagonalize_transfer(replace(spec4, twist=twist), sectors=all_sectors(spec4))
    base = sorted(dec4.by_sector((1, 0)), key=lambda s: (s.tau_samples[0].real,
                                                         s.tau_samples[0].imag))
    moved = sorted(dec_tw.by_sector((1, 0)), key=lambda s: (s.tau_samples[0].real,
                                                            s.tau_samples[0].imag))
    for b, m in zip(base, moved):
        rel = abs(b.tau_samples[0] - m.tau_samples[0]) / abs(b.tau_samples[0])
        assert rel < 1e-3


@pytest.mark.parametrize("sector", [(1, 0), (2, 1)])
def test_restricted_diagonalization_matches_full_sectors(sector):
    spec = ChainSpec(M=4, twist=TwistConfig((1.01, 1.0, 0.99)))
    full = diagonalize_transfer(spec, sectors=all_sectors(spec)).by_sector(sector)
    part = diagonalize_transfer(spec, sectors=[sector])
    assert {s.sector for s in part.states} == {sector}
    assert len(part.states) == len(full) > 0
    for a, b in zip(part.states, full):
        assert np.array_equal(a.right, b.right)
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.tau_samples, b.tau_samples)
        assert a.clustered == b.clustered


def test_twisted_classification_seeds_at_the_spec_twist():
    # the TQ fit and the subset seeds read the twist off the spec: every root
    # set they reach solves the twisted Bethe equations
    spec = ChainSpec(M=4, twist=TwistConfig((1.01, 1.0, 0.99)))
    dec = diagonalize_transfer(spec, sectors=all_sectors(spec))
    states = classify_spectrum(dec, sectors=[(1, 0), (2, 1)])
    solved = [st for st in states if st.roots is not None]
    assert {st.sector for st in solved} == {(1, 0), (2, 1)}
    assert len(solved) == 14 and all(st.kind == "primitive" for st in solved)
    for st in solved:
        assert np.abs(bethe_residual(st.roots, spec)).max() < 1e-12


def test_each_subset_seed_is_polished_once_per_sector(monkeypatch):
    # the states of a sector walk one shared list of polished seeds, so no
    # seed is polished twice; polishing them per state took 21 Newton solves
    # in sector (2,1) at M=5, for its 6 seeds
    from gradedbethe import spectrum

    spec = ChainSpec(M=5)
    sectors = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
    dec = diagonalize_transfer(spec, sectors=sectors)
    calls = []
    original = spectrum.solve_bethe

    def counted(seed, *args, **kwargs):
        calls.append(seed.sector)
        return original(seed, *args, **kwargs)

    monkeypatch.setattr(spectrum, "solve_bethe", counted)
    states = classify_spectrum(dec, sectors=sectors)
    n_seeds = len(list(subset_seed_candidates((2, 1), spec)))
    assert n_seeds == 6 and 0 < calls.count((2, 1)) <= n_seeds
    assert sum(st.kind == "primitive" for st in states if st.sector == (2, 1)) > 0


def test_b0_sectors_draw_no_subset_seeds(monkeypatch):
    # a b = 0 state tries only its own TQ-fit seed; the subset seeds serve
    # the b >= 1 sectors alone
    from gradedbethe import spectrum

    spec = ChainSpec(M=5)
    sectors = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
    dec = diagonalize_transfer(spec, sectors=sectors)
    drawn = []
    original = spectrum.subset_seed_candidates

    def recorded(sector, *args, **kwargs):
        drawn.append(sector)
        return original(sector, *args, **kwargs)

    monkeypatch.setattr(spectrum, "subset_seed_candidates", recorded)
    classify_spectrum(dec, sectors=sectors)
    assert drawn and all(b >= 1 for _, b in drawn)


def test_census_of_every_sector():
    # every one of the 3^5 states is classified; at kappa = 1 the split is the
    # census ROADMAP records for M=5, and at a small twist every state is
    # primitive or unresolved
    for kappa, census in [((1.0, 1.0, 1.0),
                           {"primitive": 23, "descendant": 142, "cluster": 66, "unresolved": 12}),
                          ((1.01, 1.0, 0.99), {"primitive": 127, "unresolved": 116})]:
        spec = ChainSpec(M=5, twist=TwistConfig(kappa))
        states = classify_spectrum(diagonalize_transfer(spec, sectors=all_sectors(spec)))
        kinds = Counter(st.kind for st in states)
        assert kinds == census
        assert sum(kinds.values()) == 3 ** spec.M


def _tau_fn(spec, st):
    """A state's eigenvalue function, read off the transfer matrix on its sector."""
    return lambda w: sandwich(st, transfer_blocks(spec, w, sectors=[st.sector]), st) / st.pairing


@pytest.mark.parametrize("spec", [ChainSpec(M=4), ChainSpec(M=6),
                                  ChainSpec(M=4, twist=TwistConfig((1.01, 1.0, 0.99)))],
                         ids=["M4", "M6", "M4-twisted"])
def test_tq_fit_lands_on_the_classified_roots(spec):
    # the unpolished linear TQ fit already sits on the roots Newton polishes
    sectors = [(1, 0), (2, 0)]
    dec = diagonalize_transfer(spec, sectors=[(0, 0)] + sectors)
    prims = [st for st in classify_spectrum(dec, sectors=sectors) if st.kind == "primitive"]
    assert {st.sector for st in prims} == set(sectors)
    for st in prims:
        fit = fit_roots_to_samples(st.sector[0], _tau_fn(spec, st), spec)
        assert fit is not None and fit.sector == st.sector
        gap = min(max(abs(x - y) for x, y in zip(order, st.roots.u))
                  for order in itertools.permutations(fit.u))
        assert gap < 1e-10


def test_tq_fit_of_no_roots_is_empty(spec4, dec4):
    vac, = dec4.by_sector((0, 0))
    assert fit_roots_to_samples(0, _tau_fn(spec4, vac), spec4) == BetheRoots()


def test_descendants_carry_infinite_roots(classified4):
    d11 = [st for st in classified4 if st.sector == (1, 1) and st.kind == "descendant"]
    assert len(d11) == 4
    for c in d11:
        assert c.roots.b == 1
        # the vacuum descendant has both roots at infinity, the others only v
        assert c.roots.n_v_inf == 1


def test_forced_clusters_only_in_multiplet_sectors(classified4):
    clusters = {st.sector for st in classified4 if st.kind == "cluster"}
    assert clusters == {(2, 1)}


def test_probe_formula(spec4):
    probes = default_probes()
    assert probes.shape == (5,)
    assert probes[0] == pytest.approx(1.7 + 0.41j)


def test_states_live_on_their_own_sector():
    # every vector holds one coordinate per basis index of its sector,
    # so the states of a sector of size |G| take |G|^2 entries per side
    spec = ChainSpec(M=5)
    dec = diagonalize_transfer(spec, sectors=all_sectors(spec))
    groups = sector_indices(spec).values()
    assert len(dec.states) == 3 ** spec.M
    for side in ("right", "left"):
        assert sum(getattr(st, side).size for st in dec.states) == sum(g.size ** 2 for g in groups)


def test_sandwich_across_sectors_is_zero(spec4, dec4):
    # (1,1) and (1,0) both hold M = 4 states, so a bare product of their vectors
    # is defined and nonzero; the matrix element itself vanishes by content
    c = dec4.by_sector((1, 1))[0]
    b = dec4.by_sector((1, 0))[0]
    assert c.left.size == b.right.size == spec4.M
    assert abs(c.left @ b.right) > 1e-3 * np.linalg.norm(c.left) * np.linalg.norm(b.right)
    diagonal = transfer_blocks(spec4, 2.1 + 0.4j, sectors=all_sectors(spec4))
    assert sandwich(c, None, b) == 0
    assert sandwich(c, diagonal, b) == 0
    assert sandwich(c, zero_mode_entry(spec4, 3, 3, sectors=all_sectors(spec4)), b) == 0
    # and the sector check passes the matrix elements the step allows
    up = zero_mode_entry(spec4, 2, 3, sectors=all_sectors(spec4))
    expect = embed(spec4, c.sector, c.left) @ dense(spec4, up) @ embed(spec4, b.sector, b.right)
    assert abs(sandwich(c, up, b) - expect) < 1e-12 * abs(expect)
    assert abs(expect) > 1e-6


@pytest.mark.parametrize("m_sites", [3, 4, 5])
@pytest.mark.parametrize("twisted", [False, True])
def test_left_rows_are_unit_biorthogonal_eigenvectors(m_sites, twisted):
    # every non-clustered state: left . T = lambda left on its sector block at
    # the first probe, unit vectors on both sides, and a diagonal pairing matrix
    spec = ChainSpec(M=m_sites)
    if twisted:
        spec = ChainSpec(M=m_sites, twist=TwistConfig((1.3, 0.8 + 0.1j, 1.1)))
    dec = diagonalize_transfer(spec, sectors=all_sectors(spec))
    blocks = transfer_blocks(spec, default_probes()[0], sectors=all_sectors(spec))
    for sector in sector_indices(spec):
        safe = [st for st in dec.by_sector(sector) if not st.clustered]
        if not safe:
            continue
        t = blocks[sector][1]
        for st in safe:
            lam = st.tau_samples[0]
            assert np.linalg.norm(st.left @ t - lam * st.left) / max(1.0, abs(lam)) <= 1e-12
            assert abs(np.linalg.norm(st.left) - 1) <= 1e-12
            assert abs(np.linalg.norm(st.right) - 1) <= 1e-12
        pairings = np.array([st.left for st in safe]) @ np.array([st.right for st in safe]).T
        assert np.abs(pairings - np.diag(np.diag(pairings))).max() <= 1e-12


def test_singular_eigenvectors_flag_clusters_without_raising():
    # a 2x2 Jordan block: the two computed eigenvectors are parallel to working
    # precision, so both states are flagged
    _, _, _, pairing, clustered = _sector_eigenbasis(np.array([[2.0, 1.0], [0.0, 2.0]],
                                                              dtype=complex), 1e-8)
    assert clustered.all() and np.abs(pairing).max() < 1e-10
    # the 3x3 nilpotent Jordan block gives an exactly singular vr: zero left
    # rows, zero pairings, every state flagged
    nilpotent = np.eye(3, k=1, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.linalg.eig(nilpotent)[1], np.eye(3))
    _, _, left, pairing, clustered = _sector_eigenbasis(nilpotent, 1e-8)
    assert clustered.all() and not left.any() and not pairing.any()


def test_pairing_is_the_reciprocal_condition_number():
    # [[a, b], [0, d]] has eigenvalue condition number sqrt(1 + |b / (a - d)|^2);
    # at b / (a - d) = 1e11 the eigenvalues are well apart (no cluster_gap
    # flag) and only the vanishing pairing flags the nearly defective pair
    for ratio, flagged in ((10.0, False), (1e11, True)):
        block = np.array([[1.0, ratio * 1e-3], [0.0, 1.001]], dtype=complex)
        w, _, _, pairing, clustered = _sector_eigenbasis(block, 1e-8)
        assert np.allclose(w, [1.0, 1.001])
        assert np.allclose(np.abs(pairing), 1 / np.sqrt(1 + ratio**2), rtol=1e-6)
        assert list(clustered) == [flagged, flagged]


def loop_cluster_flags(w0, pairing, cluster_gap):
    """The pairwise loop the cluster flags were first computed with."""
    scale0 = max(1.0, float(np.abs(w0).max()))
    clustered = np.abs(pairing) < 1e-10
    for i in range(w0.size):
        for j in range(i + 1, w0.size):
            if abs(w0[i] - w0[j]) < cluster_gap * scale0:
                clustered[i] = clustered[j] = True
    return clustered


@pytest.mark.parametrize("m_sites", [3, 4, 5, 6])
def test_cluster_flags_equal_the_pairwise_loop(m_sites):
    spec = ChainSpec(M=m_sites)
    blocks = transfer_blocks(spec, default_probes()[0], sectors=all_sectors(spec))
    by_gap = 0
    for sector in sector_indices(spec):
        block = blocks[sector][1]
        # the default gap, and wider ones that flag neighbours in most sectors
        for gap in (1e-8, 1e-3, 1e-1):
            w0, _, _, pairing, clustered = _sector_eigenbasis(block, gap)
            assert np.array_equal(clustered, loop_cluster_flags(w0, pairing, gap))
            by_gap += int((clustered & (np.abs(pairing) >= 1e-10)).sum())
    assert by_gap > 0


def test_cluster_flags_on_a_near_degenerate_block():
    # eigenvalues in pairs 5e-9, 4e-8 and 2e-8 apart under a fixed similarity;
    # the scale is 3, so the threshold is 3e-8 and only the middle pair is apart
    w = np.array([1, 1 + 5e-9, 2, 2 + 4e-8, 3, 3 + 2e-8], dtype=complex)
    rng = np.random.default_rng(3)
    basis = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 4 * np.eye(6)
    block = basis @ np.diag(w) @ np.linalg.inv(basis)
    w0, _, _, pairing, clustered = _sector_eigenbasis(block, 1e-8)
    assert np.abs(pairing).min() > 1e-3
    assert list(clustered) == [True, True, False, False, True, True]
    assert np.array_equal(clustered, loop_cluster_flags(w0, pairing, 1e-8))


@pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5])
def test_sector_indices_match_digit_count(m_sites):
    # brute force: read every basis index digit by digit; then every block of
    # T_ij and of T_ij[0] maps sector s onto s + sector_step(i, j), between
    # those two sectors' index sets
    spec = ChainSpec(M=m_sites)
    oracle = {}
    for index in range(3 ** spec.M):
        digits = [(index // 3**t) % 3 for t in range(m_sites)]
        sector = (m_sites - digits.count(0), digits.count(2))
        oracle.setdefault(sector, []).append(index)
    got = sector_indices(spec)
    assert list(got) == sorted(oracle)
    for sector, indices in oracle.items():
        assert got[sector].tolist() == indices
    every = list(oracle)
    entries = monodromy_entries(spec, 1.7 - 0.6j, itertools.product((1, 2, 3), repeat=2),
                                sectors=every)
    for i, j in itertools.product((1, 2, 3), repeat=2):
        da, db = sector_step(i, j)
        moved = {s: (s[0] + da, s[1] + db) for s in every}
        for op in (entries[i, j], zero_mode_entry(spec, i, j, sectors=every)):
            assert {s: image for s, (image, _) in op.items()} == {
                s: image for s, image in moved.items() if image in oracle}
            for s, (image, blk) in op.items():
                assert blk.shape == (len(oracle[image]), len(oracle[s]))
