from dataclasses import replace

import numpy as np
import pytest

from gradedbethe.bethe import bethe_residual, continue_twist, tau_eigenvalue
from gradedbethe.chain import ChainSpec, TwistConfig, monodromy_entries, sector_step, \
    transfer_blocks, zero_mode_entry
from gradedbethe.formfactors import (
    SelectionRuleZero,
    check_genfun_derivative,
    check_local_corollary,
    check_proposition1,
    check_theorem1,
    generating_functional,
    partial_zero_mode_ff,
    twisted_dual_pairs,
    universal_form_factor,
    zero_mode_ladder_checks,
    _zeta,
)
from gradedbethe.graded import FUNDAMENTAL_PARITIES
from gradedbethe.spectrum import default_probes, diagonalize_transfer, sandwich
from conftest import descendant_pairs, embed, primitive_pairs, theorem2, with_ff
from oracles import all_sectors, dense


@pytest.fixture(scope="module")
def p10(pairs4):
    return primitive_pairs(pairs4, (1, 0))


@pytest.fixture(scope="module")
def p20(pairs4):
    return primitive_pairs(pairs4, (2, 0))


@pytest.fixture(scope="module")
def p21(pairs4):
    return primitive_pairs(pairs4, (2, 1))


@pytest.fixture(scope="module")
def d11(pairs4):
    return descendant_pairs(pairs4, (1, 1))


@pytest.fixture(scope="module")
def vacuum_pair(pairs4):
    return primitive_pairs(pairs4, (0, 0))[0]


def other_descendant(d11, bpair):
    """A (1,1) descendant whose eigenvalue differs from bpair's."""
    for d in d11:
        if np.abs(d.tau_samples - bpair.tau_samples).max() > 1e-6:
            return d
    raise AssertionError("no distinct descendant available")


# -- matrix elements -------------------------------------------------------------


def test_matrix_element_transfer_gives_tau(spec4, p10):
    pair = p10[0]
    w = default_probes()[2]
    t = dense(spec4, transfer_blocks(spec4, w, sectors=all_sectors(spec4)))
    val = embed(spec4, pair.sector, pair.left) @ t @ embed(spec4, pair.sector, pair.right)
    assert val == pytest.approx(pair.tau_samples[2] * pair.pairing, rel=1e-10)


# -- universal form factors ---------------------------------------------------------


def test_sector_steps():
    assert sector_step(2, 2) == (0, 0)
    assert sector_step(1, 2) == (1, 0)
    assert sector_step(2, 1) == (-1, 0)
    assert sector_step(2, 3) == (0, 1)
    assert sector_step(1, 3) == (1, 1)
    assert sector_step(3, 1) == (-1, -1)
    assert sector_step(3, 2) == (0, -1)


def test_universal_ff_z_independence(spec4, p10):
    # <C|T_22(z)|B> / (tau_C(z) - tau_B(z)) at three points agrees with the
    # universal form factor, which reads it at a point of its own
    pc, pb = p10[0], p10[1]
    ff = universal_form_factor(spec4, pc, pb, 2, 2)
    for z in (2.5 + 0.9j, -1.4 + 2.1j, 0.4 - 1.8j):
        t22 = monodromy_entries(spec4, z, [(2, 2)], sectors=[pb.sector])[2, 2]
        dtau = tau_eigenvalue(z, pc.roots, spec4) - tau_eigenvalue(z, pb.roots, spec4)
        assert abs(sandwich(pc, t22, pb) / dtau - ff) < 1e-8 * abs(ff)


def test_universal_ff_selection_rule(spec4, p10, p20):
    with pytest.raises(SelectionRuleZero):
        universal_form_factor(spec4, p20[0], p10[0], 2, 2)
    # the underlying matrix element itself vanishes for the wrong step
    t22 = dense(spec4, monodromy_entries(spec4, 1.3 + 0.8j, [(2, 2)],
                                          sectors=all_sectors(spec4))[2, 2])
    val = embed(spec4, (2, 0), p20[0].left) @ t22 @ embed(spec4, (1, 0), p10[0].right)
    scale = np.linalg.norm(p20[0].left) * np.linalg.norm(p10[0].right)
    assert abs(val) < 1e-10 * scale


def test_universal_ff_scales_with_vectors(spec4, p10):
    base = universal_form_factor(spec4, p10[0], p10[1], 2, 2)
    scaled = universal_form_factor(spec4, p10[0].rescaled(1.0, 2.0j),
                                   p10[1].rescaled(-0.5, 1.0), 2, 2)
    assert scaled == pytest.approx(base * 2.0j * (-0.5), rel=1e-12)


def test_universal_ff_rejects_equal_eigenvalues(spec4, p10):
    with pytest.raises(ValueError):
        universal_form_factor(spec4, p10[0], p10[0], 2, 2)


# -- partial zero-mode form factors ---------------------------------------------------


def test_partial_zero_mode_full_range_diagonal(spec4, pairs4, p10):
    # m = M, same state: <C|T_ii[0]|B>/<C|B> equals the sector eigenvalues
    pair = p10[0]
    a, b = pair.sector
    cb = pair.pairing
    lam = [spec4.lam_zero_mode(k) for k in (1, 2, 3)]
    assert partial_zero_mode_ff(spec4, pair, pair, 1, 1, spec4.M) / cb \
        == pytest.approx(lam[0] - a, abs=1e-10)
    assert partial_zero_mode_ff(spec4, pair, pair, 2, 2, spec4.M) / cb \
        == pytest.approx(lam[1] + a - b, abs=1e-10)
    assert partial_zero_mode_ff(spec4, pair, pair, 3, 3, spec4.M) / cb \
        == pytest.approx(lam[2] - b, abs=1e-10)


def test_partial_zero_mode_empty_range(spec4, p10):
    assert partial_zero_mode_ff(spec4, p10[0], p10[1], 1, 2, 0) == 0


def test_local_operator_is_zero_mode_difference(spec4, p10, p20):
    for m in (1, 2, 3):
        t12 = dense(spec4, zero_mode_entry(spec4, 1, 2, [m], sectors=all_sectors(spec4)))
        direct = embed(spec4, (2, 0), p20[0].left) @ t12 @ embed(spec4, (1, 0), p10[0].right)
        diff = partial_zero_mode_ff(spec4, p20[0], p10[0], 1, 2, m) \
            - partial_zero_mode_ff(spec4, p20[0], p10[0], 1, 2, m - 1)
        assert abs(direct - diff) < 1e-12 * max(1.0, abs(direct))


def test_selection_rule_zero_for_mismatched_sectors(spec4, p10, p20):
    scale = np.linalg.norm(p20[0].left) * np.linalg.norm(p10[0].right)
    # (2,2) between sectors differing in a
    assert abs(partial_zero_mode_ff(spec4, p20[0], p10[0], 2, 2, 2)) < 1e-10 * scale
    assert abs(partial_zero_mode_ff(spec4, p20[0], p10[0], 2, 3, 2)) < 1e-10 * scale


# -- zeta factors -----------------------------------------------------------------------


def test_zeta_factor_structure(spec4, p10, p20):
    rc, rb = p20[0].roots, p10[0].roots
    zero = _zeta(spec4, rc, rb, range(1, 1))
    assert zero == pytest.approx(1.0)
    for m in (1, 2, 3, 4):
        rho = _zeta(spec4, rc, rb, range(1, m + 1))
        site_factors = [_zeta(spec4, rc, rb, [n]) for n in range(1, m + 1)]
        assert rho == pytest.approx(np.prod(site_factors), rel=1e-12)


# -- theorem 1 ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_theorem1_diagonal_pair(spec4, p10, m):
    rep = with_ff(check_theorem1, spec4, p10[0], p10[1], 2, 2, m)
    assert rep.verdict == "pass"
    assert rep.rel_residual < 1e-8


def test_theorem1_empty_subchain_control(spec4, p10):
    # m = 0: both sides vanish identically and the report says so
    rep = with_ff(check_theorem1, spec4, p10[0], p10[1], 2, 2, 0)
    assert rep.verdict == "trivial"
    assert rep.lhs == 0 and rep.rhs == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_theorem1_offdiagonal_pair(spec4, p10, p20, m):
    rep = with_ff(check_theorem1, spec4, p20[0], p10[0], 1, 2, m)
    assert rep.verdict == "pass"
    assert rep.rel_residual < 1e-8


def test_theorem1_fermionic_pair(spec4, p10, p21):
    rep = with_ff(check_theorem1, spec4, p21[0], p10[0], 1, 3, 2)
    assert rep.verdict == "pass"
    assert rep.rel_residual < 1e-8


def test_theorem1_descendant_dual(spec4, p10, d11):
    dual = other_descendant(d11, p10[0])
    rep = with_ff(check_theorem1, spec4, dual, p10[0], 2, 3, 2)
    assert rep.verdict == "pass"
    assert rep.rel_residual < 1e-8


@pytest.mark.parametrize("m", [1, 2, 3])
def test_local_corollary(spec4, p10, m):
    rep = with_ff(check_local_corollary, spec4, p10[0], p10[1], 2, 2, m)
    assert rep.verdict == "pass"
    assert rep.rel_residual < 1e-8


def test_theorem1_scale_invariance(spec4, p10):
    base = with_ff(check_theorem1, spec4, p10[0], p10[1], 2, 2, 2)
    rng = np.random.default_rng(17)
    for _ in range(4):
        s = complex(rng.normal(), rng.normal())
        t = complex(rng.normal(), rng.normal())
        rep = with_ff(check_theorem1, spec4, p10[0].rescaled(1.0, s),
                      p10[1].rescaled(t, 1.0), 2, 2, 2)
        assert rep.verdict == base.verdict
        assert abs(rep.rel_residual - base.rel_residual) < 1e-12


# -- theorem 2 ---------------------------------------------------------------------------


@pytest.mark.parametrize("i", [1, 2, 3])
def test_theorem2_one_magnon(spec4, p10, i):
    rep = theorem2(spec4, p10[0], i, 2)
    assert rep.verdict in ("pass", "trivial")
    assert rep.rel_residual < 1e-5


@pytest.mark.parametrize("i", [1, 2, 3])
def test_theorem2_descendant_sector(spec4, d11, i):
    # sector (1,1) exercises the odd-index sign through the descendant states
    rep = theorem2(spec4, d11[0], i, 2)
    assert rep.verdict in ("pass", "trivial")
    assert rep.rel_residual < 1e-5


def test_theorem2_vacuum_trivial(spec4, vacuum_pair):
    # empty root sets: the derivative term vanishes and the form factor is
    # exactly the vacuum zero-mode coefficient
    rep = theorem2(spec4, vacuum_pair, 1, 2)
    assert rep.verdict in ("pass", "trivial")
    assert rep.lhs == pytest.approx(2.0)
    assert rep.rhs == pytest.approx(2.0)


def test_theorem2_sign_flip_matters(spec4, d11):
    # flipping the supersymmetric sign for i = 3 must break the identity
    pair = d11[0]
    traj = continue_twist(pair.roots, spec4, direction=3, delta=1e-5)
    lhs = partial_zero_mode_ff(spec4, pair, pair, 3, 3, 2) / pair.pairing
    dlog = traj.dlog_ell_ratio(spec4, 2)
    good = spec4.lam_zero_mode(3, sites=range(1, 3)) - dlog
    bad = spec4.lam_zero_mode(3, sites=range(1, 3)) + dlog
    assert abs(lhs - good) < 1e-5
    assert abs(lhs - bad) > 1e-2


# -- generating functional and proposition 1 ------------------------------------------------


def test_generating_functional_beta_zero_is_pairing(spec4, p10):
    beta = (0.0, 0.0, 0.0)
    same = generating_functional(spec4, p10[0], p10[0], beta, 2)
    assert same == pytest.approx(p10[0].pairing)
    cross = generating_functional(spec4, p10[0], p10[1], beta, 2)
    assert abs(cross) < 1e-10


def test_generating_functional_m_zero(spec4, p10):
    beta = (0.2, -0.1j, 0.05)
    val = generating_functional(spec4, p10[0], p10[1], beta, 0)
    assert val == pytest.approx(complex(p10[0].left @ p10[1].right))


def test_generating_functional_full_range_closed_form(spec4, p10):
    # m = M with the state's own dual: the diagonal action gives
    # exp(Q) B = exp(b1 (M-a) + b2 (a-b) + b3 b) B
    beta = (0.013 + 0.004j, -0.02, 0.007j)
    pair = p10[0]
    a, b = pair.sector
    val = generating_functional(spec4, pair, pair, beta, spec4.M)
    expo = beta[0] * (spec4.M - a) + beta[1] * (a - b) + beta[2] * b
    assert val == pytest.approx(np.exp(expo) * pair.pairing, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_generating_functional_matches_expm_of_dense_zero_modes(m):
    # oracle: Q_beta assembled from the dense zero modes and exponentiated
    # entrywise, which is expm since Q_beta is diagonal
    spec = ChainSpec(M=4, twist=TwistConfig((1.3, 0.8 + 0.1j, 1.1)))
    beta = (0.3 + 0.2j, -0.25 + 0.1j, 0.15 - 0.35j)
    every = all_sectors(spec)
    q = sum((-1) ** FUNDAMENTAL_PARITIES[i] * beta[i]
            * dense(spec, zero_mode_entry(spec, i + 1, i + 1, range(1, m + 1), sectors=every))
            for i in range(3))
    assert np.array_equal(q, np.diag(np.diag(q)))
    exp_q = np.diag(np.exp(np.diag(q)))
    states = diagonalize_transfer(spec, sectors=[(2, 1)]).states
    for c, b in ((states[0], states[1]), (states[2], states[2])):
        expect = embed(spec, c.sector, c.left) @ exp_q @ embed(spec, b.sector, b.right)
        scale = np.linalg.norm(c.left) * np.linalg.norm(b.right)
        assert abs(generating_functional(spec, c, b, beta, m) - expect) < 1e-12 * scale


@pytest.mark.parametrize("i", [1, 2, 3])
def test_proposition1_small_twists(spec4, p10, p21, i):
    beta = [0.0, 0.0, 0.0]
    beta[i - 1] = 1e-2
    pc, pb = (p21[0], p21[1]) if i == 3 else (p10[0], p10[1])
    tp, = twisted_dual_pairs(spec4, [pc], tuple(beta))
    rep = check_proposition1(spec4, tp, pb, tuple(beta), 2)
    assert rep.verdict == "pass"
    assert rep.rel_residual < 1e-7
    # same-state version is order one and passes too
    tp_same, = twisted_dual_pairs(spec4, [pb], tuple(beta))
    rep_same = check_proposition1(spec4, tp_same, pb, tuple(beta), 2)
    assert rep_same.verdict == "pass"
    assert abs(rep_same.lhs) > 0.1


def test_twisted_dual_pairs_match_one_state_calls(spec4, p10):
    beta = (1e-2, 0.0, 0.0)
    together = twisted_dual_pairs(spec4, p10[:2], beta)
    for pair, tp in zip(p10[:2], together):
        alone, = twisted_dual_pairs(spec4, [pair], beta)
        assert tp.sector == alone.sector == pair.sector
        assert np.array_equal(tp.left, alone.left) and np.array_equal(tp.right, alone.right)
        assert np.array_equal(tp.tau_samples, alone.tau_samples)


@pytest.mark.parametrize("beta", [(1e-2, 0.0, 0.0), (0.0, 0.0, 1e-2)])
def test_twisted_dual_pairs_solve_the_twisted_equations(spec4, pairs4, p10, beta):
    # the roots attached to each twisted dual solve the Bethe equations of the
    # twisted spec; kappa_3 brings the (1,1) descendant's v-root down from infinity
    pairs = p10[:2] + descendant_pairs(pairs4, (1, 1))[:1]
    twisted = replace(spec4, twist=TwistConfig(tuple(np.exp(b) for b in beta)))
    for tp in twisted_dual_pairs(spec4, pairs, beta):
        assert np.abs(bethe_residual(tp.roots, twisted)).max() < 1e-12
    assert tp.roots.n_v_inf == (beta[2] == 0)


def test_genfun_derivative_consistency(spec4, p21):
    for i in (1, 3):
        rep = check_genfun_derivative(spec4, p21[0], p21[1], i, 2)
        assert rep.verdict == "pass"
        assert rep.rel_residual < 1e-5


# -- ladder relations --------------------------------------------------------------------


def test_ladder_commutator_relations(spec4, p10, p20):
    reps = [rep for quadruple in ((2, 2, 1, 2), (1, 2, 2, 1))
            for rep in zero_mode_ladder_checks(spec4, p20[0], p10[0], 2, quadruple)]
    by_name = {r.identity: r for r in reps}
    assert by_name["ladder-commutator:2212"].rel_residual < 1e-10
    assert by_name["ladder-commutator:1221"].rel_residual < 1e-10
    assert by_name["ladder-dual-annihilation"].rel_residual < 1e-8
    assert by_name["ladder-raising-eigenvector"].rel_residual < 1e-8


def test_ladder_with_descendant_dual(spec4, p10, d11):
    dual = other_descendant(d11, p10[0])
    reps = zero_mode_ladder_checks(spec4, dual, p10[0], 2, (2, 2, 2, 3))
    by_name = {r.identity: r for r in reps}
    assert by_name["ladder-commutator:2223"].rel_residual < 1e-10


def test_raising_image_lands_in_next_sector(spec4, p10):
    # T_12[0] B_{a,b} is an eigenvector with sector (a+1, b)
    pair = p10[0]
    every = all_sectors(spec4)
    img = dense(spec4, zero_mode_entry(spec4, 1, 2, sectors=every)) \
        @ embed(spec4, pair.sector, pair.right)
    assert np.linalg.norm(img) > 1e-8
    for i, expect in ((1, spec4.lam_zero_mode(1) - 2), (3, spec4.lam_zero_mode(3) - 0)):
        val = dense(spec4, zero_mode_entry(spec4, i, i, sectors=every)) @ img
        assert np.linalg.norm(val - expect * img) < 1e-8 * np.linalg.norm(img)


# -- report serialization ---------------------------------------------------------------


def test_report_schema_and_roundtrip(spec4, p10):
    import json

    rep = with_ff(check_theorem1, spec4, p10[0], p10[1], 2, 2, 2)
    line = rep.to_json_line()
    parsed = json.loads(line)
    assert sorted(parsed) == ["identity", "lhs", "m", "rel_residual", "rhs",
                              "sectors", "verdict"]
    assert json.dumps(parsed) == line
