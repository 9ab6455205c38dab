import numpy as np
import pytest

from gradedbethe.bethe import (
    BetheRoots,
    BetheSolverError,
    bethe_residual,
    continue_twist,
    solve_bethe,
    subset_seed_candidates,
    tau_eigenvalue,
)
from gradedbethe.chain import ChainSpec, PoleError, TwistConfig, VacuumFunctions


@pytest.fixture(scope="module")
def spec3():
    return ChainSpec(M=3)


@pytest.fixture(scope="module")
def vac3(spec3):
    return VacuumFunctions(spec3)


def one_root_pool(spec):
    """Exact sector-(1,0) roots: the polynomial oracle prod(u-xi+c) = prod(u-xi)."""
    xi = np.asarray(spec.xi)
    return np.roots(np.poly(xi - spec.c) - np.poly(xi))


def test_single_u_equation_reduces_to_r1(vac3):
    # a=1, b=0 at kappa=1: the equation is r_1(u_1) = 1
    u = 0.4 + 0.9j
    res = bethe_residual(BetheRoots(u=(u,)), vac3)
    assert res.shape == (1,)
    assert abs(res[0] - np.log(vac3.r(1, u))) < 1e-14


def test_single_v_equation_reduces_to_r3(vac3):
    # a=0, b=1 at kappa=1: the equation is r_3(v_1) = 1, identically satisfied
    res = bethe_residual(BetheRoots(v=(0.7 - 0.3j,)), vac3)
    assert res.shape == (1,)
    assert abs(res[0]) < 1e-14


def test_polynomial_oracle_roots_are_on_shell(spec3, vac3):
    # frozen oracle: companion-matrix roots of the (1,0) polynomial
    for u in one_root_pool(spec3):
        res = bethe_residual(BetheRoots(u=(u,)), vac3)
        assert np.abs(res).max() < 1e-12


def test_homogeneous_like_cubic_roots(vac3):
    # for xi -> 0 the (1,0) equation becomes (1 + c/u)^3 = 1 with the two
    # finite roots u = c(-1/2 +- i/(2 sqrt(3)))
    spec = ChainSpec(M=3, xi=(0.0, 1e-9, 2e-9))
    vac = VacuumFunctions(spec)
    expect = {complex(-0.5, 0.5 / np.sqrt(3)), complex(-0.5, -0.5 / np.sqrt(3))}
    got = one_root_pool(spec)
    for u in got:
        assert min(abs(u - e) for e in expect) < 1e-6
        polished = solve_bethe(BetheRoots(u=(u,)), vac)
        assert polished.residual < 1e-12


def test_solver_fixed_point(spec3, vac3):
    u = one_root_pool(spec3)[0]
    sol = solve_bethe(BetheRoots(u=(u,)), vac3)
    assert abs(sol.u[0] - u) < 1e-12
    assert sol.residual is not None and sol.residual < 1e-10


def test_solver_converges_from_perturbed_seed(spec3, vac3):
    u = one_root_pool(spec3)[0]
    seed = BetheRoots(u=(u + 0.01 * spec3.c,))
    sol = solve_bethe(seed, vac3)
    assert abs(sol.u[0] - u) < 1e-10
    assert sol.residual < 1e-12


def test_two_one_sector_solution(spec3, vac3):
    # the subset construction lands exactly on the (2,1) solution
    seeds = list(subset_seed_candidates((2, 1), vac3))
    assert len(seeds) == 1
    sol = solve_bethe(seeds[0], vac3)
    assert sol.residual < 1e-12
    assert np.abs(bethe_residual(sol, vac3)).max() < 1e-12
    # v sits at the mean of the u-pair shifted by -c/2
    assert abs(sol.v[0] - (sol.u[0] + sol.u[1]) / 2 + spec3.c / 2) < 1e-10


def test_residual_pole_guards(spec3, vac3):
    with pytest.raises(PoleError):
        bethe_residual(BetheRoots(u=(spec3.xi[0],)), vac3)
    with pytest.raises(PoleError):
        bethe_residual(BetheRoots(u=(0.5, 0.5 + spec3.c)), vac3)


def test_roots_distinctness_guard():
    with pytest.raises(ValueError):
        BetheRoots(u=(0.3, 0.3))


def test_tau_empty_roots_twisted_and_untwisted(spec3, vac3):
    w = 1.8 + 0.6j
    tau = tau_eigenvalue(w, BetheRoots(), vac3)
    assert abs(tau - (vac3.lam(1, w) + vac3.lam(2, w) - vac3.lam(3, w))) < 1e-14
    twist = TwistConfig((1.2, 0.7, 1.5))
    tau_k = tau_eigenvalue(w, BetheRoots(twist=twist), vac3)
    expect = 1.2 * vac3.lam(1, w) + 0.7 * vac3.lam(2, w) - 1.5 * vac3.lam(3, w)
    assert abs(tau_k - expect) < 1e-14


def test_tau_pole_free_at_on_shell_roots(spec3, vac3):
    # residue cancellation at w = u_1: the antisymmetric probe
    # eps (tau(u+eps) - tau(u-eps)) / 2 estimates the residue with the
    # regular slope removed; off shell it jumps by six orders of magnitude
    u = one_root_pool(spec3)[0]
    roots = solve_bethe(BetheRoots(u=(u,)), vac3)
    eps = 1e-4 * spec3.c

    def residue_estimate(rts):
        x = rts.u[0]
        hi = tau_eigenvalue(x + eps, rts, vac3)
        lo = tau_eigenvalue(x - eps, rts, vac3)
        scale = abs(tau_eigenvalue(x + 0.5j * spec3.c, rts, vac3))
        return abs(eps * (hi - lo) / 2) / scale

    assert residue_estimate(roots) < 1e-6
    off_shell = BetheRoots(u=(roots.u[0] + 0.1 * spec3.c,))
    assert residue_estimate(off_shell) > 1e-2


def test_tau_ignores_roots_at_infinity(spec3, vac3):
    w = 2.1 + 0.4j
    u = one_root_pool(spec3)[0]
    fin = BetheRoots(u=(u,))
    desc = BetheRoots(u=(u,), n_v_inf=1)
    assert abs(tau_eigenvalue(w, fin, vac3) - tau_eigenvalue(w, desc, vac3)) < 1e-14


def test_infinite_roots_twist_consistency(vac3):
    # a v-root at infinity is inconsistent with kappa_2 != kappa_3
    seed = BetheRoots(n_v_inf=1, twist=TwistConfig((1.0, 1.0, 1.01)))
    with pytest.raises(BetheSolverError):
        solve_bethe(seed, vac3)


# -- twist continuation ---------------------------------------------------------


def on_shell_10(spec, vac):
    return solve_bethe(BetheRoots(u=(one_root_pool(spec)[0],)), vac)


def test_continue_twist_zero_delta_is_constant(spec3, vac3):
    seed = on_shell_10(spec3, vac3)
    traj = continue_twist(seed, vac3, direction=1, delta=0.0)
    assert traj.points == [seed]


def test_continue_twist_endpoints_solve_twisted_equations(spec3, vac3):
    seed = on_shell_10(spec3, vac3)
    traj = continue_twist(seed, vac3, direction=1, delta=1e-3)
    hi = traj.points[-1]
    assert hi.twist.kappa[0] == pytest.approx(1.001)
    assert np.abs(bethe_residual(hi, vac3)).max() < 1e-12
    # the middle grid point is the seed itself
    assert traj.seed == seed


def test_continue_twist_reversible(spec3, vac3):
    seed = on_shell_10(spec3, vac3)
    traj = continue_twist(seed, vac3, direction=2, delta=1e-3)
    end = traj.points[-1]
    back = continue_twist(
        BetheRoots(u=seed.u, v=seed.v, twist=seed.twist, residual=seed.residual),
        vac3, direction=2, delta=1e-3)
    # walking forward from the seed reproduces the endpoint, and the stored
    # seed stays bit-identical at the grid midpoint
    assert abs(back.points[-1].u[0] - end.u[0]) < 1e-9


def test_untwisted_limit_matches_untwisted_solution(spec3, vac3):
    # twisted solutions at kappa = 1 coincide with untwisted solutions
    seed = on_shell_10(spec3, vac3)
    sol = solve_bethe(BetheRoots(u=seed.u, twist=TwistConfig()), vac3)
    assert abs(sol.u[0] - seed.u[0]) < 1e-13


def test_derivative_consistency_between_step_sizes(spec3, vac3):
    seed = on_shell_10(spec3, vac3)
    t5 = continue_twist(seed, vac3, direction=1, delta=1e-5)
    t6 = continue_twist(seed, vac3, direction=1, delta=1e-6)
    d5 = t5.dlog_ell_ratio(vac3, 2)
    d6 = t6.dlog_ell_ratio(vac3, 2)
    assert abs(d5) > 1e-3
    assert abs(d5 - d6) / abs(d5) < 1e-3


def test_descending_root_comes_down_from_infinity(spec3, vac3):
    # the (1,1) descendant deforms to a large finite v when kappa_3 splits
    u = one_root_pool(spec3)[0]
    seed = solve_bethe(BetheRoots(u=(u,), n_v_inf=1), vac3)
    traj = continue_twist(seed, vac3, direction=3, delta=1e-5)
    hi = traj.points[-1]
    assert hi.n_v_inf == 0
    assert abs(hi.v[0]) > 1e3
    assert np.abs(bethe_residual(hi, vac3)).max() < 1e-11
    # direction 1 keeps the v-root at infinity
    traj1 = continue_twist(seed, vac3, direction=1, delta=1e-5)
    assert traj1.points[-1].n_v_inf == 1


def test_empty_v_set_has_no_kappa3_dependence(spec3, vac3):
    # b = 0: d/dkappa_3 log ell_3(vbar) over the empty set is zero
    seed = on_shell_10(spec3, vac3)
    traj = continue_twist(seed, vac3, direction=3, delta=1e-5)
    assert traj.dlog_ell_ratio(vac3, 2) == 0
