from dataclasses import replace

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
from gradedbethe.chain import ChainSpec, PoleError, TwistConfig


@pytest.fixture(scope="module")
def spec3():
    return ChainSpec(M=3)


def one_root_pool(spec):
    """Exact sector-(1,0) roots: the polynomial oracle prod(u-xi+1) = prod(u-xi)."""
    xi = np.asarray(spec.xi)
    return np.roots(np.poly(xi - 1) - np.poly(xi))


def test_single_u_equation_reduces_to_r1(spec3):
    # a=1, b=0 at kappa=1: the equation is r_1(u_1) = 1
    u = 0.4 + 0.9j
    res = bethe_residual(BetheRoots(u=(u,)), spec3)
    assert res.shape == (1,)
    assert abs(res[0] - np.log(spec3.r(1, u))) < 1e-14


def test_single_v_equation_reduces_to_r3(spec3):
    # a=0, b=1 at kappa=1: the equation is r_3(v_1) = 1, identically satisfied
    res = bethe_residual(BetheRoots(v=(0.7 - 0.3j,)), spec3)
    assert res.shape == (1,)
    assert abs(res[0]) < 1e-14


def test_polynomial_oracle_roots_are_on_shell(spec3):
    # frozen oracle: companion-matrix roots of the (1,0) polynomial
    for u in one_root_pool(spec3):
        res = bethe_residual(BetheRoots(u=(u,)), spec3)
        assert np.abs(res).max() < 1e-12


def test_homogeneous_like_cubic_roots():
    # for xi -> 0 the (1,0) equation becomes (1 + c/u)^3 = 1 with the two
    # finite roots u = c(-1/2 +- i/(2 sqrt(3)))
    spec = ChainSpec(M=3, xi=(0.0, 1e-9, 2e-9))
    expect = {complex(-0.5, 0.5 / np.sqrt(3)), complex(-0.5, -0.5 / np.sqrt(3))}
    got = one_root_pool(spec)
    for u in got:
        assert min(abs(u - e) for e in expect) < 1e-6
        polished = solve_bethe(BetheRoots(u=(u,)), spec, tol=1e-12)
        assert np.abs(bethe_residual(polished, spec)).max() < 1e-12


def test_solver_fixed_point(spec3):
    u = one_root_pool(spec3)[0]
    sol = solve_bethe(BetheRoots(u=(u,)), spec3, tol=1e-12)
    assert abs(sol.u[0] - u) < 1e-12
    assert np.abs(bethe_residual(sol, spec3)).max() < 1e-10


def test_solver_converges_from_perturbed_seed(spec3):
    u = one_root_pool(spec3)[0]
    seed = BetheRoots(u=(u + 0.01,))
    sol = solve_bethe(seed, spec3, tol=1e-12)
    assert abs(sol.u[0] - u) < 1e-10
    assert np.abs(bethe_residual(sol, spec3)).max() < 1e-12


def test_two_one_sector_solution(spec3):
    # the subset construction lands exactly on the (2,1) solution
    seeds = list(subset_seed_candidates((2, 1), spec3))
    assert len(seeds) == 1
    sol = solve_bethe(seeds[0], spec3, tol=1e-12)
    assert np.abs(bethe_residual(sol, spec3)).max() < 1e-12
    # v sits at the mean of the u-pair shifted by -1/2, half a unit of c
    assert abs(sol.v[0] - (sol.u[0] + sol.u[1]) / 2 + 1 / 2) < 1e-10


def test_residual_pole_guards(spec3):
    with pytest.raises(PoleError):
        bethe_residual(BetheRoots(u=(spec3.xi[0],)), spec3)
    with pytest.raises(PoleError):
        bethe_residual(BetheRoots(u=(0.5, 0.5 + 1)), spec3)


def test_overflowing_newton_iterate_is_a_solver_failure():
    # a subset seed of sector (6,3) on the twisted M=7 chain whose Newton
    # iterate overflows a complex power; the failure is a BetheSolverError
    spec = ChainSpec(M=7, twist=TwistConfig((1.01, 1.0, 0.99)))
    seed = BetheRoots(
        u=(-703.5943709652806 + 4.163336342344337e-17j, -0.10192477097761754 + 1.006656335851397j,
           -0.10057256045602544 + 0.35740388530328765j, -0.10057256045602597 - 0.35740388530328754j,
           -0.10031718592593862 + 0.0943373495609165j, -0.10031718592593795 - 0.09433734956091644j),
        v=(-0.6021166076531783 - 0.6438087269226724j, -0.6016417137785081 + 0.40881642358796033j,
           -0.6013418139524779 - 0.06710417197158942j))
    with pytest.raises(BetheSolverError):
        solve_bethe(seed, spec, tol=1e-12)


def test_roots_distinctness_guard():
    with pytest.raises(ValueError):
        BetheRoots(u=(0.3, 0.3))


def test_tau_empty_roots_twisted_and_untwisted(spec3):
    w = 1.8 + 0.6j
    tau = tau_eigenvalue(w, BetheRoots(), spec3)
    assert abs(tau - (spec3.lam(1, w) + spec3.lam(2, w) - spec3.lam(3, w))) < 1e-14
    twisted = replace(spec3, twist=TwistConfig((1.2, 0.7, 1.5)))
    tau_k = tau_eigenvalue(w, BetheRoots(), twisted)
    expect = 1.2 * spec3.lam(1, w) + 0.7 * spec3.lam(2, w) - 1.5 * spec3.lam(3, w)
    assert abs(tau_k - expect) < 1e-14


def test_tau_pole_free_at_on_shell_roots(spec3):
    # residue cancellation at w = u_1: the antisymmetric probe
    # eps (tau(u+eps) - tau(u-eps)) / 2 estimates the residue with the
    # regular slope removed; off shell it jumps by six orders of magnitude
    u = one_root_pool(spec3)[0]
    roots = solve_bethe(BetheRoots(u=(u,)), spec3, tol=1e-12)
    eps = 1e-4

    def residue_estimate(rts):
        x = rts.u[0]
        hi = tau_eigenvalue(x + eps, rts, spec3)
        lo = tau_eigenvalue(x - eps, rts, spec3)
        scale = abs(tau_eigenvalue(x + 0.5j, rts, spec3))
        return abs(eps * (hi - lo) / 2) / scale

    assert residue_estimate(roots) < 1e-6
    off_shell = BetheRoots(u=(roots.u[0] + 0.1,))
    assert residue_estimate(off_shell) > 1e-2


def test_tau_ignores_roots_at_infinity(spec3):
    w = 2.1 + 0.4j
    u = one_root_pool(spec3)[0]
    fin = BetheRoots(u=(u,))
    desc = BetheRoots(u=(u,), n_v_inf=1)
    assert abs(tau_eigenvalue(w, fin, spec3) - tau_eigenvalue(w, desc, spec3)) < 1e-14


def test_infinite_roots_twist_consistency(spec3):
    # a v-root at infinity is inconsistent with kappa_2 != kappa_3
    seed = BetheRoots(n_v_inf=1)
    with pytest.raises(BetheSolverError):
        solve_bethe(seed, replace(spec3, twist=TwistConfig((1.0, 1.0, 1.01))), tol=1e-12)


# -- twist continuation ---------------------------------------------------------


def on_shell_10(spec):
    return solve_bethe(BetheRoots(u=(one_root_pool(spec)[0],)), spec, tol=1e-12)


def test_continue_twist_rejects_zero_delta(spec3):
    # a zero step has no central difference: it used to return one point and
    # a nan derivative; a step of one or more puts the lower end at a zero or
    # negative twist component
    seed = on_shell_10(spec3)
    for delta in (0.0, -1e-3, 1.0, 1.5):
        with pytest.raises(ValueError, match="above zero and below one"):
            continue_twist(seed, spec3, direction=1, delta=delta)


def test_continue_twist_endpoints_solve_twisted_equations(spec3):
    seed = on_shell_10(spec3)
    traj = continue_twist(seed, spec3, direction=1, delta=1e-3)
    hi = traj.hi
    assert np.abs(bethe_residual(hi, replace(spec3, twist=TwistConfig((1.001, 1, 1))))).max() < 1e-12


def test_continue_twist_reversible(spec3):
    seed = on_shell_10(spec3)
    traj = continue_twist(seed, spec3, direction=2, delta=1e-3)
    end = traj.hi
    back = continue_twist(
        BetheRoots(u=seed.u, v=seed.v),
        spec3, direction=2, delta=1e-3)
    # walking forward from the seed reproduces the endpoint
    assert abs(back.hi.u[0] - end.u[0]) < 1e-9


def test_untwisted_limit_matches_untwisted_solution(spec3):
    # twisted solutions at kappa = 1 coincide with untwisted solutions
    seed = on_shell_10(spec3)
    sol = solve_bethe(BetheRoots(u=seed.u), replace(spec3, twist=TwistConfig()), tol=1e-12)
    assert abs(sol.u[0] - seed.u[0]) < 1e-13


def test_derivative_consistency_between_step_sizes(spec3):
    seed = on_shell_10(spec3)
    t5 = continue_twist(seed, spec3, direction=1, delta=1e-5)
    t6 = continue_twist(seed, spec3, direction=1, delta=1e-6)
    d5 = t5.dlog_ell_ratio(spec3, 2)
    d6 = t6.dlog_ell_ratio(spec3, 2)
    assert abs(d5) > 1e-3
    assert abs(d5 - d6) / abs(d5) < 1e-3


def test_descending_root_comes_down_from_infinity(spec3):
    # the (1,1) descendant deforms to a large finite v when kappa_3 splits
    u = one_root_pool(spec3)[0]
    seed = solve_bethe(BetheRoots(u=(u,), n_v_inf=1), spec3, tol=1e-12)
    traj = continue_twist(seed, spec3, direction=3, delta=1e-5)
    hi = traj.hi
    assert hi.n_v_inf == 0
    assert abs(hi.v[0]) > 1e3
    twisted = replace(spec3, twist=TwistConfig((1, 1, 1 + 1e-5)))
    assert np.abs(bethe_residual(hi, twisted)).max() < 1e-11
    # direction 1 keeps the v-root at infinity
    traj1 = continue_twist(seed, spec3, direction=1, delta=1e-5)
    assert traj1.hi.n_v_inf == 1


def test_empty_v_set_has_no_kappa3_dependence(spec3):
    # b = 0: d/dkappa_3 log ell_3(vbar) over the empty set is zero
    seed = on_shell_10(spec3)
    traj = continue_twist(seed, spec3, direction=3, delta=1e-5)
    assert traj.dlog_ell_ratio(spec3, 2) == 0
