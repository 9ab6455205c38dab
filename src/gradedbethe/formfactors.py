"""Form factors of monodromy entries and partial zero modes, and the
identities tying them to universal form factors.

Every identity is evaluated with the same left/right eigenvectors on both
sides, or as a ratio, so the arbitrary normalization of the eigenvectors
cancels; the scale-invariance of each verdict is itself part of the test
suite.  Residuals are relative to the larger side's magnitude, and a pair of
sides that both vanish (below a scale-invariant floor) is reported as
``trivial`` rather than as a pass, so the suite cannot pass vacuously.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .bethe import BetheRoots, RootTrajectory, _solve_at_twist, tau_eigenvalue
from .chain import (
    ChainSpec,
    TwistConfig,
    _DIAGONAL,
    _PAR,
    _twisted_sum,
    combine,
    compose,
    monodromy_entries,
    sector_step,
    transfer_blocks,
    zero_mode_entry,
)
from .spectrum import EigenState, _decompose, default_probes, match_roots_to_state, sandwich

__all__ = [
    "FormFactorReport",
    "make_report",
    "universal_form_factor",
    "partial_zero_mode_ff",
    "check_theorem1",
    "check_local_corollary",
    "check_theorem2",
    "generating_functional",
    "check_proposition1",
    "check_genfun_derivative",
    "zero_mode_ladder_checks",
    "twisted_dual_pairs",
    "SelectionRuleZero",
]

_DTAU_FLOOR = 1e-12  # relative eigenvalue difference too small to divide by
_THEOREM1_TOL = 1e-8  # tolerance of theorem 1 and its local corollary: exact identities
_THEOREM2_TOL = 1e-5  # tolerance of theorem 2, whose derivative is a finite difference
_EIG_TOL = 1e-8      # tolerance of the dual-annihilation and raised-eigenvector checks
_PROP1_TOL = 1e-7    # tolerance of proposition 1
_GENFUN_DELTA = 1e-3  # half-width of the beta-derivative in check_genfun_derivative
_GENFUN_TOL = 1e-5   # tolerance of that derivative's check
_LADDER_TOL = 1e-10  # tolerance of the ladder commutator relations


class SelectionRuleZero(RuntimeError):
    """Matrix element vanishes because the sectors violate the ladder step."""


@dataclass
class FormFactorReport:
    """Structured record of one identity verification."""

    identity: str
    sectors: tuple[tuple[int, int], tuple[int, int]]
    m: int
    lhs: complex
    rhs: complex
    rel_residual: float
    tolerance: float
    verdict: str                      # "pass" | "fail" | "trivial" | "skipped"

    def to_line_dict(self) -> dict:
        return {
            "identity": self.identity,
            "m": self.m,
            "sectors": [list(self.sectors[0]), list(self.sectors[1])],
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "rel_residual": self.rel_residual,
            "verdict": self.verdict,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_line_dict())


def make_report(identity: str, lhs: complex, rhs: complex, tol: float, *,
                sectors=((0, 0), (0, 0)), m: int = 0, floor: float = 0.0,
                residual: float | None = None, skipped: bool = False) -> FormFactorReport:
    """The one constructor of report rows.

    Without an explicit ``residual`` the row carries |lhs - rhs| relative to
    the larger side, and sides that both sit below ``floor`` make the row
    ``trivial``.  An explicit residual is compared with ``tol`` as given.
    A ``skipped`` row stands for a check that tested nothing: it neither
    passes nor fails.
    """
    verdict = "skipped" if skipped else None
    if residual is None:
        mag = max(abs(lhs), abs(rhs))
        if mag < floor:
            verdict, residual = "trivial", abs(lhs - rhs)
        else:
            residual = abs(lhs - rhs) / mag
    if verdict is None:
        verdict = "pass" if residual < tol else "fail"
    return FormFactorReport(identity, tuple(tuple(s) for s in sectors), m, complex(lhs),
                            complex(rhs), float(residual), tol, verdict)


def _pair_floor(pair_c: EigenState, pair_b: EigenState, rel: float = 1e-13) -> float:
    """Scale-invariant zero floor for bilinear quantities in (C, B)."""
    return rel * float(np.linalg.norm(pair_c.left) * np.linalg.norm(pair_b.right))


def universal_form_factor(spec: ChainSpec, pair_c: EigenState, pair_b: EigenState,
                          i: int, j: int) -> complex:
    """Universal form factor <C| T_ij(z) |B> / (tau(z|C) - tau(z|B)).

    The ratio is independent of z for on-shell states with distinct
    eigenvalue functions; z is the first of eight generic points where the
    eigenvalue difference is safely nonzero.  Raises SelectionRuleZero when
    the sector step of (i,j) does not connect the two states.
    """
    da, db = sector_step(i, j)
    if pair_c.sector != (pair_b.sector[0] + da, pair_b.sector[1] + db):
        raise SelectionRuleZero(
            f"sectors {pair_c.sector} <- {pair_b.sector} violate the (i,j)=({i},{j}) step"
        )
    for z in [(0.9 + 0.17 * k) + 0.83j for k in range(8)]:
        tau_c = tau_eigenvalue(z, pair_c.roots, spec)
        tau_b = tau_eigenvalue(z, pair_b.roots, spec)
        dtau = tau_c - tau_b
        if abs(dtau) <= _DTAU_FLOOR * max(abs(tau_c), abs(tau_b), 1.0):
            continue
        t_ij = monodromy_entries(spec, z, [(i, j)], sectors=[pair_b.sector])
        return sandwich(pair_c, t_ij[i, j], pair_b) / dtau
    raise ValueError("no probe point separates the two eigenvalue functions")


def partial_zero_mode_ff(spec: ChainSpec, pair_c: EigenState, pair_b: EigenState,
                         i: int, j: int, m: int) -> complex:
    """Form factor <C| T^(1)_ij[0] |B> of the partial zero mode over sites 1..m."""
    zm = zero_mode_entry(spec, i, j, range(1, m + 1), sectors=[pair_b.sector])
    return sandwich(pair_c, zm, pair_b)


def _zeta(spec: ChainSpec, roots_c: BetheRoots, roots_b: BetheRoots, sites) -> complex:
    """ell_1(ubar^C) ell_3(vbar^B) / (ell_1(ubar^B) ell_3(vbar^C)), each ell_k an r_k over ``sites``.

    Over sites 1..m it is rho, which carries all the split-point dependence;
    over [n] it is the local factor of site n.
    """
    return (spec.r_product(1, roots_c.u, sites) * spec.r_product(3, roots_b.v, sites)
            / (spec.r_product(1, roots_b.u, sites) * spec.r_product(3, roots_c.v, sites)))


def check_theorem1(spec: ChainSpec, pair_c: EigenState, pair_b: EigenState,
                   i: int, j: int, m: int, ff: complex) -> FormFactorReport:
    """Partial-zero-mode form factor against (rho - 1) times the universal one.

    Requires two on-shell states with distinct eigenvalue functions; both
    sides carry the same eigenvector pair, so normalization cancels.  ``ff``
    is the pair's universal form factor, which does not depend on m.
    """
    lhs = partial_zero_mode_ff(spec, pair_c, pair_b, i, j, m)
    rho = _zeta(spec, pair_c.roots, pair_b.roots, range(1, m + 1))
    rhs = (rho - 1.0) * ff
    return make_report(f"theorem1:{i}{j}", lhs, rhs, _THEOREM1_TOL,
                       sectors=(pair_c.sector, pair_b.sector), m=m,
                       floor=_pair_floor(pair_c, pair_b))


def check_local_corollary(spec: ChainSpec, pair_c: EigenState, pair_b: EigenState,
                          i: int, j: int, m: int, ff: complex) -> FormFactorReport:
    """Local-operator form factor against its product representation.

    <C|(L_m[0])_ij|B> = (script_L_m - 1) prod_{n<m} script_L_n * F^(i,j);
    ``ff`` as in check_theorem1.
    """
    local = zero_mode_entry(spec, i, j, [m], sectors=[pair_b.sector])
    lhs = sandwich(pair_c, local, pair_b)
    site = [_zeta(spec, pair_c.roots, pair_b.roots, [n]) for n in range(1, m + 1)]
    prefactor = (site[m - 1] - 1.0) * np.prod(site[:m - 1] or (1.0,))
    rhs = prefactor * ff
    return make_report(f"theorem1-local:{i}{j}", lhs, rhs, _THEOREM1_TOL,
                       sectors=(pair_c.sector, pair_b.sector), m=m,
                       floor=_pair_floor(pair_c, pair_b))


def check_theorem2(spec: ChainSpec, pair: EigenState, i: int, m: int,
                   trajectory: RootTrajectory) -> FormFactorReport:
    """Diagonal partial-zero-mode form factor against the twist derivative.

    <C|T^(1)_ii[0]|B> / <C|B> is compared with
    lambda^(1)_i[0] + (-1)^{[i]} d/dkappa_i log(ell_1(ubar)/ell_3(vbar))
    where the root deformation follows the twisted Bethe equations along
    ``trajectory`` (``continue_twist`` in direction i) and the derivative is
    its central difference.  Both sides are scale-free, so the report
    normalizes by the state pairing.
    """
    lhs = partial_zero_mode_ff(spec, pair, pair, i, i, m) / pair.pairing
    dlog = trajectory.dlog_ell_ratio(spec, m)
    rhs = spec.lam_zero_mode(i, sites=range(1, m + 1)) + (-1) ** _PAR[i - 1] * dlog
    # both sides are scale-free and O(m) when nonzero; the zero floor sits
    # above the finite-difference resolution (solver tolerance over delta)
    return make_report(f"theorem2:{i}", lhs, rhs, _THEOREM2_TOL,
                       sectors=(pair.sector, pair.sector), m=m, floor=1e-7)


def generating_functional(spec: ChainSpec, pair_c: EigenState, pair_b: EigenState,
                          beta: tuple[complex, complex, complex], m: int) -> complex:
    """<C| exp(Q_beta) |B> with Q_beta built from the partial zero modes.

    Q_beta = sum_i (-1)^{[i]} beta_i T^(1)_ii[0] is diagonal in the product
    basis (T_ii[0] counts letters i), so its exponential is exact.
    """
    q = combine(*[((-1) ** _PAR[i] * beta[i],
                   zero_mode_entry(spec, i + 1, i + 1, range(1, m + 1), sectors=[pair_b.sector]))
                  for i in range(3)])
    exp_q = {s: (s, np.diag(np.exp(np.diag(blk)))) for s, (_, blk) in q.items()}
    return sandwich(pair_c, exp_q, pair_b)


def twisted_dual_pairs(spec: ChainSpec, pairs,
                       beta: tuple[complex, complex, complex]) -> list[EigenState]:
    """Deform on-shell states to the twist kappa_i = exp(beta_i), in one diagonalization.

    Solves the twisted Bethe equations from each state's untwisted roots,
    diagonalizes the twisted transfer matrix once, in the twisted roots'
    sectors only, and matches each twisted eigenstate there.  Sectors are
    diagonalized independently, so each state is the one a call for it alone
    would give.  The transfer blocks at the probes are the twist's weights
    on T_11, T_22 and T_33, which are read once per set of sectors.
    """
    twisted = replace(spec, twist=TwistConfig(tuple(np.exp(b) for b in beta)))
    roots = [_solve_at_twist(pair.roots, twisted) for pair in pairs]
    sectors = tuple(sorted({r.sector for r in roots}))
    diagonals = _probe_diagonals(replace(spec, twist=TwistConfig()), sectors)
    dec = _decompose(twisted, sectors, (_twisted_sum(twisted, t, sectors) for t in diagonals))
    return [match_roots_to_state(dec, r) for r in roots]


@lru_cache(maxsize=2)
def _probe_diagonals(spec: ChainSpec, sectors: tuple) -> tuple:
    """T_11, T_22, T_33 on ``sectors`` at each default probe, for every twist of ``spec``.

    The twisted duals of a run sit in one or two sectors, and every twist
    there reads these same entries; the blocks are read-only.
    """
    out = tuple(monodromy_entries(spec, w, _DIAGONAL, sectors=sectors)
                for w in default_probes())
    for diagonals in out:
        for entry in diagonals.values():
            for _, blk in entry.values():
                blk.flags.writeable = False
    return out


def _script_q(spec: ChainSpec, beta, m: int) -> complex:
    return sum((-1) ** _PAR[i] * beta[i] * spec.lam_zero_mode(i + 1, sites=range(1, m + 1))
               for i in range(3))


def check_proposition1(spec: ChainSpec, pair_c_twisted: EigenState, pair_b: EigenState,
                       beta: tuple[complex, complex, complex], m: int) -> FormFactorReport:
    """Generating functional against its closed product form.

    <C^(kappa)| e^{Q_beta} |B> = e^{script_Q} *
    ell_1(ubar^C(kappa)) ell_3(vbar^B) / (ell_1(ubar^B) ell_3(vbar^C(kappa)))
    * <C^(kappa)|B>, with the same twisted dual vector on both sides.
    """
    lhs = generating_functional(spec, pair_c_twisted, pair_b, beta, m)
    rho = _zeta(spec, pair_c_twisted.roots, pair_b.roots, range(1, m + 1))
    overlap = sandwich(pair_c_twisted, None, pair_b)
    rhs = np.exp(_script_q(spec, beta, m)) * rho * overlap
    return make_report("proposition1", lhs, rhs, _PROP1_TOL,
                       sectors=(pair_c_twisted.sector, pair_b.sector), m=m,
                       floor=_pair_floor(pair_c_twisted, pair_b))


def check_genfun_derivative(spec: ChainSpec, pair_c: EigenState, pair_b: EigenState,
                            i: int, m: int) -> FormFactorReport:
    """Diagonal form factor from the beta_i-derivative of the generating
    functional, for two distinct untwisted on-shell states.

    M^(i,i) = (-1)^{[i]} d/dbeta_i M^(kappa) |_{kappa=1} - F^(i,i); the
    derivative is a central difference with the twisted dual normalized
    smoothly against a fixed reference vector (the dual state's own right
    eigenvector), which pins the scale without knowing any canonical
    Bethe-vector normalization.  Each twisted dual comes from
    ``twisted_dual_pairs``, which diagonalizes only its own sector at the
    twist beta_i = +-_GENFUN_DELTA.
    """

    def emel(side: int) -> complex:
        beta = [0.0, 0.0, 0.0]
        beta[i - 1] = side * _GENFUN_DELTA
        tp, = twisted_dual_pairs(spec, [pair_c], tuple(beta))
        # keep the left vector's overlap with C's right vector, so beta-derivatives are defined
        tp = tp.rescaled(1.0, pair_c.pairing / sandwich(tp, None, pair_c))
        return generating_functional(spec, tp, pair_b, tuple(beta), m)

    d_emel = (emel(+1) - emel(-1)) / (2 * _GENFUN_DELTA)
    ff = universal_form_factor(spec, pair_c, pair_b, i, i)
    rhs = (-1) ** _PAR[i - 1] * d_emel - ff
    lhs = partial_zero_mode_ff(spec, pair_c, pair_b, i, i, m)
    # the zero floor sits above the finite-difference noise in d_emel: up to M = 7
    # the rhs is below 4.5e-6 |C||B| where lhs = 0 (m = M), other sides above 0.09 |C||B|
    return make_report(f"genfun-derivative:{i}", lhs, rhs, _GENFUN_TOL,
                       sectors=(pair_c.sector, pair_b.sector), m=m,
                       floor=_pair_floor(pair_c, pair_b, rel=3e-5))


def zero_mode_ladder_checks(spec: ChainSpec, pair_c: EigenState, pair_b: EigenState, m: int,
                            quadruple: tuple[int, int, int, int]) -> list[FormFactorReport]:
    """Ladder relations of the zero-mode algebra, sandwiched and spectral.

    (a) For the index quadruple (i, j, k, l): delta_il M^(k,j) - delta_kj M^(i,l)
        equals the signed sandwich of the graded commutator of T^(1)_ij[0]
        with the total T_kl[0]; both sides are computed from explicit matrices.
    (b) The dual annihilation C . T_12[0] = 0 for the left state (requires a
        finite-root dual with a >= 1).
    (c) T_12[0] B is itself an eigenvector one sector up whenever nonzero.
    """
    reports = []
    norm_cb = _pair_floor(pair_c, pair_b, rel=1.0)
    on_b = pair_b.sector
    i, j, k, l = quadruple
    # B's sector and its images under the two zero modes
    on = [(on_b[0] + da, on_b[1] + db)
          for da, db in ((0, 0), sector_step(i, j), sector_step(k, l))]
    part = partial(zero_mode_entry, spec, sites=range(1, m + 1), sectors=on)
    lhs = 0.0 + 0j
    if i == l:
        lhs += sandwich(pair_c, part(k, j), pair_b)
    if k == j:
        lhs -= sandwich(pair_c, part(i, l), pair_b)
    # the graded commutator [A, B_op} = A B_op -+ B_op A on B's content
    a_op, b_op = part(i, j), zero_mode_entry(spec, k, l, sectors=on)
    odd = (_PAR[i - 1] + _PAR[j - 1]) % 2 and (_PAR[k - 1] + _PAR[l - 1]) % 2
    comm = combine((1.0, compose(a_op, b_op)), (1.0 if odd else -1.0, compose(b_op, a_op)))
    sign = (-1) ** ((_PAR[i - 1] * _PAR[j - 1] + _PAR[i - 1] * _PAR[l - 1]
                     + _PAR[j - 1] * _PAR[l - 1]) % 2)
    rhs = sign * sandwich(pair_c, comm, pair_b)
    reports.append(make_report(f"ladder-commutator:{i}{j}{k}{l}", lhs, rhs, _LADDER_TOL,
                               sectors=(pair_c.sector, pair_b.sector), m=m,
                               residual=abs(lhs - rhs) / norm_cb))

    # (b) dual annihilation, stated for finite-root (primitive) dual states;
    # T_12[0] maps the sector below C's onto C's.  A block that does not
    # exist (no sector below C, no T_12 image of B) acts as zero.
    below_c = (pair_c.sector[0] - 1, pair_c.sector[1])
    raise_op = zero_mode_entry(spec, 1, 2, sectors=[on_b, below_c])
    if pair_c.sector[0] >= 1 and pair_c.roots.n_u_inf == 0:
        img = pair_c.left @ raise_op[below_c][1] if below_c in raise_op else 0.0
        resid = float(np.linalg.norm(img) / np.linalg.norm(pair_c.left))
        reports.append(make_report("ladder-dual-annihilation", resid, 0.0, _EIG_TOL,
                                   sectors=(pair_c.sector, pair_c.sector), m=m, residual=resid))

    # (c) raising image of B is on shell one sector up
    img = raise_op[on_b][1] @ pair_b.right if on_b in raise_op else np.zeros(0)
    img_norm = float(np.linalg.norm(img))
    if img_norm > 1e-10 * np.linalg.norm(pair_b.right):
        up = (on_b[0] + 1, on_b[1])
        worst = 0.0
        for q, w in enumerate(default_probes()):
            t_img = transfer_blocks(spec, w, sectors=[up])[up][1] @ img
            tau = pair_b.tau_samples[q]
            worst = max(worst, float(np.linalg.norm(t_img - tau * img)) / img_norm
                        / max(1.0, abs(tau)))
        reports.append(make_report("ladder-raising-eigenvector", worst, 0.0, _EIG_TOL,
                                   sectors=(up, pair_b.sector), m=m, residual=worst))
    return reports
