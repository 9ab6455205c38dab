"""Nested (twisted) Bethe equations: residuals, Newton solving, twist continuation.

Roots live in two sets ubar (cardinality a) and vbar (cardinality b).  Either
set may contain roots at infinity; those are tracked by explicit counts and
contribute trivial factors to every product (empty-product convention).
States whose roots sit at infinity arise unavoidably at kappa = 1, where the
transfer matrix commutes with the global raising/lowering charges, and they
descend to large finite values as soon as a twist splits the relevant kappa
ratio.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .chain import ChainSpec, PoleError, f_fun

__all__ = [
    "BetheRoots",
    "RootTrajectory",
    "BetheSolverError",
    "bethe_residual",
    "solve_bethe",
    "tau_eigenvalue",
    "continue_twist",
    "fit_roots_to_samples",
    "subset_seed_candidates",
]

_POLE_TOL = 1e-9       # |c| units: a root pair this close to an f-function pole
_MAX_ITER = 60         # Newton steps before solve_bethe gives up
_COLLISION_TOL = 1e-8  # |c| units: two roots this close have collided


class BetheSolverError(RuntimeError):
    """Newton iteration or continuation failed."""


@dataclass(frozen=True)
class BetheRoots:
    """Bethe parameter sets.

    ``u`` and ``v`` hold the finite roots; ``n_u_inf`` / ``n_v_inf`` count
    additional roots at infinity.  The cardinalities a, b include both.  The
    twist they solve for is the one on the ``ChainSpec`` they are read with.
    """

    u: tuple[complex, ...] = ()
    v: tuple[complex, ...] = ()
    n_u_inf: int = 0
    n_v_inf: int = 0

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(complex(x) for x in self.u))
        object.__setattr__(self, "v", tuple(complex(x) for x in self.v))
        if self.n_u_inf < 0 or self.n_v_inf < 0:
            raise ValueError("infinite-root counts must be nonnegative")
        for roots in (self.u, self.v):
            for i in range(len(roots)):
                for j in range(i + 1, len(roots)):
                    if roots[i] == roots[j]:
                        raise ValueError("Bethe roots must be pairwise distinct")

    @property
    def a(self) -> int:
        return len(self.u) + self.n_u_inf

    @property
    def b(self) -> int:
        return len(self.v) + self.n_v_inf

    @property
    def sector(self) -> tuple[int, int]:
        return (self.a, self.b)


def _prod_f(xs, ys, c: complex) -> complex:
    """Double product of f over two sets; empty sets give 1."""
    out = 1.0 + 0j
    for x in xs:
        for y in ys:
            out *= f_fun(x, y, c)
    return out


def _check_f_poles(u: tuple, v: tuple, spec: ChainSpec, tol: float) -> None:
    c = spec.c
    pts = u + v
    for x in pts:
        for xi in spec.xi:
            if abs(x - xi) < tol:
                raise PoleError(f"root {x} collides with inhomogeneity {xi}")
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if abs(x - y) < tol or abs(x - y - c) < tol or abs(x - y + c) < tol:
                raise PoleError(f"roots {x}, {y} sit on an f-function pole")


def _log_residuals(u: tuple, v: tuple, spec: ChainSpec) -> np.ndarray:
    """Log residuals of the Bethe equations of the finite roots, u-equations then v-equations.

    ``u`` and ``v`` are tuples of Python complex; entry j is Log(LHS_j / RHS_j)
    at the spec's twist.  Raises PoleError where a root sits on a pole.
    """
    c = spec.c
    _check_f_poles(u, v, spec, _POLE_TOL * abs(c))
    k1, k2, k3 = spec.twist.kappa
    res = []
    for j, x in enumerate(u):
        others = u[:j] + u[j + 1:]
        rhs = (k2 / k1) * _prod_f([x], others, c) / _prod_f(others, [x], c) * _prod_f(v, [x], c)
        res.append(np.log(spec.r(1, x) / rhs))
    for x in v:
        res.append(np.log(spec.r(3, x) / ((k2 / k3) * _prod_f([x], u, c))))
    return np.array(res, dtype=complex)


def bethe_residual(roots: BetheRoots, spec: ChainSpec) -> np.ndarray:
    """Log-form residuals of the a+b Bethe equations at the spec's twist.

    Entry j is Log(LHS_j / RHS_j) with the principal branch taken once per
    equation, so a zero residual is exactly the multiplicative equation.
    Near-branch-cut values (imaginary part close to pi) are flagged with a
    warning.  Roots at infinity contribute the constant consistency condition
    on the twist ratio.
    """
    k1, k2, k3 = spec.twist.kappa
    fin = list(_log_residuals(roots.u, roots.v, spec))
    na = len(roots.u)
    out = np.array(fin[:na] + [-np.log(k2 / k1)] * roots.n_u_inf
                   + fin[na:] + [-np.log(k2 / k3)] * roots.n_v_inf, dtype=complex)
    if out.size and np.any(np.abs(out.imag) > np.pi - 0.2):
        warnings.warn("Bethe residual near the log branch cut", stacklevel=2)
    return out


def _dlogf(x: complex, y: complex, c: complex) -> tuple[complex, complex]:
    """(d/dx, d/dy) of log f(x, y)."""
    d = 1.0 / (x - y + c) - 1.0 / (x - y)
    return d, -d


def _bethe_jacobian(u: tuple, v: tuple, spec: ChainSpec) -> np.ndarray:
    """Analytic Jacobian of ``_log_residuals``."""
    c = spec.c
    na, nb = len(u), len(v)
    jac = np.zeros((na + nb, na + nb), dtype=complex)
    for j, x in enumerate(u):
        jac[j, j] += spec.dlog_r(1, x)
        for k, y in enumerate(u):
            if k == j:
                continue
            dxj_1, dyk_1 = _dlogf(x, y, c)   # log f(u_j, u_k)
            dyk_2, dxj_2 = _dlogf(y, x, c)   # log f(u_k, u_j)
            jac[j, j] -= dxj_1 - dxj_2
            jac[j, k] -= dyk_1 - dyk_2
        for l, y in enumerate(v):
            dv, dx = _dlogf(y, x, c)         # log f(v_l, u_j)
            jac[j, j] -= dx
            jac[j, na + l] -= dv
    for j, x in enumerate(v):
        row = na + j
        jac[row, row] += spec.dlog_r(3, x)
        for l, y in enumerate(u):
            dx, dy = _dlogf(x, y, c)         # log f(v_j, u_l)
            jac[row, row] -= dx
            jac[row, l] -= dy
    return jac


def _newton(u: tuple, v: tuple, spec: ChainSpec, tol: float) -> tuple[tuple, tuple]:
    """Damped Newton on ``_log_residuals`` from the finite roots (u, v) to new (u, v)."""
    na, c = len(u), spec.c

    def split(vec):
        return tuple(vec[:na].tolist()), tuple(vec[na:].tolist())

    x = np.array(u + v, dtype=complex)
    res = _log_residuals(u, v, spec)
    for _ in range(_MAX_ITER):
        norm = float(np.abs(res).max(initial=0.0))
        if norm < tol:
            return split(x)
        try:
            step = np.linalg.solve(_bethe_jacobian(*split(x), spec), -res)
        except np.linalg.LinAlgError as exc:
            raise BetheSolverError("singular Bethe Jacobian") from exc
        lam = 1.0
        while lam > 1e-4:
            x_new = x + lam * step
            pts = list(x_new)
            if any(abs(p - q) < _COLLISION_TOL * abs(c)
                   for i, p in enumerate(pts) for q in pts[i + 1:]):
                lam *= 0.5
                continue
            try:
                res_new = _log_residuals(*split(x_new), spec)
            except PoleError:
                lam *= 0.5
                continue
            if float(np.abs(res_new).max()) < norm * (1 - 0.25 * lam) + tol:
                break
            lam *= 0.5
        else:
            raise BetheSolverError("Newton damping failed (root collision or pole)")
        x, res = x_new, res_new
    norm = float(np.abs(res).max())
    raise BetheSolverError(f"Bethe solver did not converge (residual {norm:.2e})")


def solve_bethe(seed: BetheRoots, spec: ChainSpec, tol: float = 1e-12) -> BetheRoots:
    """Damped Newton iteration on the log-form residual from a seed.

    Only finite roots are iterated; infinite roots are carried through after
    their twist-consistency condition is checked.  The returned roots are
    re-validated for distinctness.  Every way the iteration fails, an iterate
    that leaves the floating-point range included, raises BetheSolverError.
    """
    k1, k2, k3 = spec.twist.kappa
    if seed.n_u_inf and abs(k2 / k1 - 1.0) > tol:
        raise BetheSolverError("u-roots at infinity are inconsistent with kappa_1 != kappa_2")
    if seed.n_v_inf and abs(k2 / k3 - 1.0) > tol:
        raise BetheSolverError("v-roots at infinity are inconsistent with kappa_2 != kappa_3")
    try:
        u, v = _newton(seed.u, seed.v, spec, tol)
    except (OverflowError, ZeroDivisionError) as exc:
        raise BetheSolverError(f"Newton iterate left the floating-point range ({exc})") from exc
    _check_f_poles(u, v, spec, _COLLISION_TOL * abs(spec.c))
    return replace(seed, u=u, v=v)


def tau_eigenvalue(w: complex, roots: BetheRoots, spec: ChainSpec) -> complex:
    """Transfer-matrix eigenvalue tau_kappa(w | ubar, vbar) at the spec's twist.

    kappa_1 lam_1(w) prod f(u_j,w) + kappa_2 lam_2(w) prod f(w,u_j) prod f(v_k,w)
    - kappa_3 lam_3(w) prod f(v_k,w); roots at infinity contribute factors 1.
    """
    c = spec.c
    for x in list(roots.u) + list(roots.v):
        if w == x:
            raise PoleError("probe point coincides with a Bethe root")
    k1, k2, k3 = spec.twist.kappa
    fu_w = _prod_f(roots.u, [w], c)
    fw_u = _prod_f([w], roots.u, c)
    fv_w = _prod_f(roots.v, [w], c)
    return (k1 * spec.lam(1, w) * fu_w
            + k2 * spec.lam(2, w) * fw_u * fv_w
            - k3 * spec.lam(3, w) * fv_w)


# -- seeding: TQ functional fit ------------------------------------------------


@lru_cache(maxsize=16)
def _tq_grid(spec: ChainSpec, a: int) -> tuple:
    """Sample points of the TQ fit for a u-roots on a circle, and lambda_1..3 there; read-only."""
    rad = 2.0 * abs(spec.c) * (1.0 + 0.15 * spec.M)
    center = np.mean(np.asarray(spec.xi))
    n_pts = 4 * (spec.M + a)
    ang = 2 * np.pi * (np.arange(n_pts) + 0.31) / n_pts
    grid = center + rad * np.exp(1j * ang)
    lam = tuple(np.array([spec.lam(k, w) for w in grid], dtype=complex) for k in (1, 2, 3))
    for arr in (grid, *lam):
        arr.flags.writeable = False
    return grid, lam


def fit_roots_to_samples(a: int, tau_fn, spec: ChainSpec) -> BetheRoots | None:
    """Fit the a finite u-roots of a b = 0 state to its eigenvalue function, at the spec's twist.

    With no v-roots and Q the monic polynomial of the u-roots, on shell

      k1 lam_1(w) Q(w-c) + k2 lam_2(w) Q(w+c) - k3 lam_3(w) Q(w) = tau(w) Q(w)

    holds identically in w.  The relation is linear in the coefficients of Q,
    so one least-squares solve over sample points on a circle gives them;
    the roots are then polished by Newton on the Bethe equations elsewhere.
    Returns None when a root lies beyond 1e6 |c| or two roots coincide.
    """
    c = spec.c
    k1, k2, k3 = spec.twist.kappa
    if a == 0:
        return BetheRoots()

    grid, lam = _tq_grid(spec, a)
    tau = np.array([tau_fn(w) for w in grid], dtype=complex)

    # rows are grid points; each term is a weight times Q at a shifted argument
    weights = (k1 * lam[0], k2 * lam[1], -k3 * lam[2], -tau)
    args = (grid - c, grid + c, grid, grid)
    mat = np.zeros((grid.size, a), dtype=complex)
    rhs = np.zeros(grid.size, dtype=complex)
    for wgt, arg in zip(weights, args):
        for k in range(a):
            mat[:, k] += wgt * arg**k
        rhs += wgt * arg**a
    coeffs = np.linalg.lstsq(mat, -rhs, rcond=None)[0]

    roots = np.roots(np.concatenate([[1.0], coeffs[::-1]]))
    if np.abs(roots).max() > 1e6 * abs(c):
        return None
    try:
        return BetheRoots(u=tuple(roots))
    except ValueError:
        return None


def _capped_roots(coeffs, cap: float) -> np.ndarray:
    """Roots below ``cap`` in modulus; np.roots drops vanishing leading coefficients."""
    roots = np.roots(np.atleast_1d(coeffs))
    return roots[np.abs(roots) < cap]


def subset_seed_candidates(sector: tuple[int, int], spec: ChainSpec):
    """Deterministic Newton seeds for finite-root solutions at the spec's twist, vacuum index 1.

    The second Bethe equation carries no v-v coupling, so with ubar fixed
    every v is a root of the single polynomial
    kappa_3 prod(v - u_l) - kappa_2 prod(v - u_l + c).  Candidate ubar sets
    are drawn from the one-root pool kappa_1 prod(u - xi + c) =
    kappa_2 prod(u - xi); for sectors with b > 0 the dressing by the v-roots
    cancels against the u-exchange factors, so these subsets sit on (or very
    near) the true solutions and the Newton polish is a formality.
    ``classify_spectrum`` draws them for b > 0 sectors only; a b = 0 state
    takes its own TQ-fit seed.
    """
    a, b = sector
    k1, k2, k3 = spec.twist.kappa
    c = spec.c
    xi = np.asarray(spec.xi)
    cap = 1e9 * abs(c)
    pool_u = _capped_roots(k1 * np.poly(xi - c) - k2 * np.poly(xi), cap)
    if len(pool_u) < a:
        return
    for us in itertools.combinations(pool_u, a):
        uarr = np.asarray(us)
        pool_v = _capped_roots(k3 * np.poly(uarr) - k2 * np.poly(uarr - c), cap)
        if len(pool_v) < b:
            continue
        for vs in itertools.combinations(pool_v, b):
            try:
                yield BetheRoots(u=us, v=vs)
            except ValueError:
                continue


# -- twist continuation --------------------------------------------------------


@dataclass
class RootTrajectory:
    """Root motion along one twist direction around kappa = 1.

    Holds the solved roots at 1 - delta, 1 and 1 + delta in one twist
    component.  Roots that stay at infinity are carried as infinite counts;
    roots that descend from infinity under the twist are solved at large
    finite values, where their contribution to the vacuum ratio functions
    remains finite.
    """

    delta: float
    points: list[BetheRoots]

    def dlog_ell_ratio(self, spec: ChainSpec, m: int) -> complex:
        """Central-difference d/dkappa_i of log(ell_1(ubar)/ell_3(vbar)) at 1.

        The difference of logs is taken as the log of the ratio of endpoint
        values, which stays near 1 for small widths and cannot jump branch.
        """
        lo, hi = self.points[0], self.points[-1]
        sites = range(1, m + 1)
        num = spec.r_product(1, hi.u, sites) / spec.r_product(1, lo.u, sites)
        den = spec.r_product(3, hi.v, sites) / spec.r_product(3, lo.v, sites)
        return (np.log(num) - np.log(den)) / (2 * self.delta)


def _descent_seed(kind: str, roots: BetheRoots, spec: ChainSpec) -> complex:
    """Large-|x| seed for one root descending from infinity under the spec's twist.

    From the asymptotic Bethe equation 1 + A c/x = rho (1 + B c/x) with
    rho the relevant kappa ratio: x = c (A - rho B)/(rho - 1).
    """
    c = spec.c
    k1, k2, k3 = spec.twist.kappa
    a_fin, b_fin = len(roots.u), len(roots.v)
    if kind == "u":
        rho = k2 / k1
        a_coef = spec.lam_zero_mode(1) - spec.lam_zero_mode(2)
        b_coef = 2 * a_fin - b_fin
    else:
        rho = k2 / k3
        a_coef = spec.lam_zero_mode(3) - spec.lam_zero_mode(2)
        b_coef = a_fin
    if abs(rho - 1.0) < 1e-14:
        raise BetheSolverError("descent seed requested for an unsplit twist ratio")
    base = np.mean(np.asarray(roots.u)) if roots.u else np.mean(np.asarray(spec.xi))
    return complex(base + c * (a_coef - rho * b_coef) / (rho - 1.0))


def _solve_at_twist(seed: BetheRoots, spec: ChainSpec, tol: float) -> BetheRoots:
    """Re-solve a root set at the spec's twist, descending infinite roots if split."""
    k1, k2, k3 = spec.twist.kappa
    if seed.n_u_inf and abs(k2 / k1 - 1.0) > 1e-14:
        for _ in range(seed.n_u_inf):
            x0 = _descent_seed("u", seed, spec)
            jitter = 1.0 + 0.05 * len(seed.u)
            seed = replace(seed, u=seed.u + (x0 * jitter,), n_u_inf=seed.n_u_inf - 1)
    if seed.n_v_inf and abs(k2 / k3 - 1.0) > 1e-14:
        for _ in range(seed.n_v_inf):
            x0 = _descent_seed("v", seed, spec)
            jitter = 1.0 + 0.05 * len(seed.v)
            seed = replace(seed, v=seed.v + (x0 * jitter,), n_v_inf=seed.n_v_inf - 1)
    return solve_bethe(seed, spec, tol=tol)


def continue_twist(seed: BetheRoots, spec: ChainSpec, direction: int,
                   delta: float, tol: float = 1e-13) -> RootTrajectory:
    """Track roots to kappa_direction = 1 - delta and 1 + delta from a seed at 1.

    ``spec`` is the untwisted chain the seed is on shell for, and ``delta``
    must be above zero.  The seed starts a Newton solve at each end; each
    solution must move by less than a step bound, or a trajectory-jump error
    is raised.
    """
    if direction not in (1, 2, 3):
        raise ValueError("twist direction must be 1, 2 or 3")
    if not spec.twist.is_identity:
        raise ValueError("continuation seeds must be on shell at kappa = 1")
    if not delta > 0:
        raise ValueError(f"twist step delta must be above zero, got {delta!r}")

    # the step as 1 + delta holds it, so both ends sit at 1 -/+ the same step
    step = (1.0 + delta) - 1.0
    c_abs = abs(spec.c)

    def solve_at(sign: float) -> BetheRoots:
        end = replace(spec, twist=spec.twist.replace(direction, 1.0 + sign * step))
        cur = _solve_at_twist(seed, end, tol)
        # compare the common finite roots; Newton preserves component order
        # and freshly descended roots are appended at the tail of each set
        for old_set, new_set in ((seed.u, cur.u), (seed.v, cur.v)):
            for old, new in zip(old_set, new_set):
                bound = 0.2 * c_abs + 0.75 * (abs(old) + abs(new))
                if abs(new - old) > bound:
                    raise BetheSolverError("trajectory jump detected; reduce the step")
        return cur

    fwd = solve_at(+1.0)
    return RootTrajectory(delta, [solve_at(-1.0), seed, fwd])
