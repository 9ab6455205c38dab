"""Inhomogeneous fundamental chain: R-matrix, L-operators, monodromy, transfer.

The chain lives on M three-dimensional graded sites with grading (0,0,1).
Every L-operator permutes tensor factors, so every chain operator on
aux (x) H preserves the local letter content and is stored only as its
content-group blocks (see _content_partition).  Products of L-operators are
accumulated per block with O(N^2) signed-permutation applications, never
O(N^3) matrix products.

The monodromy entries T_ij, operators on H, are read off the blocks through
one cached gather map per chain length, with a fixed sign table BLOCK_SIGNS.
The table is pinned by requiring the zero-mode commutation algebra to hold
entrywise (an exact integer-arithmetic criterion) together with the RTT
residual test; see tests/test_chain.py.  A single-site monodromy is the
L-operator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .graded import (
    FUNDAMENTAL_PARITIES,
    GradedMatrix,
    GradedSpace,
    SignedPermutation,
    graded_permutation,
    permutation_between,
)

__all__ = [
    "TwistConfig",
    "ChainSpec",
    "VacuumFunctions",
    "PoleError",
    "r_matrix",
    "yang_baxter_residual",
    "monodromy_blocks",
    "transfer_matrix",
    "vacuum_eigenvalue",
    "zero_mode",
    "zero_mode_limit",
    "verify_rtt",
    "tm1_residual",
    "BLOCK_SIGNS",
    "f_fun",
    "g_fun",
]

#: sign applied when reading the abstract entry T_ij off the (i,j) auxiliary
#: block of the concrete monodromy; flips the two even-row/odd-column blocks.
BLOCK_SIGNS = np.array([[1, 1, -1], [1, 1, -1], [1, 1, 1]], dtype=float)

_PAR = np.array(FUNDAMENTAL_PARITIES)


class PoleError(ValueError):
    """Spectral parameter hit a pole (u = v, u = xi_n, or an f-function pole)."""


def _c2pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _pair2c(p) -> complex:
    return complex(p[0], p[1])


@dataclass(frozen=True)
class TwistConfig:
    """Diagonal twist kappa = diag(kappa_1, kappa_2, kappa_3)."""

    kappa: tuple[complex, complex, complex] = (1.0 + 0j, 1.0 + 0j, 1.0 + 0j)

    def __post_init__(self):
        object.__setattr__(self, "kappa", tuple(complex(k) for k in self.kappa))
        if len(self.kappa) != 3:
            raise ValueError("twist needs exactly three components")
        if any(k == 0 for k in self.kappa):
            raise ValueError("twist components must be nonzero")

    @property
    def is_identity(self) -> bool:
        return all(k == 1.0 + 0j for k in self.kappa)

    def replace(self, i: int, value: complex) -> "TwistConfig":
        """New twist with component i (1-based) replaced."""
        k = list(self.kappa)
        k[i - 1] = complex(value)
        return TwistConfig(tuple(k))

    def to_json(self) -> list:
        return [_c2pair(k) for k in self.kappa]

    @classmethod
    def from_json(cls, data) -> "TwistConfig":
        return cls(tuple(_pair2c(p) for p in data))


def _default_xi(m: int, c: complex) -> tuple[complex, ...]:
    # small distinct reals lift spectral degeneracies without moving poles
    # anywhere near the default probe points
    return tuple(0.1 * n * c for n in range(1, m + 1))


@dataclass(frozen=True)
class ChainSpec:
    """Model definition: site count, coupling, inhomogeneities, vacuum, twist."""

    M: int
    c: complex = 1.0 + 0j
    xi: tuple[complex, ...] | None = None
    vacuum_index: int = 1
    twist: TwistConfig = field(default_factory=TwistConfig)

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("site count M must be >= 1")
        object.__setattr__(self, "c", complex(self.c))
        if self.c == 0:
            raise ValueError("coupling c must be nonzero")
        xi = self.xi if self.xi is not None else _default_xi(self.M, self.c)
        xi = tuple(complex(x) for x in xi)
        object.__setattr__(self, "xi", xi)
        if len(xi) != self.M:
            raise ValueError("need one inhomogeneity per site")
        if len({x for x in xi}) != self.M:
            raise ValueError("inhomogeneities must be pairwise distinct")
        if self.vacuum_index not in (1, 2, 3):
            raise ValueError("vacuum_index must be 1, 2 or 3")

    # -- geometry ---------------------------------------------------------

    @property
    def hilbert_dim(self) -> int:
        return 3**self.M

    def all_sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.M + 1))

    def vacuum_vector(self, sites: tuple[int, ...] | None = None) -> np.ndarray:
        """Product state |vac> = e_k0 (x) ... (x) e_k0 over the given sites."""
        sites = sites or self.all_sites()
        dim = 3 ** len(sites)
        idx = 0
        for _ in sites:
            idx = idx * 3 + (self.vacuum_index - 1)
        v = np.zeros(dim, dtype=complex)
        v[idx] = 1.0
        return v

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "M": self.M,
            "c": _c2pair(self.c),
            "xi": [_c2pair(x) for x in self.xi],
            "vacuum_index": self.vacuum_index,
            "kappa": self.twist.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainSpec":
        return cls(
            M=int(data["M"]),
            c=_pair2c(data["c"]),
            xi=tuple(_pair2c(p) for p in data["xi"]),
            vacuum_index=int(data["vacuum_index"]),
            twist=TwistConfig.from_json(data["kappa"]),
        )

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# -- permutation and content-sector caches ----------------------------------


@lru_cache(maxsize=128)
def _chain_permutation(n_factors: int, x: int, y: int) -> SignedPermutation:
    factors = tuple([GradedSpace.fundamental()] * n_factors)
    return permutation_between(factors, x, y)


@lru_cache(maxsize=16)
def _content_partition(n_factors: int):
    """Basis index groups of equal letter content, global-to-local map, contents.

    Every L-operator and R-matrix permutes tensor factors, so it preserves
    the multiset of local indices; all chain operators are block diagonal
    over these groups.  Working per group turns the O(9^M) dense algebra
    into a sum of small blocks.  Each group lists its indices in ascending
    order; ``contents[k]`` holds the letter counts (n1, n2, n3) of group k.
    """
    n = 3**n_factors
    idx = np.arange(n)
    key = np.zeros(n, dtype=np.int64)
    rest = idx.copy()
    for _ in range(n_factors):
        digit = rest % 3
        key += np.where(digit == 0, 1, 0) + np.where(digit == 1, n_factors + 1, 0)
        rest //= 3
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    splits = np.nonzero(np.diff(sorted_key))[0] + 1
    groups = tuple(np.split(order, splits))
    g2l = np.empty(n, dtype=np.int64)
    for ix in groups:
        g2l[ix] = np.arange(ix.size)
    n2, n1 = np.divmod(sorted_key[np.r_[0, splits]], n_factors + 1)
    contents = tuple((int(a), int(b), n_factors - int(a + b)) for a, b in zip(n1, n2))
    return groups, g2l, contents


def _blocked_eye(groups) -> list[np.ndarray]:
    return [np.eye(ix.size, dtype=complex) for ix in groups]


def _blocked_perm_apply(blocks, groups, g2l, perm: SignedPermutation, g: complex) -> None:
    """blocks <- (I + g P) blocks, per content group, in place."""
    for k, ix in enumerate(groups):
        dl = g2l[perm.dest[ix]]
        sl = perm.sign[ix]
        x = blocks[k]
        y = np.empty_like(x)
        y[dl] = sl[:, None] * x
        blocks[k] = x + g * y


@lru_cache(maxsize=16)
def _gather_map(m_sites: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Where the entries of the aux (x) H content-group blocks land among the T_ij.

    Concatenating the raveled blocks gives one flat array; its entry e is an
    entry of the (i,j) auxiliary block and sits at flat position ``dest[e]``
    of a (3, 3, 3^M, 3^M) array.  ``diag[i]`` lists the entries of the
    auxiliary block (i,i) with their flat positions on H alone.
    """
    groups, _, _ = _content_partition(m_sites + 1)
    dh = 3**m_sites
    aux_row, h_row = np.divmod(np.concatenate([np.repeat(ix, ix.size) for ix in groups]), dh)
    aux_col, h_col = np.divmod(np.concatenate([np.tile(ix, ix.size) for ix in groups]), dh)
    on_h = h_row * dh + h_col
    dest = (3 * aux_row + aux_col) * dh * dh + on_h
    diag = []
    for i in range(3):
        entries = np.nonzero((aux_row == i) & (aux_col == i))[0]
        diag.append((entries, on_h[entries]))
    return dest, tuple(diag)


def _read_off(spec: ChainSpec, blocks) -> np.ndarray:
    """3x3 object array of the entries T_ij on H, signed by BLOCK_SIGNS."""
    dh = spec.hilbert_dim
    dest, _ = _gather_map(spec.M)
    entries = np.zeros(9 * dh * dh, dtype=complex)
    entries[dest] = np.concatenate([blk.ravel() for blk in blocks])
    entries = entries.reshape(3, 3, dh, dh)
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            # +1 entries too: the complex multiply fixes the sign of zeros
            entries[i, j] *= BLOCK_SIGNS[i, j]
            out[i, j] = entries[i, j]
    return out


def g_fun(u: complex, v: complex, c: complex) -> complex:
    if u == v:
        raise PoleError("g(u,v) pole at u = v")
    return c / (u - v)


def f_fun(u: complex, v: complex, c: complex) -> complex:
    if u == v:
        raise PoleError("f(u,v) pole at u = v")
    return (u - v + c) / (u - v)


# -- vacuum functions -------------------------------------------------------


class VacuumFunctions:
    """Closed-form vacuum eigenvalues and their ratios for a chain spec.

    For vacuum index k0 the single-site diagonal eigenvalues are
    lambda_k(u|n) = 1 + (-1)^{[k0]} g(u, xi_n) for k = k0 and 1 otherwise;
    every multi-site quantity is the product over the relevant sites.  The
    closed forms are cross-checked against direct application of the
    monodromy to the vacuum in vacuum_eigenvalue().
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self._sgn = (-1) ** _PAR[spec.vacuum_index - 1]

    def _sites(self, sites) -> tuple[int, ...]:
        return self.spec.all_sites() if sites is None else tuple(sites)

    def lam_site(self, k: int, u: complex, n: int) -> complex:
        """lambda_k(u|n), vacuum eigenvalue of the n-th local L-operator."""
        if k != self.spec.vacuum_index:
            return 1.0 + 0j
        return 1.0 + self._sgn * g_fun(u, self.spec.xi[n - 1], self.spec.c)

    def lam(self, k: int, u: complex, sites=None) -> complex:
        return complex(np.prod([self.lam_site(k, u, n) for n in self._sites(sites)] or [1.0]))

    def lam_zero_mode(self, k: int, sites=None) -> complex:
        """Coefficient in lambda_k^(range)(u) = 1 + coeff * c/u + O(u^-2)."""
        if k != self.spec.vacuum_index:
            return 0.0 + 0j
        return complex(self._sgn * len(self._sites(sites)))

    def r(self, k: int, u: complex, sites=None) -> complex:
        """Ratio r_k = lambda_k / lambda_2 over a site range, k in {1,3}."""
        return self.lam(k, u, sites) / self.lam(2, u, sites)

    def ell(self, k: int, u: complex, m: int) -> complex:
        """ell_k(u) = r_k over the first sub-chain, sites 1..m."""
        return self.r(k, u, sites=range(1, m + 1))

    def ell_site(self, k: int, u: complex, n: int) -> complex:
        """Per-site ratio ell_k(u|n) = lambda_k(u|n)/lambda_2(u|n)."""
        return self.lam_site(k, u, n) / self.lam_site(2, u, n)

    def dlog_r(self, k: int, u: complex, sites=None) -> complex:
        """d/du log r_k(u) over a site range (analytic)."""
        c = self.spec.c
        k0 = self.spec.vacuum_index
        total = 0.0 + 0j
        for n in self._sites(sites):
            x = self.spec.xi[n - 1]
            if k == k0:
                total += self._sgn * (-c / (u - x) ** 2) / (1.0 + self._sgn * c / (u - x))
            if k0 == 2:
                # dividing by lambda_2 contributes for every k
                total -= self._sgn * (-c / (u - x) ** 2) / (1.0 + self._sgn * c / (u - x))
        return total

    # products over root sets (empty product = 1; non-finite roots skipped)

    def ell_product(self, k: int, roots, m: int) -> complex:
        out = 1.0 + 0j
        for x in roots:
            if np.isfinite(x):
                out *= self.ell(k, x, m)
        return out

    def ell_site_product(self, k: int, roots, n: int) -> complex:
        out = 1.0 + 0j
        for x in roots:
            if np.isfinite(x):
                out *= self.ell_site(k, x, n)
        return out


# -- R-matrix and Yang-Baxter ------------------------------------------------


def r_matrix(u: complex, v: complex, c: complex) -> GradedMatrix:
    """R(u,v) = I + g(u,v) P on the product of two fundamental spaces."""
    g = g_fun(u, v, c)
    fund = GradedSpace.fundamental()
    p = graded_permutation(fund, fund)
    return GradedMatrix(p.space, np.eye(9) + g * p.mat)


def yang_baxter_residual(u: complex, v: complex, w: complex, c: complex) -> float:
    """Max-entry residual of R12 R13 R23 = R23 R13 R12 on V (x) V (x) V."""
    fund = GradedSpace.fundamental()
    factors = [fund] * 3
    eye = np.eye(27, dtype=complex)

    def r_embedded(x, y, a, b):
        perm = permutation_between(factors, x, y)
        return eye + g_fun(a, b, c) * perm.to_matrix()

    r12 = r_embedded(0, 1, u, v)
    r13 = r_embedded(0, 2, u, w)
    r23 = r_embedded(1, 2, v, w)
    return float(np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12).max())


# -- L-operators and monodromy ------------------------------------------------


def _check_poles(spec: ChainSpec, u: complex, sites) -> None:
    for n in sites:
        if u == spec.xi[n - 1]:
            raise PoleError(f"spectral parameter hits inhomogeneity xi_{n}")


def _apply_l_blocked(spec: ChainSpec, blocks, groups, g2l, n: int, u: complex,
                     n_factors: int, aux: int, site_offset: int) -> None:
    """blocks <- L_n(u) blocks with L_n = I + g(u, xi_n) P_{aux,n}."""
    g = g_fun(u, spec.xi[n - 1], spec.c)
    perm = _chain_permutation(n_factors, aux, site_offset + n - 1)
    _blocked_perm_apply(blocks, groups, g2l, perm, g)


def _monodromy_groups(spec: ChainSpec, u: complex, sites: tuple[int, ...]) -> list[np.ndarray]:
    """Content-group blocks of the ordered product L_{sites[-1]} ... L_{sites[0]}.

    ``sites`` must be ascending; the leftmost factor is the largest site,
    matching the ordered-product convention of the total monodromy.
    """
    _check_poles(spec, u, sites)
    n_factors = 1 + spec.M
    groups, g2l, _ = _content_partition(n_factors)
    blocks = _blocked_eye(groups)
    for n in sites:
        _apply_l_blocked(spec, blocks, groups, g2l, n, u, n_factors, 0, 1)
    return blocks


def _resolve_sites(spec: ChainSpec, sites) -> tuple[int, ...]:
    sites = spec.all_sites() if sites is None else tuple(sites)
    if any(not 1 <= n <= spec.M for n in sites):
        raise ValueError("site out of range")
    if list(sites) != sorted(sites):
        raise ValueError("site range must be ascending")
    return sites


def monodromy_blocks(spec: ChainSpec, u: complex, sites=None) -> np.ndarray:
    """3x3 object array of the entries T_ij(u) as operators on H.

    The monodromy over a site interval; the full chain when sites is None,
    the L-operator L_n(u) = I + g(u, xi_n) P_{0n} when sites is [n].  Entries
    are signed with BLOCK_SIGNS so that they satisfy the graded RTT
    commutation relations verbatim.
    """
    sites = _resolve_sites(spec, sites)
    return _read_off(spec, _monodromy_groups(spec, u, sites))


def transfer_matrix(spec: ChainSpec, u: complex, twist: TwistConfig | None = None,
                    sites=None) -> np.ndarray:
    """Twisted transfer matrix sum_i (-1)^{[i]} kappa_i T_ii(u) on H."""
    sites = _resolve_sites(spec, sites)
    twist = twist if twist is not None else spec.twist
    flat = np.concatenate([blk.ravel() for blk in _monodromy_groups(spec, u, sites)])
    _, diag = _gather_map(spec.M)
    dh = spec.hilbert_dim
    out = np.zeros(dh * dh, dtype=complex)
    for i, (entries, on_h) in enumerate(diag):
        out[on_h] += (-1) ** _PAR[i] * twist.kappa[i] * flat[entries]
    return out.reshape(dh, dh)


def vacuum_eigenvalue(spec: ChainSpec, k: int, sites, u: complex,
                      rtol: float = 1e-10) -> complex:
    """lambda_k over the sub-chain, read off by applying T_kk to the vacuum.

    Raises if the partial vacuum fails to be an eigenvector at ``rtol``,
    which signals a broken vacuum assumption.
    """
    sites = _resolve_sites(spec, sites)
    blocks = monodromy_blocks(spec, u, sites)
    vac = spec.vacuum_vector()
    image = blocks[k - 1, k - 1] @ vac
    lam = complex(vac.conj() @ image)
    resid = float(np.abs(image - lam * vac).max())
    if resid > rtol * max(1.0, abs(lam)):
        raise ValueError(
            f"partial vacuum is not an eigenvector of T_{k}{k} (residual {resid:.2e})"
        )
    return lam


def zero_mode(spec: ChainSpec, sites=None) -> np.ndarray:
    """3x3 object array of zero modes T_ij[0] over a site range.

    Computed structurally as the sum of the local permutation blocks,
    sum_{n in range} (L_n[0])_ij with L_n[0] = P_{0n}; exact integer matrices.
    An empty range gives zero operators.  Results are cached per (spec,
    range); callers treat the blocks as read-only.
    """
    sites = () if sites == () else _resolve_sites(spec, sites)
    return _zero_mode_cached(spec, sites)


@lru_cache(maxsize=64)
def _zero_mode_cached(spec: ChainSpec, sites: tuple[int, ...]) -> np.ndarray:
    n_factors = 1 + spec.M
    groups, g2l, _ = _content_partition(n_factors)
    blocks = [np.zeros((ix.size, ix.size), dtype=complex) for ix in groups]
    for n in sites:
        perm = _chain_permutation(n_factors, 0, n)
        for blk, ix in zip(blocks, groups):
            blk[g2l[perm.dest[ix]], np.arange(ix.size)] += perm.sign[ix]
    return _read_off(spec, blocks)


def zero_mode_limit(spec: ChainSpec, sites=None, scale: float = 1e6) -> np.ndarray:
    """Zero modes from the large-u limit (u/c)(T(u) - 1); cross-check only."""
    sites = _resolve_sites(spec, sites)
    u = scale * spec.c
    blocks = [(u / spec.c) * (blk - np.eye(blk.shape[0]))
              for blk in _monodromy_groups(spec, u, sites)]
    return _read_off(spec, blocks)


# -- RTT conformance ----------------------------------------------------------


def verify_rtt(spec: ChainSpec, u: complex, v: complex) -> float:
    """Max-entry residual of the RTT relation on V (x) V (x) H.

    Builds R(u,v) (T(u) (x) I) (I (x) T(v)) and the reversed side with O(N^2)
    permutation applications and returns the largest entry of the difference.
    """
    if u == v:
        raise PoleError("RTT check needs u != v")
    _check_poles(spec, u, spec.all_sites())
    _check_poles(spec, v, spec.all_sites())
    n_factors = 2 + spec.M
    g = g_fun(u, v, spec.c)
    p_ab = _chain_permutation(n_factors, 0, 1)
    groups, g2l, _ = _content_partition(n_factors)

    # LHS = R . T_a(u) . T_b(v), built right factor first
    lhs = _blocked_eye(groups)
    for n in spec.all_sites():
        _apply_l_blocked(spec, lhs, groups, g2l, n, v, n_factors, aux=1, site_offset=2)
    for n in spec.all_sites():
        _apply_l_blocked(spec, lhs, groups, g2l, n, u, n_factors, aux=0, site_offset=2)
    _blocked_perm_apply(lhs, groups, g2l, p_ab, g)

    # RHS = T_b(v) . T_a(u) . R
    rhs = _blocked_eye(groups)
    _blocked_perm_apply(rhs, groups, g2l, p_ab, g)
    for n in spec.all_sites():
        _apply_l_blocked(spec, rhs, groups, g2l, n, u, n_factors, aux=0, site_offset=2)
    for n in spec.all_sites():
        _apply_l_blocked(spec, rhs, groups, g2l, n, v, n_factors, aux=1, site_offset=2)

    return max(float(np.abs(a - b).max()) for a, b in zip(lhs, rhs))


def tm1_residual(spec: ChainSpec, u: complex, v: complex,
                 indices: tuple[int, int, int, int]) -> float:
    """Residual of one entry-level commutation relation of the RTT algebra.

    Checks [T_ij(u), T_kl(v)} =
    (-1)^{[i]([k]+[l]) + [k][l]} g(u,v) (T_kj(v) T_il(u) - T_kj(u) T_il(v))
    for the given (i,j,k,l), normalized by the largest entry magnitude.
    """
    i, j, k, l = indices
    bu = monodromy_blocks(spec, u)
    bv = monodromy_blocks(spec, v)
    pi, pj, pk, pl = (_PAR[x - 1] for x in indices)
    sign_comm = -1.0 if ((pi + pj) % 2) and ((pk + pl) % 2) else 1.0
    lhs = bu[i - 1, j - 1] @ bv[k - 1, l - 1] - sign_comm * bv[k - 1, l - 1] @ bu[i - 1, j - 1]
    pref = (-1) ** ((pi * (pk + pl) + pk * pl) % 2) * g_fun(u, v, spec.c)
    rhs = pref * (bv[k - 1, j - 1] @ bu[i - 1, l - 1] - bu[k - 1, j - 1] @ bv[i - 1, l - 1])
    scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()), 1.0)
    return float(np.abs(lhs - rhs).max()) / scale
