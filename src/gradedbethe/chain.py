"""Inhomogeneous fundamental chain: L-operators, monodromy, transfer, zero modes.

The chain lives on M three-dimensional graded sites with grading (0,0,1).
Every L-operator permutes tensor factors, so every chain operator on
aux (x) H preserves the local letter content and is stored only as its
content-group blocks (see _content_partition).  Products of L-operators are
accumulated with O(N^2) signed-permutation applications, never O(N^3)
matrix products, one content group at a time: every factor runs on a
group's block before the next group starts.

An entry T_ij maps each H content group s onto the group s + e_j - e_i: it
is one sub-block of the aux (x) H group of content s + e_j per H group.  So
entries are read with ``monodromy_entries(spec, u, pairs, sites, contents)``: the
named entries on the named contents, as {(i, j): {s: (image, block)}}, built
from only the groups that hold them, one group at a time, each dropped once
its blocks are copied out (``entry_blocks``, signed with a fixed table
BLOCK_SIGNS).  ``transfer_blocks`` and ``zero_mode_limit_groups`` read the
same one-group-at-a-time stream, so no read holds a whole group set.  The
zero modes T_ij[0] come straight from their closed form in the same
{s: (image, block)} form (``zero_mode_entry``).  The states these operators
act on are vectors on one content group each (``spectrum.sandwich`` reads
the one block between two of them).  No 3^M x 3^M matrix is ever formed.
``verify_rtt`` compares the two sides of the RTT relation one aux (x) aux (x)
H group at a time.  Each side is 1 (x) T at one point, placed from the aux
(x) H group blocks, followed by M + 1 row steps: 2M + 2 per group, the right
side rewritten with the graded swap P of the auxiliary spaces as
P T_a(v) (1 (x) T(u)) (P + g).  Both sides share four scratch buffers,
allocated once per call.
The sign table is pinned by requiring the zero-mode commutation algebra to
hold entrywise (an exact integer-arithmetic criterion) together with the RTT
residual test; see tests/test_chain.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .graded import FUNDAMENTAL_PARITIES, GradedSpace, permutation_between

__all__ = [
    "TwistConfig",
    "ChainSpec",
    "VacuumFunctions",
    "PoleError",
    "yang_baxter_residual",
    "monodromy_entries",
    "entry_blocks",
    "combine",
    "compose",
    "transfer_blocks",
    "vacuum_eigenvalue",
    "zero_mode_entry",
    "zero_mode_limit_groups",
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
_DIAGONAL = ((1, 1), (2, 2), (3, 3))


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
    """Model definition: site count, coupling, inhomogeneities, twist.

    The vacuum is e_1 on every site; root seeding and the sector labels
    count against it.
    """

    M: int
    c: complex = 1.0 + 0j
    xi: tuple[complex, ...] | None = None
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

    # -- geometry ---------------------------------------------------------

    def all_sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.M + 1))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "M": self.M,
            "c": _c2pair(self.c),
            "xi": [_c2pair(x) for x in self.xi],
            "kappa": self.twist.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainSpec":
        return cls(
            M=int(data["M"]),
            c=_pair2c(data["c"]),
            xi=tuple(_pair2c(p) for p in data["xi"]),
            twist=TwistConfig.from_json(data["kappa"]),
        )


# -- permutation and content-sector caches ----------------------------------


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


@lru_cache(maxsize=128)
def _step_plan(n_factors: int, x: int, y: int) -> tuple:
    """The graded permutation P_xy per content group, as (source rows, flipped rows).

    Row q of P X is X[src[q]] within each group, negated where flipped[q];
    ``flipped`` is a boolean column, so it broadcasts over a group's columns,
    or None when P_xy flips no sign on the group.
    """
    groups, g2l, _ = _content_partition(n_factors)
    perm = permutation_between((GradedSpace.fundamental(),) * n_factors, x, y)
    plans = []
    for ix in groups:
        src = np.empty(ix.size, dtype=np.int64)
        src[g2l[perm.dest[ix]]] = np.arange(ix.size)
        flipped = perm.sign[ix][src] < 0
        plans.append((src, flipped[:, None] if flipped.any() else None))
    return tuple(plans)


def _square(buf: np.ndarray, size: int) -> np.ndarray:
    """The leading size^2 entries of a flat buffer, as a size x size view."""
    return buf[:size * size].reshape(size, size)


def _group_product(k: int, size: int, steps, start=None, scratch=None) -> np.ndarray:
    """Block of F_S ... F_1 X on content group k, for steps [(plan, g), ...].

    Each factor is I + g P, or the graded permutation P alone where g is None.
    X is ``start`` (overwritten), or the identity.  Every step runs on this one
    group, so its block stays in cache, with two scratch buffers: the rows
    gathered, b = g * rows (``g`` first, out of place), then x + b, or x - b on
    the flipped rows.  Each entry gets the bits of x + g * (sign * x[src])
    with no multiply by the sign.  Given ``scratch``, flat buffers of at least
    size^2 entries, the work buffers are laid out in them: three, the first
    holding X = I, or two when ``start`` is given.  The block returned is
    ``start`` or one of those buffers, never the last scratch buffer.
    """
    views = [_square(buf, size) for buf in scratch or ()]
    x = start
    if x is None:
        x = views.pop(0) if views else np.empty((size, size), dtype=complex)
        x.fill(0)
        x.flat[::size + 1] = 1
    a, b = views or (np.empty_like(x), np.empty_like(x))
    for plan, g in steps:
        src, flipped = plan[k]
        x.take(src, axis=0, out=a, mode="clip")
        if g is not None:
            np.multiply(g, a, out=b)
            np.add(x, b, out=a)
            if flipped is not None:
                np.subtract(x, b, out=a, where=flipped)
        elif flipped is not None:
            np.negative(a, out=a, where=flipped)
        x, a = a, x
    return x


@lru_cache(maxsize=16)
def _block_map(m_sites: int):
    """Where the block of each monodromy entry on each H content group sits.

    The block of T_ij on H content s is the part of the aux (x) H group of
    content s + e_j with aux letter i in the rows and j in the columns.  The
    aux letter is the leading digit, so both runs are contiguous and list H
    indices in ascending order, as the H groups do.  Returns ``index`` (H
    content -> basis indices) and ``entries[i][j]`` (0-based): tuples (s,
    image, aux group, row slice, column slice) where T_ij does not vanish.
    """
    h_groups, _, h_contents = _content_partition(m_sites)
    aux_groups, _, aux_contents = _content_partition(m_sites + 1)
    index = dict(zip(h_contents, h_groups))
    aux_of = {s: g for g, s in enumerate(aux_contents)}
    entries = [[[] for _ in range(3)] for _ in range(3)]
    for s in h_contents:
        for j in range(3):
            up = tuple(n + (t == j) for t, n in enumerate(s))
            g = aux_of[up]
            runs = np.searchsorted(aux_groups[g], np.arange(4) * 3**m_sites)
            for i in range(3):
                image = tuple(n - (t == i) for t, n in enumerate(up))
                if image in index:
                    entries[i][j].append((s, image, g, slice(runs[i], runs[i + 1]),
                                          slice(runs[j], runs[j + 1])))
    return index, entries


def entry_blocks(spec: ChainSpec, groups: dict, i: int, j: int, contents=None) -> dict:
    """The entry T_ij (1-based) of an aux (x) H operator given by group blocks {k: block}.

    Returns {s: (image, block)}, blocks copied and signed with BLOCK_SIGNS,
    each mapping H content s onto ``image``, for every s or only the given
    ``contents``.  Contents T_ij annihilates, or whose aux (x) H group is not
    in ``groups``, are absent.
    """
    _, entries = _block_map(spec.M)
    sign = BLOCK_SIGNS[i - 1, j - 1]
    return {s: (image, sign * groups[g][rows, cols])
            for s, image, g, rows, cols in entries[i - 1][j - 1]
            if g in groups and (contents is None or s in contents)}


def combine(*terms) -> dict:
    """sum_t c_t A_t for (c_t, A_t) pairs of H operators given as {s: (image, block)}."""
    out = {}
    for coef, op in terms:
        for s, (image, blk) in op.items():
            out[s] = (image, out[s][1] + coef * blk) if s in out else (image, coef * blk)
    return out


def compose(a: dict, b: dict) -> dict:
    """The product a . b of H operators given as {s: (image, block)}."""
    return {s: (a[m][0], a[m][1] @ blk) for s, (m, blk) in b.items() if m in a}


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

    The vacuum is e_1 on every site, and index 1 is even, so the single-site
    diagonal eigenvalues are lambda_1(u|n) = 1 + g(u, xi_n) and
    lambda_2 = lambda_3 = 1; every multi-site quantity is the product over
    the relevant sites.  The closed forms are cross-checked against direct
    application of the monodromy to the vacuum in vacuum_eigenvalue().
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec

    def _sites(self, sites) -> tuple[int, ...]:
        return self.spec.all_sites() if sites is None else tuple(sites)

    def lam_site(self, k: int, u: complex, n: int) -> complex:
        """lambda_k(u|n), vacuum eigenvalue of the n-th local L-operator."""
        if k != 1:
            return 1.0 + 0j
        # a numpy scalar, so the ratios built from it divide as numpy does
        return 1.0 + np.complex128(g_fun(u, self.spec.xi[n - 1], self.spec.c))

    def lam(self, k: int, u: complex, sites=None) -> complex:
        return complex(math.prod(self.lam_site(k, u, n) for n in self._sites(sites)))

    def lam_zero_mode(self, k: int, sites=None) -> complex:
        """Coefficient in lambda_k^(range)(u) = 1 + coeff * c/u + O(u^-2)."""
        if k != 1:
            return 0.0 + 0j
        return complex(len(self._sites(sites)))

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
        if k != 1:
            return 0.0 + 0j
        c = self.spec.c
        total = 0.0 + 0j
        for n in self._sites(sites):
            x = self.spec.xi[n - 1]
            # numpy scalars here too, as in lam_site
            total += np.complex128(-c / (u - x) ** 2) / (1.0 + np.complex128(c) / (u - x))
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


# -- Yang-Baxter -------------------------------------------------------------


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


def _l_steps(spec: ChainSpec, u: complex, sites, n_factors: int, aux: int) -> list:
    """Steps of L_{sites[-1]}(u) ... L_{sites[0]}(u), L_n = I + g(u, xi_n) P_{aux,n}.

    The sites are the last M of the n_factors tensor factors.
    """
    offset = n_factors - spec.M - 1
    return [(_step_plan(n_factors, aux, offset + n), g_fun(u, spec.xi[n - 1], spec.c))
            for n in sites]


def _resolve_sites(spec: ChainSpec, sites) -> tuple[int, ...]:
    sites = spec.all_sites() if sites is None else tuple(sites)
    if any(not 1 <= n <= spec.M for n in sites):
        raise ValueError("site out of range")
    if list(sites) != sorted(sites):
        raise ValueError("site range must be ascending")
    return sites


def _stream(spec: ChainSpec, u: complex, pairs, sites=None, contents=None):
    """(k, block) for each aux (x) H group k holding an entry (i, j) in ``pairs`` on ``contents``.

    The monodromy L_{sites[-1]}(u) ... L_{sites[0]}(u) over an ascending site
    interval, the full chain when sites is None.  Every group is built once, in
    ascending k, in the same three scratch buffers sized for the largest: read
    a block (entry_blocks copies it out) before asking for the next.
    """
    sites = _resolve_sites(spec, sites)
    _check_poles(spec, u, sites)
    steps = _l_steps(spec, u, sites, spec.M + 1, aux=0)
    groups = _content_partition(spec.M + 1)[0]
    _, entries = _block_map(spec.M)
    wanted = sorted({g for i, j in pairs for s, _, g, _, _ in entries[i - 1][j - 1]
                     if contents is None or s in contents})
    largest = max((groups[k].size for k in wanted), default=0)
    scratch = [np.empty(largest ** 2, dtype=complex) for _ in range(3)]
    for k in wanted:
        yield k, _group_product(k, groups[k].size, steps, scratch=scratch)


def monodromy_entries(spec: ChainSpec, u: complex, pairs, sites=None, contents=None) -> dict:
    """The entries (i, j) in ``pairs`` of T(u) over ``sites``, as {(i, j): {s: (image, block)}}.

    Only the aux (x) H groups holding one of these entries on ``contents`` (all
    H contents if None) are built, each once, and each is dropped as soon as
    its blocks are copied out (see _stream).
    """
    out = {(i, j): {} for i, j in pairs}
    for k, block in _stream(spec, u, out, sites, contents):
        for (i, j), op in out.items():
            op.update(entry_blocks(spec, {k: block}, i, j, contents))
    return out


def transfer_blocks(spec: ChainSpec, u: complex, contents=None) -> dict:
    """sum_i (-1)^{[i]} kappa_i T_ii(u) as {s: (s, block)}, only at ``contents`` if given.

    The three blocks T_ii on content s sit in three aux (x) H groups, s + e_i,
    taken from _stream one at a time.  Each block is held until its content has
    all three, and they are summed in i order as ``combine`` sums them, so no
    group set is ever held and the sum has the bits of combine over one.
    """
    coefs = [(-1) ** _PAR[i] * spec.twist.kappa[i] for i in range(3)]
    held, t = {}, {}
    for k, block in _stream(spec, u, _DIAGONAL, contents=contents):
        for i in range(3):
            for s, entry in entry_blocks(spec, {k: block}, i + 1, i + 1, contents).items():
                held.setdefault(s, {})[i] = {s: entry}
                if len(held[s]) == 3:
                    terms = held.pop(s)
                    t[s] = combine(*[(coefs[n], terms[n]) for n in range(3)])[s]
    return {s: t[s] for s in (_block_map(spec.M)[0] if contents is None else contents)}


def vacuum_eigenvalue(spec: ChainSpec, k: int, sites, u: complex) -> complex:
    """lambda_k over the sub-chain, read off T_kk on the vacuum e_1 (x) ... (x) e_1.

    The vacuum is the only basis vector of content (M, 0, 0) and T_kk keeps
    content, so the vacuum is an eigenvector by construction and lambda_k is
    the 1 x 1 block of T_kk there, in the one aux (x) H group vacuum + e_k.
    """
    vac = (spec.M, 0, 0)
    t_kk = monodromy_entries(spec, u, [(k, k)], sites, [vac])[k, k]
    return complex(t_kk[vac][1][0, 0])


@lru_cache(maxsize=16)
def _letters(m_sites: int):
    """Letter on site n (row n - 1) of every H basis index, and the odd letters before it."""
    letters = np.arange(3**m_sites) // 3 ** np.arange(m_sites - 1, -1, -1)[:, None] % 3
    return letters, np.cumsum(letters == 2, axis=0) - (letters == 2)


def zero_mode_entry(spec: ChainSpec, i: int, j: int, sites=None, contents=None) -> dict:
    """The zero mode T_ij[0] (1-based) over a site range as {s: (image, block)}.

    T_ij[0] = sum_{n in range} (-1)^{[j]} (-1)^{([i]+[j]) N_odd(<n)} E^(n)_{i->j}:
    E^(n)_{i->j} turns letter i on site n (site 1 is the leading base-3 digit)
    into j, and N_odd(<n) counts the odd letters on the sites before n.  Exact
    integers, the blocks entry_blocks reads off the large-u limit; for every
    H content s with an image, or only the given ``contents``.
    """
    sites = () if sites == () else _resolve_sites(spec, sites)
    n = np.asarray(sites, dtype=np.int64) - 1
    letters, odd_before = (table[n] for table in _letters(spec.M))
    _, g2l, _ = _content_partition(spec.M)
    index, entries = _block_map(spec.M)
    out = {}
    for s, image, *_ in entries[i - 1][j - 1]:
        if contents is None or s in contents:
            row, col = np.nonzero(letters[:, index[s]] == i - 1)
            x = index[s][col]
            odd = (_PAR[i - 1] + _PAR[j - 1]) * odd_before[row, x]
            blk = np.zeros((index[image].size, index[s].size), dtype=complex)
            np.add.at(blk, (g2l[x + (j - i) * 3 ** (spec.M - 1 - n[row])], col),
                      (-1.0) ** _PAR[j - 1] * (-1.0) ** odd)
            out[s] = (image, blk)
    return out


def zero_mode_limit_groups(spec: ChainSpec, scale: float = 1e6):
    """Zero modes from the large-u limit (u/c)(T(u) - 1); cross-check only.

    Yields (k, block) for every aux (x) H group k, one at a time in _stream's
    scratch buffers (every group holds a diagonal entry): read or copy each
    block before asking for the next.
    """
    u = scale * spec.c
    for k, block in _stream(spec, u, _DIAGONAL):
        # (u/c)(T - 1) in place, with the bits of the out-of-place form
        block.flat[::block.shape[0] + 1] -= 1
        np.multiply(u / spec.c, block, out=block)
        yield k, block


# -- RTT conformance ----------------------------------------------------------


def verify_rtt(spec: ChainSpec, u: complex, v: complex) -> float:
    """Max-entry residual of the RTT relation on V (x) V (x) H.

    Compares R(u,v) T_a(u) T_b(v) with T_b(v) T_a(u) R(u,v), T_a acting on the
    first auxiliary space and T_b = 1 (x) T on the second, one aux (x) aux (x) H
    group at a time, and returns the largest entry of the difference.  With P
    the graded swap of the two auxiliary spaces, T_a(u) = P T_b(u) P and
    R = 1 + g P, so the right side is P T_a(v) T_b(u) (P + g).  Each side starts
    from T_b at one point, block diagonal in the first auxiliary letter with the
    aux (x) H group blocks of T on the diagonal: as placed for the left side,
    times P + g (a signed column gather plus g times itself) for the right.
    Then M + 1 row steps run on each group, T_a(u) and R on the left, T_a(v)
    and P on the right: 2M + 2 in all.  Both sides share four scratch buffers
    sized for the largest group, allocated once, and each aux (x) H block of
    T(u) and T(v) is held only until its last group.
    """
    if u == v:
        raise PoleError("RTT check needs u != v")
    sites = spec.all_sites()
    _check_poles(spec, u, sites)
    _check_poles(spec, v, sites)
    n_factors = 2 + spec.M
    g = g_fun(u, v, spec.c)
    swap = _step_plan(n_factors, 0, 1)
    lhs_steps = _l_steps(spec, u, sites, n_factors, aux=0) + [(swap, g)]
    rhs_steps = _l_steps(spec, v, sites, n_factors, aux=0) + [(swap, None)]
    # T(u) and T(v) on aux (x) H, held per content; T_b puts the block of content
    # s on the row and column run of first letter l in the group of content s + e_l
    inner, _, inner_contents = _content_partition(n_factors - 1)
    inner_of = {s: (k, ix.size) for k, (ix, s) in enumerate(zip(inner, inner_contents))}
    at = [_l_steps(spec, p, sites, n_factors - 1, aux=0) for p in (u, v)]
    groups, _, _ = _content_partition(n_factors)
    _, entries = _block_map(n_factors - 1)
    runs = [[] for _ in groups]
    for letter in range(3):
        for s, _, k, rows, _ in entries[letter][letter]:
            runs[k].append((s, rows))
    last = {s: k for k, group_runs in enumerate(runs) for s, _ in group_runs}
    held = {}
    largest = max(ix.size for ix in groups)
    bufs = [np.empty(largest ** 2, dtype=complex) for _ in range(4)]

    def placed(buf: np.ndarray, point: int) -> np.ndarray:
        # T_b at u (0) or v (1) on group k, in ``buf``
        x = _square(buf, size)
        x.fill(0)
        for s, rows in runs[k]:
            x[rows, rows] = held[s][point]
        return x

    worst = 0.0
    for k, ix in enumerate(groups):
        size = ix.size
        for s, _ in runs[k]:
            if s not in held:
                held[s] = [_group_product(*inner_of[s], steps, scratch=bufs[:3]).copy()
                           for steps in at]
        # left: R T_a(u) T_b(v), in the first three buffers
        lhs = _group_product(k, size, lhs_steps, placed(bufs[0], 1), bufs[1:3])
        free = bufs[1] if lhs.base is bufs[0] else bufs[0]
        # right: P T_a(v) T_b(u) (P + g).  Column q of T_b(u) P is column src[q]
        # of T_b(u), negated where P flips row q (P is symmetric)
        src, flipped = swap[k]
        x = placed(bufs[3], 0)
        x_p, g_x = _square(free, size), _square(bufs[2], size)
        x.take(src, axis=1, out=x_p, mode="clip")
        np.multiply(g, x, out=g_x)
        np.add(g_x, x_p, out=x)
        if flipped is not None:
            np.subtract(g_x, x_p, out=x, where=flipped.T)
        rhs = _group_product(k, size, rhs_steps, x, (free, bufs[2]))
        diff = _square(bufs[2], size)
        np.subtract(lhs, rhs, out=diff)
        # lhs is read: its buffer takes the magnitudes
        worst = max(worst, float(np.abs(diff, out=_square(lhs.base.view(float), size)).max()))
        for s, _ in runs[k]:
            if last[s] == k:
                del held[s]
    return worst


def tm1_residual(spec: ChainSpec, u: complex, v: complex,
                 indices: tuple[int, int, int, int]) -> float:
    """Residual of one entry-level commutation relation of the RTT algebra.

    Checks [T_ij(u), T_kl(v)} =
    (-1)^{[i]([k]+[l]) + [k][l]} g(u,v) (T_kj(v) T_il(u) - T_kj(u) T_il(v))
    for the given (i,j,k,l), normalized by the largest entry magnitude.
    Only the six entries the relation reads are built, T_ij, T_il and T_kj at
    u and T_kl, T_kj and T_il at v (monodromy_entries); both sides are then
    formed one H content at a time.
    """
    i, j, k, l = indices
    at_u = monodromy_entries(spec, u, [(i, j), (i, l), (k, j)])
    at_v = monodromy_entries(spec, v, [(k, l), (k, j), (i, l)])
    pi, pj, pk, pl = (_PAR[x - 1] for x in indices)
    sign_comm = -1.0 if ((pi + pj) % 2) and ((pk + pl) % 2) else 1.0
    pref = (-1) ** ((pi * (pk + pl) + pk * pl) % 2) * g_fun(u, v, spec.c)

    def largest(op):
        return max((float(np.abs(blk).max()) for _, blk in op.values()), default=0.0)

    def on(op, s):
        return {s: op[s]} if s in op else {}

    # both sides content by content: a product a . b on s reads only b's block on s
    scale, diff = 1.0, 0.0
    for s in _block_map(spec.M)[0]:
        lhs = combine((1.0, compose(at_u[i, j], on(at_v[k, l], s))),
                      (-sign_comm, compose(at_v[k, l], on(at_u[i, j], s))))
        rhs = combine((pref, compose(at_v[k, j], on(at_u[i, l], s))),
                      (-pref, compose(at_u[k, j], on(at_v[i, l], s))))
        scale = max(scale, largest(lhs), largest(rhs))
        diff = max(diff, largest(combine((1.0, lhs), (-1.0, rhs))))
    return diff / scale
