"""Inhomogeneous fundamental chain: the model and its vacuum closed forms, L-operators,
monodromy, transfer, zero modes.

The chain lives on M three-dimensional graded sites with grading (0,0,1).
Every L-operator permutes tensor factors, so every chain operator on
aux (x) H preserves the local letter content and is stored only as its
content-group blocks (see _content_partition).  Products of L-operators are
accumulated with O(N^2) signed-permutation applications, never O(N^3)
matrix products.  Each graded swap P_xy has one plan (``_gather``),
restricted to each content group by ``_step_plan``, and every product, of
group columns or of vectors, runs on one kernel, ``_apply``.

An entry T_ij maps each H content group s onto the group s + e_j - e_i: it
is one sub-block of the aux (x) H group of content s + e_j per H group, the
rows with aux letter i of that group's columns with aux letter j.  So
entries are read with ``monodromy_entries(spec, u, pairs, sites, contents=)``:
the named entries on the contents every read names, as {(i, j): {s: (image,
block)}}, signed with a fixed table BLOCK_SIGNS.  Each is read off one column
run, the identity columns of group s + e_j with aux letter j carried through
the site steps (``_group_product``); a run is built once for every entry it
holds and dropped before the next, so no read holds a whole group.
``transfer_blocks`` sums the three diagonal entries.  The zero modes T_ij[0]
come straight from their closed form, one letter rule (``_letter_moves``),
in the same {s: (image, block)} form (``zero_mode_entry``) or applied to
columns on H.
The states these operators act on are vectors on one content group each
(``spectrum.sandwich`` reads the one block between two of them).  No
3^M x 3^M matrix is ever formed.  Checks that read T(u) only through its
action on a few vectors build no group: ``monodromy_apply`` takes vectors on
aux (x) H through the M L-operators, each a signed row gather, a multiply
by g and an add, and ``transfer_apply`` and ``tm1_residual`` build on it.
``verify_rtt`` runs the same steps on V (x) V (x) H, where it compares the
two sides of the RTT relation on two fixed columns.
The sign table is pinned by requiring the zero-mode commutation algebra to
hold entrywise (an exact integer-arithmetic criterion) together with the RTT
residual test; see tests/test_chain.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .graded import FUNDAMENTAL_PARITIES, GradedSpace, permutation_between

__all__ = [
    "TwistConfig",
    "ChainSpec",
    "PoleError",
    "yang_baxter_residual",
    "monodromy_entries",
    "combine",
    "compose",
    "transfer_blocks",
    "monodromy_apply",
    "transfer_apply",
    "vacuum_eigenvalue",
    "zero_mode_entry",
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
    count against it, and its eigenvalues lambda_k(u) and their ratios are
    the closed forms below, the only way the representation enters.
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

    def _sites(self, sites) -> tuple[int, ...]:
        return self.all_sites() if sites is None else tuple(sites)

    # -- vacuum functions -------------------------------------------------
    # Closed forms over a site range, the full chain when ``sites`` is None.
    # Index 1 is even, so the single-site vacuum eigenvalues are
    # lambda_1(u|n) = 1 + g(u, xi_n) and lambda_2 = lambda_3 = 1.  No operator
    # read calls these: the vacuum rows compare them with T(u) on the vacuum.

    def lam(self, k: int, u: complex, sites=None) -> complex:
        """lambda_k(u), the product of lambda_k(u|n) over the sites."""
        if k != 1:
            return 1.0 + 0j
        # numpy-scalar factors: the bits the reports were pinned with
        return complex(math.prod(1.0 + np.complex128(g_fun(u, self.xi[n - 1], self.c))
                                 for n in self._sites(sites)))

    def r(self, k: int, u: complex, sites=None) -> complex:
        """Ratio r_k = lambda_k / lambda_2, k in {1, 3}."""
        return self.lam(k, u, sites) / self.lam(2, u, sites)

    def dlog_r(self, k: int, u: complex, sites=None) -> complex:
        """d/du log r_k(u) (analytic)."""
        if k != 1:
            return 0.0 + 0j
        c, total = self.c, 0.0 + 0j
        for n in self._sites(sites):
            x = self.xi[n - 1]
            # numpy scalars here too, as in lam
            total += np.complex128(-c / (u - x) ** 2) / (1.0 + np.complex128(c) / (u - x))
        return total

    def lam_zero_mode(self, k: int, sites=None) -> complex:
        """Coefficient in lambda_k(u) = 1 + coeff * c/u + O(u^-2)."""
        return complex(len(self._sites(sites))) if k == 1 else 0.0 + 0j

    def r_product(self, k: int, roots, sites=None) -> complex:
        """prod_x r_k(x) over a root set; non-finite roots are skipped, the empty product is 1."""
        out = 1.0 + 0j
        for x in roots:
            if np.isfinite(x):
                out *= self.r(k, x, sites)
        return out

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
def _gather(n_factors: int, x: int, y: int) -> tuple:
    """P_xy on n_factors fundamental factors as (src, flipped): row q of P_xy X is +-X[src[q]].

    ``flipped``, a boolean column that broadcasts over X's columns, marks the
    negated rows.  A graded swap is its own inverse and its sign is symmetric
    under the swap, so ``src`` is permutation_between's ``dest``.
    """
    perm = permutation_between((GradedSpace.fundamental(),) * n_factors, x, y)
    return perm.dest, (perm.sign < 0)[:, None]


@lru_cache(maxsize=128)
def _step_plan(n_factors: int, x: int, y: int) -> tuple:
    """_gather's plan restricted to each content group (P_xy keeps content), in local rows.

    ``flipped`` is None on a group where P_xy negates no row.
    """
    groups, g2l, _ = _content_partition(n_factors)
    src, flipped = _gather(n_factors, x, y)
    return tuple((g2l[src[ix]], flipped[ix] if flipped[ix].any() else None) for ix in groups)


def _group_product(k: int, size: int, cols: slice, steps) -> np.ndarray:
    """Columns ``cols`` of F_S ... F_1 on content group k of ``size``, for steps [(plan, g), ...].

    F = I + g P.  The identity's columns run through _apply on this one
    group's plans; _apply carries every column on its own, so a run has the
    bits of the same columns of the whole group's product.
    """
    identity = np.eye(size, cols.stop - cols.start, -cols.start, dtype=bool)
    return _apply(identity, [(plan[k], g) for plan, g in steps])


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


def _l_steps(spec: ChainSpec, u: complex, sites) -> list:
    """Group-product steps of L_{sites[-1]}(u) ... L_{sites[0]}(u), L_n = I + g(u, xi_n) P_0n."""
    return [(_step_plan(spec.M + 1, 0, n), g_fun(u, spec.xi[n - 1], spec.c)) for n in sites]


def _site_steps(spec: ChainSpec, u: complex, n_factors: int, aux: int) -> list:
    """Gather steps of T(u) = L_M(u) ... L_1(u) on the auxiliary factor ``aux``.

    The sites are the last M of the n_factors tensor factors, and L_n is
    I + g(u, xi_n) times the graded swap of factor ``aux`` and site n's factor.
    """
    _check_poles(spec, u, spec.all_sites())
    offset = n_factors - spec.M - 1
    return [(_gather(n_factors, aux, offset + n), g_fun(u, spec.xi[n - 1], spec.c))
            for n in spec.all_sites()]


def _apply(x: np.ndarray, steps) -> np.ndarray:
    """F_S ... F_1 X for gather steps [((src, flipped), g), ...], F = I + g P.

    Runs on a C-ordered complex copy of X as a block of columns (a vector is
    one column), so X itself is never written: row gathers, no matrix and no
    BLAS call.  Each step gathers rows into ``a``, b = g * rows (``g``
    first), then x + b, or x - b on the flipped rows: the bits of
    x + g * (sign * x[src]) with no multiply by the sign, each column on its own.
    """
    block = np.array(x.reshape(len(x), -1), dtype=complex, order="C")
    a, b = np.empty_like(block), np.empty_like(block)
    for (src, flipped), g in steps:
        block.take(src, axis=0, out=a, mode="clip")
        np.multiply(g, a, out=b)
        np.add(block, b, out=a)
        if flipped is not None:
            np.subtract(block, b, out=a, where=flipped)
        block, a = a, block
    return block.reshape(x.shape)


def _resolve_sites(spec: ChainSpec, sites) -> tuple[int, ...]:
    sites = spec.all_sites() if sites is None else tuple(sites)
    if any(not 1 <= n <= spec.M for n in sites):
        raise ValueError("site out of range")
    if any(a >= b for a, b in zip(sites, sites[1:])):
        raise ValueError("sites must be strictly ascending")
    return sites


def monodromy_entries(spec: ChainSpec, u: complex, pairs, sites=None, *, contents) -> dict:
    """The entries (i, j) in ``pairs`` of T(u) over ``sites``, as {(i, j): {s: (image, block)}}.

    The monodromy L_{sites[-1]}(u) ... L_{sites[0]}(u) over strictly ascending
    sites, the full chain when sites is None.  T_ij on an H content s in
    ``contents`` is the aux-letter-i rows of the column run (s + e_j, j) (see
    _group_product).  ``pairs`` is walked once; each run is built once, every
    requested entry is read off it, and it is dropped before the next.
    """
    sites = _resolve_sites(spec, sites)
    _check_poles(spec, u, sites)
    steps = _l_steps(spec, u, sites)
    groups = _content_partition(spec.M + 1)[0]
    _, entries = _block_map(spec.M)
    out, runs = {}, {}
    for i, j in pairs:
        out[i, j] = {}
        for s, image, g, rows, cols in entries[i - 1][j - 1]:
            if s in contents:
                runs.setdefault((g, j), (cols, []))[1].append((i, s, image, rows))
    for (g, j), (cols, reads) in runs.items():
        run = _group_product(g, groups[g].size, cols, steps)
        for i, s, image, rows in reads:
            out[i, j][s] = (image, BLOCK_SIGNS[i - 1, j - 1] * run[rows])
        del run  # before the next run is built
    return out


def transfer_blocks(spec: ChainSpec, u: complex, *, contents) -> dict:
    """sum_i (-1)^{[i]} kappa_i T_ii(u) as {s: (s, block)} at the H ``contents``, in their order.

    ``combine`` over the three diagonal entries, summed in i order.
    """
    t = monodromy_entries(spec, u, _DIAGONAL, contents=contents)
    summed = combine(*[((-1) ** _PAR[i] * spec.twist.kappa[i], t[i + 1, i + 1]) for i in range(3)])
    return {s: summed[s] for s in contents}


def monodromy_apply(spec: ChainSpec, u: complex, x: np.ndarray) -> np.ndarray:
    """T(u) X for a vector or a block X of columns on aux (x) H (aux letter the leading digit).

    T(u) = L_M(u) ... L_1(u) with L_n = I + g(u, xi_n) P_0n, one gather step
    per site (see _apply).
    """
    return _apply(x, _site_steps(spec, u, spec.M + 1, 0))


def _entry_apply(spec: ChainSpec, u: complex, i: int, j: int, y: np.ndarray) -> np.ndarray:
    """T_ij(u) Y for Y on H: aux block i of T(u) (e_j (x) Y), signed with BLOCK_SIGNS."""
    x = np.zeros((3,) + y.shape, dtype=complex)
    x[j - 1] = y
    out = monodromy_apply(spec, u, x.reshape(-1, *y.shape[1:])).reshape(x.shape)
    return BLOCK_SIGNS[i - 1, j - 1] * out[i - 1]


def transfer_apply(spec: ChainSpec, u: complex, y: np.ndarray) -> np.ndarray:
    """t(u) Y = sum_i (-1)^{[i]} kappa_i T_ii(u) Y for a vector or a block Y of columns on H."""
    return sum((-1) ** _PAR[i] * spec.twist.kappa[i] * _entry_apply(spec, u, i + 1, i + 1, y)
               for i in range(3))


@lru_cache(maxsize=16)
def _probe_columns(n_rows: int) -> np.ndarray:
    """Two random complex columns from a generator of their own, drawn once per size; read-only."""
    rng = np.random.default_rng(2017)
    y = rng.normal(size=(n_rows, 2)) + 1j * rng.normal(size=(n_rows, 2))
    y.flags.writeable = False
    return y


def _relative_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest entry of lhs - rhs over the larger side's largest entry, at least 1."""
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def vacuum_eigenvalue(spec: ChainSpec, k: int, sites, u: complex) -> complex:
    """lambda_k over the sub-chain, read off T_kk on the vacuum e_1 (x) ... (x) e_1.

    The vacuum is the only basis vector of content (M, 0, 0) and T_kk keeps
    content, so the vacuum is an eigenvector by construction and lambda_k is
    the 1 x 1 block of T_kk there, in the one aux (x) H group vacuum + e_k.
    """
    vac = (spec.M, 0, 0)
    t_kk = monodromy_entries(spec, u, [(k, k)], sites, contents=[vac])[k, k]
    return complex(t_kk[vac][1][0, 0])


@lru_cache(maxsize=16)
def _letters(m_sites: int):
    """Letter on site n (row n - 1) of every H basis index, and the odd letters before it."""
    letters = np.arange(3**m_sites) // 3 ** np.arange(m_sites - 1, -1, -1)[:, None] % 3
    return letters, np.cumsum(letters == 2, axis=0) - (letters == 2)


def _letter_moves(spec: ChainSpec, i: int, j: int, sites, columns: np.ndarray) -> tuple:
    """The letter rule of T_ij[0] (1-based) on the H basis ``columns``: (position, target, sign).

    T_ij[0] = sum_{n in range} (-1)^{[j]} (-1)^{([i]+[j]) N_odd(<n)} E^(n)_{i->j}:
    E^(n)_{i->j} turns letter i on site n (site 1 is the leading base-3 digit)
    into j, and N_odd(<n) counts the odd letters on the sites before n.  Each
    move sends columns[position] to basis index ``target`` with ``sign``.
    """
    n = np.asarray(_resolve_sites(spec, sites), dtype=np.int64) - 1
    letters, odd_before = (table[n][:, columns] for table in _letters(spec.M))
    row, position = np.nonzero(letters == i - 1)
    odd = (_PAR[i - 1] + _PAR[j - 1]) * odd_before[row, position]
    target = columns[position] + (j - i) * 3 ** (spec.M - 1 - n[row])
    return position, target, (-1.0) ** _PAR[j - 1] * (-1.0) ** odd


def zero_mode_entry(spec: ChainSpec, i: int, j: int, sites=None, *, contents) -> dict:
    """The zero mode T_ij[0] (1-based) over a site range as {s: (image, block)} of exact integers.

    The letter rule, block by block, on the H ``contents``.
    """
    _, g2l, _ = _content_partition(spec.M)
    index, entries = _block_map(spec.M)
    out = {}
    for s, image, *_ in entries[i - 1][j - 1]:
        if s in contents:
            position, target, sign = _letter_moves(spec, i, j, sites, index[s])
            blk = np.zeros((index[image].size, index[s].size), dtype=complex)
            np.add.at(blk, (g2l[target], position), sign)
            out[s] = (image, blk)
    return out


def _zero_mode_apply(spec: ChainSpec, i: int, j: int, y: np.ndarray) -> np.ndarray:
    """T_ij[0] Y over the full chain for a block Y of columns on H, by the letter rule.

    Moves onto one (target, column) pair are summed first, and each target adds
    its gathered rows in ascending columns: the sums of zero_mode_entry's blocks.
    """
    n = 3 ** spec.M
    position, target, sign = _letter_moves(spec, i, j, None, np.arange(n))
    pairs, which = np.unique(target * n + position, return_inverse=True)
    rows, columns = np.divmod(pairs, n)
    out = np.zeros(y.shape, dtype=complex)
    np.add.at(out, rows, np.bincount(which, weights=sign)[:, None] * y[columns])
    return out


# -- RTT conformance ----------------------------------------------------------


def verify_rtt(spec: ChainSpec, u: complex, v: complex) -> float:
    """Residual of the RTT relation on V (x) V (x) H, on the probe columns.

    Compares R(u,v) T_a(u) T_b(v) Y with T_b(v) T_a(u) R(u,v) Y for Y the two
    fixed columns of _probe_columns (Freivalds' check), with T_a on the first
    auxiliary space (factor 0), T_b on the second (factor 1) and the sites on
    factors 2..M+1.  Every factor is one gather step (see _apply): M per
    monodromy and one for R = I + g(u,v) P_ab, 2M + 1 per side, and no
    aux (x) aux (x) H group is built.  Returns the largest entry of the
    difference over the larger side's largest entry, at least 1.
    """
    if u == v:
        raise PoleError("RTT check needs u != v")
    n_factors = spec.M + 2
    t_a, t_b = (_site_steps(spec, w, n_factors, aux) for w, aux in ((u, 0), (v, 1)))
    r = [(_gather(n_factors, 0, 1), g_fun(u, v, spec.c))]
    y = _probe_columns(3 ** n_factors)
    return _relative_gap(_apply(y, t_b + t_a + r), _apply(y, r + t_a + t_b))


def tm1_residual(spec: ChainSpec, u: complex, v: complex,
                 indices: tuple[int, int, int, int]) -> float:
    """Residual of one entry-level commutation relation of the RTT algebra.

    Checks [T_ij(u), T_kl(v)} =
    (-1)^{[i]([k]+[l]) + [k][l]} g(u,v) (T_kj(v) T_il(u) - T_kj(u) T_il(v))
    on the probe columns (Freivalds' check), one entry at a time, as the
    largest entry of the difference over the larger side's, at least 1.
    """
    i, j, k, l = indices
    y = _probe_columns(3 ** spec.M)
    t = partial(_entry_apply, spec)
    pi, pj, pk, pl = (_PAR[x - 1] for x in indices)
    sign_comm = -1.0 if ((pi + pj) % 2) and ((pk + pl) % 2) else 1.0
    pref = (-1) ** ((pi * (pk + pl) + pk * pl) % 2) * g_fun(u, v, spec.c)
    lhs = t(u, i, j, t(v, k, l, y)) - sign_comm * t(v, k, l, t(u, i, j, y))
    rhs = pref * (t(v, k, j, t(u, i, l, y)) - t(u, k, j, t(v, i, l, y)))
    return _relative_gap(lhs, rhs)
