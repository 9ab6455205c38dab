"""Inhomogeneous fundamental chain: the model and its vacuum closed forms, L-operators,
monodromy, transfer, zero modes.

The chain lives on M three-dimensional graded sites with grading (0,0,1),
the one grading source (``_PAR``) of the swap, BLOCK_SIGNS and the letter
rule.  Every L-operator permutes tensor factors, so every chain operator
preserves the local letter content.  The states of one content form the
weight sector (a, b) = (M - n1, n3), the Bethe root cardinalities of its
states, listed from its magnon positions (``sector_indices``).  An entry
T_ij maps each H sector s onto s + ``sector_step(i, j)``.  Entries are read with
``monodromy_entries(spec, u, pairs, sites, sectors=)``: the named entries on
the sectors every read names, as {(i, j): {s: (image, block)}}, signed with
BLOCK_SIGNS.  T_ij on s is the aux-letter-i rows of the column run (s, j),
the identity columns e_j (x) s carried through the site steps
(``_group_product``) on the run's own rows, for each aux letter a the sector
T_aj maps s onto (``_run``); a run is built once for every entry it holds
and dropped before the next.  Products of L-operators are O(N^2) signed row
gathers, never O(N^3) matrix products: the graded swap P_xy is one formula
(``_swap``), read at a run's rows or, for the whole grid, as an axis swap
(``_gather``); no index table spans the grid, and every product, of run
columns, of vectors or of R-matrices, runs on one kernel, ``_apply``.
``transfer_blocks`` sums the three diagonal entries.  The zero modes T_ij[0]
come straight from their closed form, one letter rule (``_site_moves``),
in the same {s: (image, block)} form (``zero_mode_entry``) or applied to
columns on H.
The states these operators act on are vectors on one sector each
(``spectrum.sandwich`` reads the one block between two of them).  No
3^M x 3^M matrix is ever formed.  Checks that read T(u) only through its
action on a few vectors build no group: ``monodromy_apply`` takes vectors on
aux (x) H through the M L-operators, each a signed row gather, a multiply
by g and an add, and ``transfer_apply`` and ``tm1_residual`` build on it.
``verify_rtt`` runs the same steps on V (x) V (x) H, where it compares the
two sides of the RTT relation on two fixed columns.
The swap's signs follow the Koszul convention of ``graded_kron`` in
tests/oracles.py.  The sign table is pinned by requiring the zero-mode
commutation algebra to hold entrywise (an exact integer-arithmetic criterion)
together with the RTT residual test; see tests/test_chain.py.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .graded import FUNDAMENTAL_PARITIES

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
    "sector_indices",
    "sector_step",
    "f_fun",
    "g_fun",
]

_PAR = np.array(FUNDAMENTAL_PARITIES)
#: sign (-1)^{[j]([i]+[j])} applied when reading the abstract entry T_ij off the
#: (i,j) auxiliary block of the concrete monodromy: the even-row/odd-column blocks flip.
BLOCK_SIGNS = (-1.0) ** (_PAR * (_PAR[:, None] + _PAR))
_DIAGONAL = ((1, 1), (2, 2), (3, 3))


class PoleError(ValueError):
    """Spectral parameter hit a pole (u = v, u = xi_n, or an f-function pole)."""


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
        if not all(cmath.isfinite(k) for k in self.kappa):
            raise ValueError("twist components must be finite")

    @property
    def is_identity(self) -> bool:
        return all(k == 1.0 + 0j for k in self.kappa)

    def replace(self, i: int, value: complex) -> "TwistConfig":
        """New twist with component i (1-based) replaced."""
        k = list(self.kappa)
        k[i - 1] = complex(value)
        return TwistConfig(tuple(k))


def _default_xi(m: int) -> tuple[complex, ...]:
    # small distinct reals lift spectral degeneracies without moving poles
    # anywhere near the default probe points
    return tuple(0.1 * n for n in range(1, m + 1))


@dataclass(frozen=True)
class ChainSpec:
    """Model definition: site count, inhomogeneities, twist.

    The coupling c is the unit of the spectral plane: xi and every spectral
    parameter are in units of c, so R(u, v) = I + P/(u - v).  The vacuum is
    e_1 on every site; root seeding and the sector labels count against it,
    and its eigenvalues lambda_k(u) and their ratios are the closed forms
    below, the only way the representation enters.
    """

    M: int
    xi: tuple[complex, ...] | None = None
    twist: TwistConfig = field(default_factory=TwistConfig)

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("site count M must be >= 1")
        xi = self.xi if self.xi is not None else _default_xi(self.M)
        xi = tuple(complex(x) for x in xi)
        object.__setattr__(self, "xi", xi)
        if len(xi) != self.M:
            raise ValueError("need one inhomogeneity per site")
        if not all(cmath.isfinite(x) for x in xi):
            raise ValueError("inhomogeneities must be finite")
        if len({x for x in xi}) != self.M:
            raise ValueError("inhomogeneities must be pairwise distinct")

    # -- geometry ---------------------------------------------------------

    def all_sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.M + 1))

    def _sites(self, sites) -> tuple[int, ...]:
        if sites is None:
            return self.all_sites()
        sites = tuple(sites)
        if any(not 1 <= n <= self.M for n in sites):
            raise ValueError("site out of range")
        if any(a >= b for a, b in zip(sites, sites[1:])):
            raise ValueError("sites must be strictly ascending")
        return sites

    # -- vacuum functions -------------------------------------------------
    # Closed forms over a site range, the full chain when ``sites`` is None
    # (``dlog_r`` reads the full chain only).
    # Index 1 is even, so the single-site vacuum eigenvalues are
    # lambda_1(u|n) = 1 + g(u, xi_n) and lambda_2 = lambda_3 = 1.  No operator
    # read calls these: the vacuum rows compare them with T(u) on the vacuum.

    def lam(self, k: int, u: complex, sites=None) -> complex:
        """lambda_k(u), the product of lambda_k(u|n) over the sites."""
        if k != 1:
            return 1.0 + 0j
        # numpy-scalar factors: the bits the reports were pinned with
        return complex(math.prod(1.0 + np.complex128(g_fun(u, self.xi[n - 1]))
                                 for n in self._sites(sites)))

    def r(self, k: int, u: complex, sites=None) -> complex:
        """Ratio r_k = lambda_k / lambda_2, k in {1, 3}."""
        return self.lam(k, u, sites) / self.lam(2, u, sites)

    def dlog_r(self, k: int, u: complex) -> complex:
        """d/du log r_k(u) over the full chain (analytic)."""
        if k != 1:
            return 0.0 + 0j
        total = 0.0 + 0j
        for x in self.xi:
            # d/du log(1 + g) = -g^2 / (1 + g) through g = g(u, x)
            g = np.complex128(g_fun(u, x))
            total += -g * g / (1.0 + g)
        return total

    def lam_zero_mode(self, k: int, sites=None) -> complex:
        """Coefficient in lambda_k(u) = 1 + coeff / u + O(u^-2)."""
        return complex(len(self._sites(sites))) if k == 1 else 0.0 + 0j

    def r_product(self, k: int, roots, sites) -> complex:
        """prod_x r_k(x) over a root set; non-finite roots are skipped, the empty product is 1."""
        out = 1.0 + 0j
        for x in roots:
            if np.isfinite(x):
                out *= self.r(k, x, sites)
        return out


# -- sectors, swaps and column runs --------------------------------------------


def _sector_rows(m_sites: int, a: int, b: int) -> np.ndarray:
    """The basis indices of H sector (a, b), ascending, from its magnon positions.

    a sites hold base-3 digit 1 or 2 (letter 2 or 3), b of them digit 2; an
    index is sum_n digit_n 3^(M - n), site 1 the leading digit.
    """
    place = [3 ** (m_sites - n) for n in range(1, m_sites + 1)]
    excited = np.array(list(itertools.combinations(place, a)), dtype=np.int64)
    threes = np.array(list(itertools.combinations(range(a), b)), dtype=np.intp)
    return np.sort(excited.sum(axis=1)[:, None] + excited[:, threes].sum(axis=2), axis=None)


def _swap(n_factors: int, x: int, y: int, rows: np.ndarray) -> tuple:
    """P_xy on n_factors fundamental factors at basis ``rows`` as (src, flipped).

    Row q of P_xy X is +-X[src[q]]: ``src`` is q with base-3 digits x and y
    swapped (factor 0 is the leading digit; a graded swap is its own
    inverse), and ``flipped``, a boolean column that broadcasts over X's
    columns, marks the rows where p_x p_y + (p_x + p_y) N_between is odd,
    N_between the odd letters between.  The only graded-swap formula.
    """
    def digit(t):
        return rows // 3 ** (n_factors - 1 - t) % 3

    x, y = min(x, y), max(x, y)
    odd = _PAR.astype(bool)
    between = np.zeros(rows.shape, dtype=bool)
    for t in range(x + 1, y):  # one digit at a time
        between ^= odd[digit(t)]
    dx, dy = digit(x), digit(y)
    src = rows + (dy - dx) * (3 ** (n_factors - 1 - x) - 3 ** (n_factors - 1 - y))
    px, py = odd[dx], odd[dy]
    return src, ((px & py) ^ ((px ^ py) & between)).reshape(-1, 1)


@lru_cache(maxsize=128)
def _gather(n_factors: int, x: int, y: int) -> tuple:
    """P_xy, x < y, on every row as (shape, flipped), the plan of the vector path.

    X's rows viewed as ``shape`` with axes 1 and 3 swapped are P_xy X; ``flipped``
    is _swap at the rows whose only nonzero digits are x..y, broadcast over the rest.
    """
    shape = (3**x, 3, 3 ** (y - x - 1), 3, 3 ** (n_factors - 1 - y))
    rows = np.arange(3 ** (y - x + 1)) * 3 ** (n_factors - 1 - y)
    return shape, _swap(n_factors, x, y, rows)[1].reshape(1, 3, shape[2], 3, 1, 1)


@lru_cache(maxsize=256)
def _run(m_sites: int, s: tuple, j: int) -> tuple:
    """The column run of T (e_j (x) s): its size, its row slices by aux letter, P_0n's plans.

    Its rows are, for each aux letter a, the H sector T_aj maps s onto, at
    the aux (x) H indices a 3^M + h, in ascending order; the columns are the
    rows of aux letter j.  The plan of P_0n, n = 1..M, is (local source
    rows, flipped), with ``flipped`` None where P_0n negates no row.
    """
    index, entries = _block_map(m_sites)
    parts = [a * 3**m_sites + index.get(entries[a][j - 1].get(s), np.zeros(0, dtype=np.int64))
             for a in range(3)]
    rows = np.concatenate(parts)
    bounds = np.cumsum([0] + [part.size for part in parts])
    swaps = [_swap(m_sites + 1, 0, n, rows) for n in range(1, m_sites + 1)]
    return rows.size, tuple(map(slice, bounds[:-1], bounds[1:])), tuple(
        (np.searchsorted(rows, src), flipped if flipped.any() else None) for src, flipped in swaps)


def _group_product(size: int, cols: slice, steps) -> np.ndarray:
    """Columns ``cols`` of F_S ... F_1 on a column run's ``size`` rows, for steps [(plan, g), ...].

    F = I + g P.  The identity's columns run through _apply on the run's own
    plans; _apply carries every column on its own, so a run has the bits of
    the same columns of the product on its rows' whole content group.
    """
    identity = np.eye(size, cols.stop - cols.start, -cols.start, dtype=bool)
    return _apply(identity, steps)


def sector_step(i: int, j: int) -> tuple[int, int]:
    """Sector change (da, db) of T_ij and of the zero mode T_ij[0].

    The chain absorbs auxiliary index j and emits i, so the site content
    gains e_j - e_i; nonzero elements <C_{a',b'}| T_ij |B_{a,b}> require
    (a', b') = (a + da, b + db).
    """
    da = (1 if i == 1 else 0) - (1 if j == 1 else 0)
    db = (1 if j == 3 else 0) - (1 if i == 3 else 0)
    return (da, db)


@lru_cache(maxsize=16)
def _block_map(m_sites: int):
    """The H sectors and where each monodromy entry maps them.

    Sector s = (a, b), 0 <= b <= a <= M, holds the states of letter content
    (M - a, a - b, b).  Returns ``index`` (H sector -> basis indices, in sector
    order) and ``entries[i][j]`` (0-based): {s: image} on the sectors where
    T_ij does not vanish, its image the sector ``sector_step(i, j)`` away.
    """
    index = {(a, b): _sector_rows(m_sites, a, b)
             for a in range(m_sites + 1) for b in range(a + 1)}
    entries = [[{} for _ in range(3)] for _ in range(3)]
    for s, i, j in itertools.product(index, range(3), range(3)):
        da, db = sector_step(i + 1, j + 1)
        if (image := (s[0] + da, s[1] + db)) in index:
            entries[i][j][s] = image
    return index, entries


def sector_indices(spec: ChainSpec) -> dict[tuple[int, int], np.ndarray]:
    """Basis indices per sector (a, b) = (M - n1, n3), in sector order, each ordered by index.

    Sectors are labelled against the vacuum at local index 1; the labels
    coincide with the Bethe root cardinalities.  The arrays, listed from the
    magnon positions (``_sector_rows``), are shared; callers treat them as read-only.
    """
    return dict(_block_map(spec.M)[0])


def combine(*terms) -> dict:
    """sum_t c_t A_t for (c_t, A_t) pairs of H operators given as {sector: (image, block)}."""
    out = {}
    for coef, op in terms:
        for s, (image, blk) in op.items():
            out[s] = (image, out[s][1] + coef * blk) if s in out else (image, coef * blk)
    return out


def compose(a: dict, b: dict) -> dict:
    """The product a . b of H operators given as {sector: (image, block)}."""
    return {s: (a[m][0], a[m][1] @ blk) for s, (m, blk) in b.items() if m in a}


def g_fun(u: complex, v: complex) -> complex:
    if u == v:
        raise PoleError("g(u,v) pole at u = v")
    return 1 / (u - v)


def f_fun(u: complex, v: complex) -> complex:
    if u == v:
        raise PoleError("f(u,v) pole at u = v")
    return (u - v + 1) / (u - v)


# -- Yang-Baxter -------------------------------------------------------------


def yang_baxter_residual(u: complex, v: complex, w: complex) -> float:
    """Max-entry residual of R12 R13 R23 = R23 R13 R12 on V (x) V (x) V.

    Both sides run on the 27 identity columns through _apply, each
    R_xy(a, b) = I + g(a, b) P_xy one gather step, so no R-matrix is built.
    """
    r12, r13, r23 = ((_gather(3, x, y), g_fun(a, b))
                     for x, y, a, b in ((0, 1, u, v), (0, 2, u, w), (1, 2, v, w)))
    eye = np.eye(27)
    return float(np.abs(_apply(eye, [r23, r13, r12]) - _apply(eye, [r12, r13, r23])).max())


# -- L-operators and monodromy ------------------------------------------------


def _check_poles(spec: ChainSpec, u: complex, sites) -> None:
    for n in sites:
        if u == spec.xi[n - 1]:
            raise PoleError(f"spectral parameter hits inhomogeneity xi_{n}")


def _site_steps(spec: ChainSpec, u: complex, n_factors: int, aux: int) -> list:
    """Gather steps of T(u) = L_M(u) ... L_1(u) on the auxiliary factor ``aux``.

    The sites are the last M of the n_factors tensor factors, and L_n is
    I + g(u, xi_n) times the graded swap of factor ``aux`` and site n's factor.
    """
    _check_poles(spec, u, spec.all_sites())
    offset = n_factors - spec.M - 1
    return [(_gather(n_factors, aux, offset + n), g_fun(u, spec.xi[n - 1]))
            for n in spec.all_sites()]


def _apply(x: np.ndarray, steps) -> np.ndarray:
    """F_S ... F_1 X for gather steps [(plan, g), ...], F = I + g P.

    Runs on a C-ordered complex copy of X as a block of columns (a vector is
    one column), so X itself is never written: row gathers, no matrix and no
    BLAS call.  Each step gathers rows into ``a``, b = g * rows (``g``
    first), then x + b, or x - b on the flipped rows: the bits of
    x + g * (sign * x[src]) with no multiply by the sign, each column on its own.
    A run's plan (src, flipped) gathers by ``take``, _gather's by an axis swap.
    """
    block = np.array(x.reshape(len(x), -1), dtype=complex, order="C")
    a, b = np.empty_like(block), np.empty_like(block)
    for (gather, flipped), g in steps:
        if isinstance(gather, tuple):
            xv, av, bv = (arr.reshape(gather + (-1,)) for arr in (block, a, b))
            np.copyto(av, xv.swapaxes(1, 3))
        else:
            xv, av, bv = block, a, b
            block.take(gather, axis=0, out=a, mode="clip")
        np.multiply(g, av, out=bv)
        np.add(xv, bv, out=av)
        if flipped is not None:
            np.subtract(xv, bv, out=av, where=flipped)
        block, a = a, block
    return block.reshape(x.shape)


def monodromy_entries(spec: ChainSpec, u: complex, pairs, sites=None, *, sectors) -> dict:
    """The entries (i, j) in ``pairs`` of T(u) over ``sites``, as {(i, j): {s: (image, block)}}.

    The monodromy L_{sites[-1]}(u) ... L_{sites[0]}(u) over strictly ascending
    sites, the full chain when sites is None.  T_ij on an H sector s in
    ``sectors`` is the aux-letter-i rows of the column run (s, j) (see _run
    and _group_product).  ``pairs`` is walked once; each run is built once,
    every requested entry is read off it, and it is dropped before the next.
    """
    sites = spec._sites(sites)
    _check_poles(spec, u, sites)
    g = [g_fun(u, spec.xi[n - 1]) for n in sites]
    _, entries = _block_map(spec.M)
    out, runs = {}, {}
    for i, j in pairs:
        out[i, j] = {}
        for s, image in entries[i - 1][j - 1].items():
            if s in sectors:
                runs.setdefault((s, j), []).append((i, image))
    for (s, j), reads in runs.items():
        size, rows, plans = _run(spec.M, s, j)
        run = _group_product(size, rows[j - 1], [(plans[n - 1], gn) for n, gn in zip(sites, g)])
        for i, image in reads:
            out[i, j][s] = (image, BLOCK_SIGNS[i - 1, j - 1] * run[rows[i - 1]])
        del run  # before the next run is built
    return out


def transfer_blocks(spec: ChainSpec, u: complex, *, sectors) -> dict:
    """sum_i (-1)^{[i]} kappa_i T_ii(u) as {s: (s, block)} at the H ``sectors``, in their order.

    ``combine`` over the three diagonal entries, summed in i order.
    """
    return _twisted_sum(spec, monodromy_entries(spec, u, _DIAGONAL, sectors=sectors), sectors)


def _twisted_sum(spec: ChainSpec, diagonals: dict, sectors) -> dict:
    """transfer_blocks from the entries T_11, T_22, T_33 as monodromy_entries returns them.

    The entries do not depend on the twist; only the weights here read it.
    """
    summed = combine(*[((-1) ** _PAR[i] * spec.twist.kappa[i], diagonals[i + 1, i + 1])
                       for i in range(3)])
    return {s: summed[s] for s in sectors}


def monodromy_apply(spec: ChainSpec, u: complex, x: np.ndarray) -> np.ndarray:
    """T(u) X for a vector or a block X of columns on aux (x) H (aux letter the leading digit).

    T(u) = L_M(u) ... L_1(u) with L_n = I + g(u, xi_n) P_0n, one gather step
    per site (see _apply).
    """
    return _apply(x, _site_steps(spec, u, spec.M + 1, 0))


def _column_apply(spec: ChainSpec, u: complex, j: int, y: np.ndarray) -> np.ndarray:
    """T_1j(u) Y, T_2j(u) Y, T_3j(u) Y: T(u) (e_j (x) Y) by aux block, signed with BLOCK_SIGNS."""
    x = np.zeros((3,) + y.shape, dtype=complex)
    x[j - 1] = y
    out = monodromy_apply(spec, u, x.reshape(-1, *y.shape[1:])).reshape(x.shape)
    out *= BLOCK_SIGNS[:, j - 1].reshape((3,) + (1,) * y.ndim)
    return out


def _entry_apply(spec: ChainSpec, u: complex, i: int, j: int, y: np.ndarray) -> np.ndarray:
    """T_ij(u) Y for Y on H."""
    return _column_apply(spec, u, j, y)[i - 1]


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

    The vacuum is the only basis vector of sector (0, 0) and T_kk keeps the
    sector, so the vacuum is an eigenvector by construction and lambda_k is
    the 1 x 1 block of T_kk there.
    """
    vac = (0, 0)
    t_kk = monodromy_entries(spec, u, [(k, k)], sites, sectors=[vac])[k, k]
    return complex(t_kk[vac][1][0, 0])


def _site_moves(spec: ChainSpec, i: int, j: int, sites, columns: np.ndarray):
    """The letter rule of T_ij[0] (1-based) on the H basis ``columns``, one site at a time.

    T_ij[0] = sum_{n in range} (-1)^{[j]} (-1)^{([i]+[j]) N_odd(<n)} E^(n)_{i->j}:
    E^(n)_{i->j} turns letter i on site n (site 1 is the leading base-3 digit)
    into j, and N_odd(<n) counts the odd letters on the sites before n.  Yields
    each site's moves (position, target, sign) in ascending sites: columns[position]
    goes to basis index ``target`` with ``sign``, and no two share a position or a
    target.  Where the parity enters, [i] != [j], the signs flip at each odd letter.
    """
    sites = spec._sites(sites)
    graded = _PAR[i - 1] != _PAR[j - 1]
    signs = np.full(columns.size, (-1.0) ** _PAR[j - 1])
    for n in range(1, max(sites, default=0) + 1) if graded else sites:
        letter = columns // 3 ** (spec.M - n) % 3
        if n in sites:
            position = np.nonzero(letter == i - 1)[0]
            yield position, columns[position] + (j - i) * 3 ** (spec.M - n), signs[position]
        if graded:
            np.negative(signs, out=signs, where=_PAR[letter] == 1)


def zero_mode_entry(spec: ChainSpec, i: int, j: int, sites=None, *, sectors) -> dict:
    """The zero mode T_ij[0] (1-based) over a site range as {s: (image, block)} of exact integers."""
    index, entries = _block_map(spec.M)
    out = {}
    for s, image in entries[i - 1][j - 1].items():
        if s in sectors:
            blk = np.zeros((index[image].size, index[s].size), dtype=complex)
            for position, target, sign in _site_moves(spec, i, j, sites, index[s]):
                blk[np.searchsorted(index[image], target), position] += sign
            out[s] = (image, blk)
    return out


def _zero_mode_apply(spec: ChainSpec, i: int, j: int, y: np.ndarray) -> np.ndarray:
    """T_ij[0] Y over the full chain for a block Y of columns on H, by the letter rule.

    On the diagonal each row's signs are summed first; off it each target adds its
    source rows site by site, in ascending columns (descending sites for i > j).
    Both are the sums of zero_mode_entry's blocks, in their order.
    """
    moves = _site_moves(spec, i, j, None, np.arange(3 ** spec.M))
    if i == j:
        weight = np.zeros(len(y))
        for position, _, sign in moves:
            weight[position] += sign
        return weight[:, None] * y
    out = np.zeros(y.shape, dtype=complex)
    for position, target, sign in moves if i < j else reversed(list(moves)):
        out[target] += sign[:, None] * y[position]
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
    r = [(_gather(n_factors, 0, 1), g_fun(u, v))]
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
    pref = (-1) ** ((pi * (pk + pl) + pk * pl) % 2) * g_fun(u, v)
    lhs = t(u, i, j, t(v, k, l, y)) - sign_comm * t(v, k, l, t(u, i, j, y))
    rhs = pref * (t(v, k, j, t(u, i, l, y)) - t(u, k, j, t(v, i, l, y)))
    return _relative_gap(lhs, rhs)
