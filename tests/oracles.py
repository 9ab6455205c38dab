"""Oracles used only by the tests.

The package works on content-group blocks and signed permutations; the
dense forms here (product spaces, graded Kronecker product, supertraces,
graded commutator, the two-site R-matrix, ``permutation_by_digits``, the
digit-table form of the graded swap as a ``SignedPermutation`` with its
dense ``to_matrix``, and ``dense``, which fills an H operator's blocks into
a 3^M x 3^M matrix) state the same conventions the textbook way, so the
tests can compare against them.  The full-set forms of the monodromy and
transfer_blocks hold every aux (x) H group at once, each product built from
its own identity, and ``entry_blocks`` reads any entry off such a set; the
package's entry reads, which build only the column runs that hold an entry,
must match them to the bit.  The package's reads name their H sectors;
``all_sectors`` lists every one.  The package
checks the RTT algebra and the zero-mode limit on the full chain on
vectors; the group forms those checks replaced stay here as references:
``tm1_residual_full_set`` (the entry-level relation over whole group sets),
``leakage_by_eigensolve`` (the eigenvector leakage of an eigensolve of the
given sectors) and ``zero_mode_limit_by_groups`` (the zero-mode limit
compared on every aux (x) H group).  The dense form of the RTT relation,
``site_outer_rtt``, sits with its site-outer kernel in
tests/test_chain.py.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from gradedbethe import chain
from gradedbethe.chain import _block_map, _content_partition, _group_product, _l_steps, combine, \
    compose, g_fun, sector_indices, zero_mode_entry
from gradedbethe.graded import FUNDAMENTAL_PARITIES, GradedMatrix, GradedSpace
from gradedbethe.spectrum import diagonalize_transfer

PAR = np.array(FUNDAMENTAL_PARITIES)
FUND = GradedSpace.fundamental()


def all_sectors(spec) -> list:
    """Every sector (a, b) of the chain, in sector_indices order."""
    return list(sector_indices(spec))


@dataclass
class SignedPermutation:
    """A signed permutation operator: P e_j = sign[j] * e_dest[j]."""

    dest: np.ndarray
    sign: np.ndarray

    def to_matrix(self) -> np.ndarray:
        n = self.dest.size
        m = np.zeros((n, n), dtype=complex)
        m[self.dest, np.arange(n)] = self.sign
        return m


def permutation_by_digits(factors, x: int, y: int) -> SignedPermutation:
    """The graded swap of factors x and y by a table of the mixed-radix digits of every flat index.

    The reference for the package's index-grid form (``chain._gather``): swap
    digits x and y of each index, and sign it from the parities of those
    digits and of the ones between them.
    """
    x, y = min(x, y), max(x, y)
    dims = [f.dim for f in factors]
    n = int(np.prod(dims))
    digits = np.empty((n, len(dims)), dtype=np.int64)
    idx = np.arange(n)
    for t in range(len(dims) - 1, -1, -1):
        digits[:, t] = idx % dims[t]
        idx //= dims[t]
    par = [f.parity_array() for f in factors]

    px = par[x][digits[:, x]]
    py = par[y][digits[:, y]]
    between = np.zeros(n, dtype=np.int64)
    for t in range(x + 1, y):
        between += par[t][digits[:, t]]
    sign = np.where((px * py + (px + py) * between) % 2, -1.0, 1.0)

    swapped = digits.copy()
    swapped[:, x], swapped[:, y] = digits[:, y], digits[:, x]
    dest = np.zeros(n, dtype=np.int64)
    for t, d in enumerate(dims):
        dest = dest * d + swapped[:, t]
    return SignedPermutation(dest=dest, sign=sign)


def tensor(a: GradedSpace, b: GradedSpace) -> GradedSpace:
    """Product space; grading is additive mod 2 across factors."""
    p = np.add.outer(np.array(a.parities), np.array(b.parities)) % 2
    return GradedSpace(a.dim * b.dim, tuple(int(x) for x in p.ravel()))


def r_matrix(u: complex, v: complex) -> GradedMatrix:
    """R(u,v) = I + g(u,v) P on the product of two fundamental spaces."""
    p = permutation_by_digits([FUND, FUND], 0, 1).to_matrix()
    return GradedMatrix(tensor(FUND, FUND), np.eye(9) + g_fun(u, v) * p)


def dense(spec, op: dict) -> np.ndarray:
    """An H operator given as {s: (image, block)}, filled into a 3^M x 3^M matrix."""
    index, _ = _block_map(spec.M)
    out = np.zeros((3 ** spec.M, 3 ** spec.M), dtype=complex)
    for s, (image, blk) in op.items():
        out[np.ix_(index[image], index[s])] = blk
    return out


def read_off(spec, entries: dict) -> np.ndarray:
    """3x3 object array of the dense entries of {(i, j): {s: (image, block)}}, 1-based keys."""
    out = np.empty((3, 3), dtype=object)
    for i, j in np.ndindex(3, 3):
        out[i, j] = dense(spec, entries[i + 1, j + 1])
    return out


def zero_modes(spec, sites=None) -> dict:
    """Every zero mode T_ij[0] over a site range, as {(i, j): {s: (image, block)}}."""
    return {(i, j): zero_mode_entry(spec, i, j, sites, sectors=all_sectors(spec))
            for i, j in itertools.product((1, 2, 3), repeat=2)}


def largest(op: dict) -> float:
    """Largest entry magnitude of an H operator given as {s: (image, block)}."""
    return max((float(np.abs(blk).max()) for _, blk in op.values()), default=0.0)


def zero_mode_algebra_worst(zm_a: dict, zm_b: dict, reference: dict | None) -> float:
    """Largest entry violation of the zero-mode algebra over all 81 index quadruples.

    [A_ij, B_kl} = sign (delta_il R_kj - delta_kj R_il) for R the reference
    zero modes, or [A_ij, B_kl} = 0 when there is none; every operator is a
    dict {(i, j): {s: (image, block)}}, composed sector by sector.
    """
    worst = 0.0
    for i, j, k, l in itertools.product((1, 2, 3), repeat=4):
        odd = (PAR[i - 1] + PAR[j - 1]) % 2 and (PAR[k - 1] + PAR[l - 1]) % 2
        a, b = zm_a[i, j], zm_b[k, l]
        terms = [(1.0, compose(a, b)), (1.0 if odd else -1.0, compose(b, a))]
        if reference is not None:
            sign = (-1) ** ((PAR[i - 1] * PAR[j - 1] + PAR[i - 1] * PAR[l - 1]
                             + PAR[j - 1] * PAR[l - 1]) % 2)
            if i == l:
                terms.append((-sign, reference[k, j]))
            if k == j:
                terms.append((sign, reference[i, l]))
        worst = max(worst, largest(combine(*terms)))
    return worst


def graded_kron(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Graded tensor product of two operators, with Koszul signs.

    (A (x) B)[(i,k),(j,l)] = A[i,j] B[k,l] (-1)^{(p[k]+p[l]) p[j]}: an entry
    of B of odd parity picks up a sign when it moves past an odd column
    index of A.  Reduces to the plain Kronecker product whenever ``b`` is an
    even operator.  Associative: kron(kron(a,b),c) == kron(a,kron(b,c)) entrywise.
    """
    pa = a.space.parity_array()
    pb = b.space.parity_array()
    raw = np.kron(a.mat, b.mat)
    # sign[(ik),(jl)] = (-1)^{pb[k]*pa[j]} * (-1)^{pb[l]*pa[j]}
    row_k = np.tile(pb, a.space.dim)          # pb[k] indexed by row (i,k)
    col_j = np.repeat(pa, b.space.dim)        # pa[j] indexed by column (j,l)
    col_l = np.tile(pb, a.space.dim)          # pb[l] indexed by column (j,l)
    sign = np.where((np.outer(row_k, col_j) + col_l * col_j) % 2, -1.0, 1.0)
    return GradedMatrix(tensor(a.space, b.space), raw * sign)


def supertrace(o: GradedMatrix) -> complex:
    """Supertrace over the whole space: sum of (-1)^parity weighted diagonal."""
    w = np.where(o.space.parity_array() % 2, -1.0, 1.0)
    return complex(np.sum(w * np.diag(o.mat)))


def supertrace_over_aux(
    o: GradedMatrix | np.ndarray,
    aux: GradedSpace | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Supertrace over the first (auxiliary) factor of an operator on V (x) H.

    Returns sum_i (-1)^{[i]} O_{ii-block} as a dense matrix on H.  Optional
    ``weights`` multiply each diagonal block (used for twisted traces).
    """
    aux = aux or GradedSpace.fundamental()
    mat = o.mat if isinstance(o, GradedMatrix) else np.asarray(o)
    d = aux.dim
    if mat.shape[0] % d:
        raise ValueError("operator dimension is not a multiple of the auxiliary dimension")
    dh = mat.shape[0] // d
    blocks = mat.reshape(d, dh, d, dh)
    w = np.where(aux.parity_array() % 2, -1.0, 1.0)
    if weights is not None:
        w = w * np.asarray(weights)
    out = np.zeros((dh, dh), dtype=complex)
    for i in range(d):
        out += w[i] * blocks[i, :, i, :]
    return out


def graded_commutator(
    a: np.ndarray | GradedMatrix,
    b: np.ndarray | GradedMatrix,
    parity_a: int,
    parity_b: int,
) -> np.ndarray:
    """[A, B} = AB - (-1)^{|A||B|} BA for operators of given index-pair parities.

    An operator labelled by monodromy indices (i,j) has parity [i]+[j] mod 2;
    the bracket is the anticommutator exactly when both labels are odd.
    """
    am = a.mat if isinstance(a, GradedMatrix) else a
    bm = b.mat if isinstance(b, GradedMatrix) else b
    s = -1.0 if (parity_a % 2) and (parity_b % 2) else 1.0
    return am @ bm - s * (bm @ am)


def entry_blocks(spec, groups: dict, i: int, j: int, sectors=None) -> dict:
    """The entry T_ij (1-based) of an aux (x) H operator given by group blocks {k: block}.

    Returns {s: (image, block)}, blocks copied and signed with the chain's
    BLOCK_SIGNS as it stands at the call, each mapping H sector s onto
    ``image``, for every s or only the given ``sectors``.  Sectors T_ij
    annihilates, or whose aux (x) H group is not in ``groups``, are absent.
    """
    _, entries = _block_map(spec.M)
    sign = chain.BLOCK_SIGNS[i - 1, j - 1]
    return {s: (image, sign * groups[g][rows, cols])
            for s, image, g, rows, cols in entries[i - 1][j - 1]
            if g in groups and (sectors is None or s in sectors)}


def _group_squares(spec, u, sites=None):
    """(k, block) for every aux (x) H group of the monodromy over ``sites``, each built whole."""
    sites = spec.all_sites() if sites is None else tuple(sites)
    steps = _l_steps(spec, u, sites)
    for k, ix in enumerate(_content_partition(spec.M + 1)[0]):
        yield k, _group_product(k, ix.size, slice(0, ix.size), steps)


def monodromy_group_set(spec, u, sites=None) -> dict:
    """Every aux (x) H group block of the monodromy over ``sites`` at once, as {k: block}."""
    return dict(_group_squares(spec, u, sites))


def monodromy_apply_full_set(spec, u, x: np.ndarray) -> np.ndarray:
    """T(u) X by the group blocks of ``monodromy_group_set``, each times its rows of X."""
    out = np.empty_like(x)
    groups = monodromy_group_set(spec, u)
    for k, ix in enumerate(_content_partition(spec.M + 1)[0]):
        out[ix] = groups[k] @ x[ix]
    return out


def transfer_blocks_full_set(spec, u, sectors=None) -> dict:
    """sum_i (-1)^{[i]} kappa_i T_ii(u) by ``combine`` over the whole group set."""
    groups = monodromy_group_set(spec, u)
    t = combine(*[((-1) ** PAR[i] * spec.twist.kappa[i], entry_blocks(spec, groups, i + 1, i + 1))
                  for i in range(3)])
    return t if sectors is None else {s: t[s] for s in sectors}


def tm1_residual_full_set(spec, u, v, indices) -> float:
    """tm1_residual by ``compose`` and ``combine`` over the whole group sets at u and v."""
    i, j, k, l = indices
    gu, gv = monodromy_group_set(spec, u), monodromy_group_set(spec, v)

    def t(groups, a, b):
        return entry_blocks(spec, groups, a, b)

    pi, pj, pk, pl = (PAR[x - 1] for x in indices)
    sign_comm = -1.0 if ((pi + pj) % 2) and ((pk + pl) % 2) else 1.0
    lhs = combine((1.0, compose(t(gu, i, j), t(gv, k, l))),
                  (-sign_comm, compose(t(gv, k, l), t(gu, i, j))))
    pref = (-1) ** ((pi * (pk + pl) + pk * pl) % 2) * g_fun(u, v)
    rhs = combine((pref, compose(t(gv, k, j), t(gu, i, l))),
                  (-pref, compose(t(gu, k, j), t(gv, i, l))))
    scale = max(largest(lhs), largest(rhs), 1.0)
    return largest(combine((1.0, lhs), (-1.0, rhs))) / scale


def leakage_by_eigensolve(spec, sectors) -> float:
    """The unswept sectors' figure as an eigensolve gives it: eigenvector leakage at the later probes."""
    return diagonalize_transfer(spec, sectors=sectors).consistency


def zero_mode_limit_groups(spec, scale: float = 1e6):
    """The large-u limit u (T(u) - 1) at u = scale, on every aux (x) H group.

    Yields (k, block) one group at a time, each a new array.
    """
    u = complex(scale)
    for k, block in _group_squares(spec, u):
        # u (T - 1) in place, with the bits of the out-of-place form
        block.flat[::block.shape[0] + 1] -= 1
        np.multiply(u, block, out=block)
        yield k, block


def zero_mode_limit_by_groups(spec) -> float:
    """The zero-mode limit row compared entry block by entry block, at u = 10^6 M.

    The largest entry of zero_mode_entry's blocks minus the limit's: the
    entry blocks tile the limit's groups, as |s a - s b| = |a - b| for the
    signs s, and each group is compared as soon as it is built.
    """
    diff = 0.0
    for k, block in zero_mode_limit_groups(spec, scale=1e6 * spec.M):
        for i, j in itertools.product((1, 2, 3), repeat=2):
            limit = entry_blocks(spec, {k: block}, i, j)
            if limit:
                exact = zero_mode_entry(spec, i, j, sectors=limit)
                diff = max([diff] + [float(np.abs(blk - limit[s][1]).max())
                                     for s, (_, blk) in exact.items()])
    return diff
