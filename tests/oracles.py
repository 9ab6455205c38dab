"""Oracles used only by the tests.

The package works on content-group blocks and signed permutations; the
dense forms here (graded Kronecker product, supertraces, graded commutator
and the two-site R-matrix) state the same conventions the textbook way, so
the tests can compare against them.  The full-set forms of the monodromy,
transfer_blocks and tm1_residual hold every aux (x) H group at once, each
product built from its own identity; the package's entry reads, which build
one group at a time in shared buffers, must match them to the bit.
"""

import numpy as np

from gradedbethe.chain import _content_partition, _group_product, _l_steps, combine, compose, \
    entry_blocks, g_fun
from gradedbethe.graded import FUNDAMENTAL_PARITIES, GradedMatrix, GradedSpace, \
    graded_permutation

PAR = np.array(FUNDAMENTAL_PARITIES)


def r_matrix(u: complex, v: complex, c: complex) -> GradedMatrix:
    """R(u,v) = I + g(u,v) P on the product of two fundamental spaces."""
    g = g_fun(u, v, c)
    fund = GradedSpace.fundamental()
    p = graded_permutation(fund, fund)
    return GradedMatrix(p.space, np.eye(9) + g * p.mat)


def graded_kron(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Graded tensor product of two operators (Koszul signs, see module doc).

    Reduces to the plain Kronecker product whenever ``b`` is an even operator.
    Associative: kron(kron(a,b),c) == kron(a,kron(b,c)) entrywise.
    """
    pa = a.space.parity_array()
    pb = b.space.parity_array()
    raw = np.kron(a.mat, b.mat)
    # sign[(ik),(jl)] = (-1)^{pb[k]*pa[j]} * (-1)^{pb[l]*pa[j]}
    row_k = np.tile(pb, a.space.dim)          # pb[k] indexed by row (i,k)
    col_j = np.repeat(pa, b.space.dim)        # pa[j] indexed by column (j,l)
    col_l = np.tile(pb, a.space.dim)          # pb[l] indexed by column (j,l)
    sign = np.where((np.outer(row_k, col_j) + col_l * col_j) % 2, -1.0, 1.0)
    return GradedMatrix(a.space.tensor(b.space), raw * sign)


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


def monodromy_group_set(spec, u, sites=None) -> dict:
    """Every aux (x) H group block of the monodromy over ``sites`` at once, as {k: block}."""
    sites = spec.all_sites() if sites is None else tuple(sites)
    steps = _l_steps(spec, u, sites, spec.M + 1, aux=0)
    return {k: _group_product(k, ix.size, steps)
            for k, ix in enumerate(_content_partition(spec.M + 1)[0])}


def transfer_blocks_full_set(spec, u, contents=None) -> dict:
    """sum_i (-1)^{[i]} kappa_i T_ii(u) by ``combine`` over the whole group set."""
    groups = monodromy_group_set(spec, u)
    t = combine(*[((-1) ** PAR[i] * spec.twist.kappa[i], entry_blocks(spec, groups, i + 1, i + 1))
                  for i in range(3)])
    return t if contents is None else {s: t[s] for s in contents}


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
    pref = (-1) ** ((pi * (pk + pl) + pk * pl) % 2) * g_fun(u, v, spec.c)
    rhs = combine((pref, compose(t(gv, k, j), t(gu, i, l))),
                  (-pref, compose(t(gu, k, j), t(gv, i, l))))

    def largest(op):
        return max((float(np.abs(blk).max()) for _, blk in op.values()), default=0.0)

    scale = max(largest(lhs), largest(rhs), 1.0)
    return largest(combine((1.0, lhs), (-1.0, rhs))) / scale
