"""Z2-graded linear algebra: graded spaces, tensor products, permutations.

Everything downstream (monodromy matrices, transfer matrices, form factors)
is built on the primitives in this module, so the sign conventions live here
and nowhere else.  The tensor-product sign convention is

    (A (x) B)[(i,k),(j,l)] = A[i,j] * B[k,l] * (-1)**((p[k]+p[l]) * p[j]),

i.e. an entry of B of odd parity picks up a sign when it moves past an odd
column index of A.  The convention is certified operationally: with it, the
RTT relation and the zero-mode commutation algebra hold verbatim (see the
chain tests), which is the only conformance criterion that matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FUNDAMENTAL_PARITIES",
    "GradedSpace",
    "GradedMatrix",
    "SignedPermutation",
    "parity_of_index",
    "graded_kron",
    "graded_permutation",
    "permutation_between",
    "supertrace",
    "supertrace_over_aux",
    "graded_commutator",
]

#: parities of the fundamental basis e_1, e_2, e_3 (1-based indices 1,2,3)
FUNDAMENTAL_PARITIES = (0, 0, 1)


def parity_of_index(i: int) -> int:
    """Parity of the fundamental basis index i in {1,2,3}: even, even, odd."""
    if i not in (1, 2, 3):
        raise ValueError(f"basis index must be 1, 2 or 3, got {i}")
    return FUNDAMENTAL_PARITIES[i - 1]


@dataclass(frozen=True)
class GradedSpace:
    """A finite-dimensional Z2-graded vector space."""

    dim: int
    parities: tuple[int, ...]

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dimension must be positive")
        if len(self.parities) != self.dim:
            raise ValueError("grading length must equal dimension")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    @classmethod
    def fundamental(cls) -> "GradedSpace":
        """The 3-dimensional space with grading (0, 0, 1)."""
        return cls(3, FUNDAMENTAL_PARITIES)

    def tensor(self, other: "GradedSpace") -> "GradedSpace":
        """Product space; grading is additive mod 2 across factors."""
        p = np.add.outer(np.array(self.parities), np.array(other.parities)) % 2
        return GradedSpace(self.dim * other.dim, tuple(int(x) for x in p.ravel()))

    def parity_array(self) -> np.ndarray:
        return np.array(self.parities, dtype=np.int64)


@dataclass
class GradedMatrix:
    """Dense complex operator on a graded space, with its grading metadata."""

    space: GradedSpace
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match space dim {self.space.dim}"
            )
        if not np.all(np.isfinite(self.mat.view(float))):
            raise ValueError("matrix entries must be finite")

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.space != other.space:
            raise ValueError("operators act on different spaces")
        return GradedMatrix(self.space, self.mat @ other.mat)



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


@dataclass
class SignedPermutation:
    """A signed permutation operator: P e_j = sign[j] * e_dest[j].

    Compact stand-in for graded permutation matrices; applying it to a dense
    matrix costs O(N^2) instead of a matrix product.
    """

    dest: np.ndarray
    sign: np.ndarray

    def to_matrix(self) -> np.ndarray:
        n = self.dest.size
        m = np.zeros((n, n), dtype=complex)
        m[self.dest, np.arange(n)] = self.sign
        return m


def _basis_digits(dims: list[int]) -> np.ndarray:
    """Mixed-radix digits of all flat basis indices, most significant first."""
    n = int(np.prod(dims))
    digits = np.empty((n, len(dims)), dtype=np.int64)
    idx = np.arange(n)
    for t in range(len(dims) - 1, -1, -1):
        digits[:, t] = idx % dims[t]
        idx //= dims[t]
    return digits


def permutation_between(
    factors: list[GradedSpace] | tuple[GradedSpace, ...], x: int, y: int
) -> SignedPermutation:
    """Graded permutation of factors x and y inside a multi-factor product.

    Acting on a product basis vector it swaps the x-th and y-th entries and
    multiplies by (-1)^{p_x p_y + (p_x + p_y) * sum of parities in between},
    the sign of transporting the two vectors past each other and past every
    factor separating them.
    """
    if x == y:
        raise ValueError("factors to permute must be distinct")
    x, y = min(x, y), max(x, y)
    dims = [f.dim for f in factors]
    digits = _basis_digits(dims)
    par = [f.parity_array() for f in factors]

    px = par[x][digits[:, x]]
    py = par[y][digits[:, y]]
    between = np.zeros(digits.shape[0], dtype=np.int64)
    for t in range(x + 1, y):
        between += par[t][digits[:, t]]
    sign = np.where((px * py + (px + py) * between) % 2, -1.0, 1.0)

    swapped = digits.copy()
    swapped[:, x], swapped[:, y] = digits[:, y], digits[:, x]
    dest = np.zeros(digits.shape[0], dtype=np.int64)
    for t, d in enumerate(dims):
        dest = dest * d + swapped[:, t]
    return SignedPermutation(dest=dest, sign=sign)


def graded_permutation(s1: GradedSpace, s2: GradedSpace) -> GradedMatrix:
    """The graded permutation P on s1 (x) s2: P(e_i (x) e_j) = (-1)^{[i][j]} e_j (x) e_i."""
    if s1.dim != s2.dim:
        raise ValueError("graded permutation needs equal-dimensional factors")
    perm = permutation_between([s1, s2], 0, 1)
    return GradedMatrix(s1.tensor(s2), perm.to_matrix())


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
