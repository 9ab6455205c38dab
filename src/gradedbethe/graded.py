"""Z2-graded linear algebra: graded spaces, operators, signed permutations.

Everything downstream (monodromy matrices, transfer matrices, form factors)
is built on the primitives in this module, so the sign conventions live here
and nowhere else.  The tensor-product sign convention is

    (A (x) B)[(i,k),(j,l)] = A[i,j] * B[k,l] * (-1)**((p[k]+p[l]) * p[j]),

i.e. an entry of B of odd parity picks up a sign when it moves past an odd
column index of A; the graded permutations below follow it, and
tests/oracles.py implements it as ``graded_kron``.  The convention is
certified operationally: with it, the RTT relation and the zero-mode
commutation algebra hold verbatim (see the chain tests), which is the only
conformance criterion that matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FUNDAMENTAL_PARITIES",
    "GradedSpace",
    "GradedMatrix",
    "SignedPermutation",
    "permutation_between",
]

#: parities of the fundamental basis e_1, e_2, e_3 (1-based indices 1,2,3)
FUNDAMENTAL_PARITIES = (0, 0, 1)


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
