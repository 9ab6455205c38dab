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


def permutation_between(
    factors: list[GradedSpace] | tuple[GradedSpace, ...], x: int, y: int
) -> SignedPermutation:
    """Graded permutation of factors x and y inside a multi-factor product.

    Acting on a product basis vector it swaps the x-th and y-th entries and
    multiplies by (-1)^{p_x p_y + (p_x + p_y) * sum of parities in between},
    the sign of transporting the two vectors past each other and past every
    factor separating them.  Both are read off the grid of flat indices, one
    axis per factor: ``dest`` is that grid with axes x and y swapped, and each
    factor's parities vary along its own axis only.  Factors x and y must
    have equal dimensions.
    """
    if x == y:
        raise ValueError("factors to permute must be distinct")
    x, y = min(x, y), max(x, y)
    dims = [f.dim for f in factors]
    if dims[x] != dims[y]:
        raise ValueError("factors to permute must have equal dimensions")
    dest = np.arange(int(np.prod(dims))).reshape(dims).swapaxes(x, y).ravel()

    # each factor's parities, along its own axis of the index grid
    par = [f.parity_array().reshape([f.dim if s == t else 1 for s in range(len(dims))])
           for t, f in enumerate(factors)]
    px, py, between = par[x], par[y], sum(par[x + 1:y], 0)
    odd = (px * py + (px + py) * between) % 2
    sign = np.where(np.broadcast_to(odd, dims), -1.0, 1.0).ravel()
    return SignedPermutation(dest=dest, sign=sign)
