"""Z2 grading of the fundamental space, and the graded space and operator types.

``FUNDAMENTAL_PARITIES`` is the grading (0, 0, 1) of e_1, e_2, e_3, and the
only name the chain reads from here.  The conventions built on it live in
``chain``: the one graded swap (``_gather``), the entry signs BLOCK_SIGNS and
the letter rule of the zero modes.  ``GradedSpace`` and ``GradedMatrix``, a
dense operator with its grading, are public names that the test oracles
(tests/oracles.py, home of the product space and the graded Kronecker
product) and the benchmark's tracer use; no module of the package builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FUNDAMENTAL_PARITIES",
    "GradedSpace",
    "GradedMatrix",
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
