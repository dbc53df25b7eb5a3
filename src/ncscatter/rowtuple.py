"""Tuples of operators viewed as a single row operator.

A d-tuple (T_1, ..., T_d) of n x n matrices acts as the row
[T_1 ... T_d] from the d-fold direct sum of C^n to C^n.  The defect
operator of a row contraction

    D = (I - row* row)^(1/2)

on the direct sum measures how far the tuple is from a row isometry;
its range is the defect space.  Operators with values in the defect
space are always stored in coordinates of a fixed orthonormal basis
of that range, so downstream code never drags around the ambient
d*n-dimensional representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    """A d-tuple of square matrices on a common space."""

    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("need at least one operator")
        mats = tuple(linalg.as_matrix(op) for op in self.ops)
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise ValueError(f"all operators must be {n}x{n}, got {m.shape}")
        object.__setattr__(self, "ops", mats)

    @property
    def d(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def row(self) -> np.ndarray:
        """The n x (d*n) block row [T_1 ... T_d]."""
        return np.hstack(self.ops)

    def op(self, j: int) -> np.ndarray:
        """Letter-indexed access, j in 1..d."""
        if not 1 <= j <= self.d:
            raise IndexError(f"letter {j} outside 1..{self.d}")
        return self.ops[j - 1]

    def word_product(self, word) -> np.ndarray:
        """T_w = T_{w_1} T_{w_2} ... T_{w_k} (left to right)."""
        out = np.eye(self.dim, dtype=np.complex128)
        for letter in word:
            out = out @ self.op(letter)
        return out


@dataclass(frozen=True, eq=False)
class DefectData:
    """Defect operator of a row contraction plus coordinate plumbing.

    ``operator`` is D = (I - row* row)^(1/2) on the d*n-dimensional
    direct sum, ``basis`` an orthonormal basis of its range and
    ``rank`` the defect rank.  ``spectrum`` holds the ascending
    eigenvalues of I - row* row that the square root cut.
    ``coord_component(j)`` is the rank x n matrix of the j-th slot
    embedding followed by D, expressed in basis coordinates: it sends
    ell in C^n to the coordinates of D (0, ..., ell, ..., 0).  Its
    conjugate transpose realizes the adjoint slot map from defect
    coordinates back to C^n.
    """

    operator: np.ndarray
    basis: np.ndarray
    rank: int
    spectrum: np.ndarray
    _components: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    def coord_component(self, j: int) -> np.ndarray:
        """Letter-indexed access, j in 1..d."""
        d = len(self._components)
        if not 1 <= j <= d:
            raise IndexError(f"letter {j} outside 1..{d}")
        return self._components[j - 1]


def defect(t: OperatorTuple) -> DefectData:
    """Defect data of a tuple; nothing is refused.

    Eigenvalues of I - row* row at or below the rank tolerance (on the
    natural scale 1 of a contraction) are zeroed, negative ones included,
    so row isometries get the zero defect and coisometric tuples an exact
    orthogonal projection.  Whether the tuple is a contraction is for the
    caller to measure, as :func:`.lifting.assemble` does.
    """
    row = t.row()
    gram = np.eye(row.shape[1], dtype=np.complex128) - row.conj().T @ row
    op, spectrum = linalg.hermitian_sqrt(gram)
    basis = linalg.range_onb(op)
    comps = tuple(
        basis.conj().T @ op[:, j * t.dim : (j + 1) * t.dim] for j in range(t.d)
    )
    return DefectData(op, basis, basis.shape[1], spectrum, comps)
