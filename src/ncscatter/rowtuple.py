"""Tuples of operators viewed as a single row operator.

A d-tuple (T_1, ..., T_d) of n x n matrices acts as the row
[T_1 ... T_d] from the d-fold direct sum of C^n to C^n.  A row
contraction has one defect D = (I - row* row)^(1/2) on the direct sum
and one star defect D* = (I - row row*)^(1/2) on C^n.  The tuple owns
both, rooted once on first read (:attr:`OperatorTuple.defect` and
:attr:`OperatorTuple.star_defect`), and every reader takes them there.
Operators with values in a defect space are stored in coordinates of
a fixed orthonormal basis of its range, never in the ambient
d*n-dimensional representation.  A defect owns them, ``Q* D``, as
:attr:`DefectData.coords` and its kernel basis as :attr:`DefectData.kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg


class GramOverflow(ValueError):
    """A defect Gram has a non-finite entry: the tuple's entries are too
    large for their products to be held in double precision."""


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

    @cached_property
    def defect(self) -> DefectData:
        """The defect of ``I - row* row``, made by :func:`defect`."""
        return defect(self)

    @cached_property
    def star_defect(self) -> DefectData:
        """The star defect, of ``I - row row*`` on C^n."""
        row = self.row()
        return _root(row, row.conj().T, "I - T T*")


@dataclass(frozen=True, eq=False)
class DefectData:
    """A defect operator and an orthonormal basis of its range.

    ``operator`` is the square root of a defect Gram (``I - row* row``
    on the d*n-dimensional direct sum, or ``I - row row*`` on C^n),
    ``basis`` an orthonormal basis of its range and ``rank`` the defect
    rank.  ``spectrum`` holds the ascending eigenvalues of the Gram that
    the square root cut.
    """

    operator: np.ndarray
    basis: np.ndarray
    rank: int
    spectrum: np.ndarray

    @cached_property
    def coords(self) -> np.ndarray:
        """``Q* D``: the defect operator in the coordinates of ``basis``."""
        return self.basis.conj().T @ self.operator

    @cached_property
    def kernel(self) -> np.ndarray:
        """An orthonormal basis of ``ker D``, the complement of ``basis``."""
        return linalg.complement_onb(self.basis)


def _root(left: np.ndarray, right: np.ndarray, name: str) -> DefectData:
    """Defect data of the Gram ``I - left @ right``; a non-finite entry is
    refused with :class:`GramOverflow` before any decomposition."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.eye(left.shape[0], dtype=np.complex128) - left @ right
    if not np.isfinite(gram).all():
        raise GramOverflow(
            f"{name} has a non-finite entry: the entries are too large for double precision"
        )
    op, spectrum = linalg.hermitian_sqrt(gram)
    basis = linalg.range_onb(op)
    return DefectData(op, basis, basis.shape[1], spectrum)


def defect(t: OperatorTuple) -> DefectData:
    """Defect data of a tuple; nothing but an overflowing Gram is refused.

    Eigenvalues of I - row* row at or below the rank tolerance (on the
    natural scale 1 of a contraction) are zeroed, negative ones included,
    so row isometries get the zero defect and coisometric tuples an exact
    orthogonal projection.  Whether the tuple is a contraction is for the
    caller to measure, as :func:`.lifting.assemble` does.  Read it as
    :attr:`OperatorTuple.defect`, which makes it once per tuple.
    """
    row = t.row()
    return _root(row.conj().T, row, "I - T* T")
