"""Truncated Fock space and the explicit minimal isometric dilation.

The ambient space is H (+) Fock_N(D), where Fock_N(D) is the direct
sum of tensor levels 0..N over the defect space D; level m is indexed
by words of length m.  A :class:`GradedVector` stores the H component
and a sparse word-to-coefficient map, coefficients always in defect
basis coordinates.

For a row contraction (T_1, ..., T_d) the dilation acts grade by
grade:

    V_j (ell (+) sum_w e_w x_w)
        = T_j ell (+) [ e_{()} (D)_j ell + sum_w e_{jw} x_w ]

so applying V_j to a depth-N vector lands exactly in depth N+1 and no
truncation error occurs.  The adjoint lowers the grade:

    V_j* (ell (+) sum_w e_w x_w)
        = (T_j* ell + (D)_j* x_{()}) (+) sum_w e_w x_{jw}.

Isometry of each V_j and orthogonality of their ranges are exact
consequences of the defect identity; when the tuple is coisometric
the V_j sum to a row unitary on the truncation as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rowtuple import DefectData, OperatorTuple
from .words import Word, WordIndex, enumerate_words


class OverDepth(ValueError):
    """Raising the grade would exceed the configured truncation depth."""


class InnerSpaceMismatch(ValueError):
    """Coefficient dimensions do not match the defect rank or base dim."""


@dataclass
class GradedVector:
    """Element of H (+) Fock_depth(D), sparse over words.

    ``h`` is the base-space component (None means zero / absent), and
    ``fock`` maps words to coefficient vectors in defect coordinates.
    Missing words are zero.  Values may also be matrices whose columns
    are a batch of vectors; all operations are column-wise linear.
    """

    depth: int
    h: np.ndarray | None = None
    fock: dict[Word, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        for w in self.fock:
            if len(w) > self.depth:
                raise OverDepth(f"word {w} exceeds depth {self.depth}")

    def inner(self, other: "GradedVector") -> complex:
        total = 0.0 + 0.0j
        if self.h is not None and other.h is not None:
            total += complex(np.vdot(self.h, other.h))
        for w, x in self.fock.items():
            y = other.fock.get(w)
            if y is not None:
                total += complex(np.vdot(x, y))
        return total

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def width(self) -> int | None:
        """Batch width of the values, or None for plain vectors."""
        for val in ([self.h] if self.h is not None else []) + list(self.fock.values()):
            if val.ndim == 2:
                return val.shape[1]
        return None


def creation(j: int, x: GradedVector) -> GradedVector:
    """Tensor a basis letter on the left: e_w -> e_{jw}.

    Defined on Fock-only vectors supported below the top level;
    support at depth N would be pushed out of the truncation, which
    raises :class:`OverDepth` instead of silently discarding it.
    """
    if x.h is not None and np.count_nonzero(x.h):
        raise InnerSpaceMismatch("creation acts on Fock-only vectors")
    out: dict[Word, np.ndarray] = {}
    for w, v in x.fock.items():
        if len(w) >= x.depth:
            raise OverDepth(
                f"support at level {len(w)} cannot be raised within depth {x.depth}"
            )
        out[(j,) + w] = v.copy()
    return GradedVector(x.depth, None, out)


@dataclass(frozen=True, eq=False)
class GradedSpace:
    """Flat coordinates for H (+) Fock_depth(D): base slot first, then
    one inner_dim-sized slot per word in graded-lex order."""

    base_dim: int
    inner_dim: int
    index: WordIndex

    @property
    def depth(self) -> int:
        return self.index.depth

    @property
    def d(self) -> int:
        return self.index.d

    @property
    def dim(self) -> int:
        return self.base_dim + self.index.size * self.inner_dim

    def slot(self, word: Word) -> slice:
        k = self.index.index(word)
        start = self.base_dim + k * self.inner_dim
        return slice(start, start + self.inner_dim)

    def flatten(self, v: GradedVector, width: int | None = None) -> np.ndarray:
        """Stack a graded vector (or batch) into flat coordinates."""
        if v.depth > self.depth:
            raise OverDepth(f"vector depth {v.depth} exceeds space depth {self.depth}")
        if width is None:
            width = v.width()
        shape = (self.dim,) if width is None else (self.dim, width)
        out = np.zeros(shape, dtype=np.complex128)
        if v.h is not None:
            if v.h.shape[0] != self.base_dim:
                raise InnerSpaceMismatch(
                    f"base component has dim {v.h.shape[0]}, expected {self.base_dim}"
                )
            out[: self.base_dim] = v.h
        for w, val in v.fock.items():
            if val.shape[0] != self.inner_dim:
                raise InnerSpaceMismatch(
                    f"coefficient at {w} has dim {val.shape[0]}, expected {self.inner_dim}"
                )
            out[self.slot(w)] = val
        return out

    def unflatten(self, vec: np.ndarray) -> GradedVector:
        h = np.array(vec[: self.base_dim]) if self.base_dim else None
        fock = {
            w: np.array(vec[self.slot(w)]) for w in self.index.words
        }
        return GradedVector(self.depth, h, fock)

    def manifest(self) -> dict:
        """Basis layout as plain data, for JSON dumps of flat matrices."""
        return {
            "baseDim": self.base_dim,
            "innerDim": self.inner_dim,
            "depth": self.depth,
            "words": [list(w) for w in self.index.words],
        }


def graded_space(d: int, depth: int, base_dim: int, inner_dim: int) -> GradedSpace:
    return GradedSpace(base_dim, inner_dim, enumerate_words(d, depth))


def _base_or_zero(v: GradedVector, dim: int) -> np.ndarray:
    if v.h is not None:
        return v.h
    k = v.width()
    return np.zeros((dim,) if k is None else (dim, k), dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class Dilation:
    """The explicit isometric dilation of a row contraction."""

    t: OperatorTuple
    defect: DefectData

    @property
    def d(self) -> int:
        return self.t.d

    def space(self, depth: int) -> GradedSpace:
        return graded_space(self.t.d, depth, self.t.dim, self.defect.rank)

    def apply(self, j: int, v: GradedVector) -> GradedVector:
        """V_j, raising the truncation depth by one (grade exact)."""
        t_j = self.t.op(j)
        dj = self.defect.coord_component(j)
        h = _base_or_zero(v, self.t.dim)
        if h.shape[0] != self.t.dim:
            raise InnerSpaceMismatch("base component dimension mismatch")
        fock: dict[Word, np.ndarray] = {(): dj @ h}
        for w, x in v.fock.items():
            if x.shape[0] != self.defect.rank:
                raise InnerSpaceMismatch("defect coordinate dimension mismatch")
            fock[(j,) + w] = x.copy()
        return GradedVector(v.depth + 1, t_j @ h, fock)

    def adjoint_apply(self, j: int, v: GradedVector) -> GradedVector:
        """V_j*, lowering the truncation depth by one (exact on every grade)."""
        t_j = self.t.op(j)
        dj = self.defect.coord_component(j)
        h = _base_or_zero(v, self.t.dim)
        new_h = t_j.conj().T @ h
        vac = v.fock.get(())
        if vac is not None:
            new_h = new_h + dj.conj().T @ vac
        fock = {w[1:]: x.copy() for w, x in v.fock.items() if w[:1] == (j,)}
        return GradedVector(max(v.depth - 1, 0), new_h, fock)

    def matrix(self, j: int, depth: int) -> np.ndarray:
        """Flat matrix of V_j from depth ``depth`` to ``depth + 1``."""
        dom = self.space(depth)
        cod = self.space(depth + 1)
        n, r = self.t.dim, self.defect.rank
        m = np.zeros((cod.dim, dom.dim), dtype=np.complex128)
        m[:n, :n] = self.t.op(j)
        m[cod.slot(()), :n] = self.defect.coord_component(j)
        for w in dom.index.words:
            m[cod.slot((j,) + w), dom.slot(w)] = np.eye(r)
        return m

