"""Truncated Fock space and the explicit minimal isometric dilation.

The ambient space is H (+) Fock_N(D), where Fock_N(D) is the direct
sum of tensor levels 0..N over the defect space D; level m is indexed
by the d**m words of length m.  A vector, or a batch of vectors as
columns, is one flat array in the layout of :class:`GradedSpace`: the
H coordinates first, then one defect-coordinate slot per word in
graded-lex order.  Two index facts make word arithmetic index
arithmetic:

* level offsets do not depend on N, so a depth-k vector is the
  zero-padded prefix of the same vector at any depth N >= k:
  embedding is a pad and truncation is a slice;
* prepending letter j moves level m into the j-th of d equal blocks
  of level m+1, and appending j sends the index u of a word inside
  its level to u*d + j-1.

For a row contraction (T_1, ..., T_d) the dilation acts grade by
grade:

    V_j (ell (+) sum_w e_w x_w)
        = T_j ell (+) [ e_{()} (D)_j ell + sum_w e_{jw} x_w ]

so applying V_j to a depth-N vector lands exactly in depth N+1 and no
truncation error occurs; its adjoint is the conjugate transpose of
the flat matrix.  Isometry of each V_j and orthogonality of their
ranges are exact consequences of the defect identity; when the tuple
is coisometric the V_j sum to a row unitary on the truncation as well.

On H, V_j reads block j of the stage block :attr:`Dilation.stage`,
``U = [[T_1 ... T_d], [(D)_1 ... (D)_d]]``, unitary when the tuple is
coisometric.  Every other column of V_j copies a Fock slot one level
up: it is an exact unit vector, whose row the second index fact gives.
So a letter is ``U`` plus one integer table, and :meth:`Dilation.matrix`
writes the row ``[V_1 ... V_d]`` as that table straight from the index
arithmetic: the row each letter sends each Fock column to.

:attr:`Dilation.letters` holds the blocks ``U_j`` and
:attr:`Dilation.stage_adjoint` holds ``U*``, each made once per
dilation: every reader of a letter, of its defect block
``(D)_j = letters[j - 1][n:]`` or of ``U*`` takes it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rowtuple import OperatorTuple
from .words import Word, level_start, position


@dataclass(frozen=True, eq=False)
class GradedSpace:
    """Flat coordinates for H (+) Fock_depth(D): base slot first, then
    one inner_dim-sized slot per word in graded-lex order."""

    d: int
    depth: int
    base_dim: int
    inner_dim: int

    def __post_init__(self):
        if self.d < 1 or self.depth < 0:
            raise ValueError(f"no words over {self.d} letters up to depth {self.depth}")

    @property
    def dim(self) -> int:
        return self.level(self.depth + 1).start

    def slot(self, word: Word) -> slice:
        """Rows of ``word``, from its graded-lex position."""
        start = self.base_dim + self.inner_dim * position(self.d, self.depth, word)
        return slice(start, start + self.inner_dim)

    def level(self, m: int) -> slice:
        """Rows of Fock level m: the slots of its d**m words, in order.

        Level depth+1 starts at ``dim``, right after the last slot.
        """
        start = self.base_dim + self.inner_dim * level_start(self.d, m)
        return slice(start, start + self.inner_dim * self.d**m)

    def blocks(self, vec: np.ndarray, m: int) -> np.ndarray:
        """Level m of ``vec`` as a (d**m, inner_dim, ...) view, one block per word."""
        return vec[self.level(m)].reshape((self.d**m, self.inner_dim) + vec.shape[1:])

    def slots(self, vec: np.ndarray) -> np.ndarray:
        """Every word slot of ``vec`` as a (words, inner_dim, ...) view, in graded-lex order."""
        words = level_start(self.d, self.depth + 1)
        return vec[self.base_dim : self.dim].reshape((words, self.inner_dim) + vec.shape[1:])

    def pad(self, vec: np.ndarray) -> np.ndarray:
        """Embed a vector of a shallower truncation: zero-pad the prefix."""
        out = np.zeros((self.dim,) + vec.shape[1:], dtype=np.complex128)
        out[: vec.shape[0]] = vec
        return out


@dataclass(frozen=True, eq=False)
class Dilation:
    """The explicit isometric dilation of a row contraction, on ``t.defect``."""

    t: OperatorTuple

    @property
    def d(self) -> int:
        return self.t.d

    def space(self, depth: int) -> GradedSpace:
        return GradedSpace(self.t.d, depth, self.t.dim, self.t.defect.rank)

    @cached_property
    def stage(self) -> np.ndarray:
        """The (n + r) x d*n stage block: column block j is ``[T_j ; (D)_j]``,
        ``(D)_j`` the rows of ``D`` on slot j in defect-basis coordinates, a
        product of its own (slot slices of ``coords`` differ in the last bits)."""
        dd, n = self.t.defect, self.t.dim
        comps = [dd.basis.conj().T @ dd.operator[:, j * n : (j + 1) * n] for j in range(self.d)]
        return np.vstack([self.t.row(), np.hstack(comps)])

    @cached_property
    def letters(self) -> tuple[np.ndarray, ...]:
        """The letter blocks ``U_j = [T_j ; (D)_j]``, as views of :attr:`stage`."""
        return tuple(np.hsplit(self.stage, self.d))

    @cached_property
    def stage_adjoint(self) -> np.ndarray:
        """``U*``: the transposed view of a conjugate copy of :attr:`stage`, made on first read."""
        return self.stage.conj().T

    def apply(self, j: int, x: np.ndarray, depth: int) -> np.ndarray:
        """V_j on a flat vector or column batch at ``depth``, landing in depth + 1."""
        dom, cod = self.space(depth), self.space(depth + 1)
        if not 1 <= j <= self.d:
            raise IndexError(f"letter {j} outside 1..{self.d}")
        out = np.zeros((cod.dim,) + x.shape[1:], dtype=np.complex128)
        out[: cod.slot(()).stop] = self.letters[j - 1] @ x[: dom.base_dim]
        for m in range(depth + 1):
            n = self.d**m
            cod.blocks(out, m + 1)[(j - 1) * n : j * n] = dom.blocks(x, m)
        return out

    def translates(self, x: np.ndarray, depth: int, length: int) -> list[np.ndarray]:
        """``V_w x`` for every word w of length <= ``length``, one level per length.

        Level m holds the translates of its d**m words side by side in
        graded-lex order, at depth ``depth + m``; level m+1 applies each
        V_j to the whole of level m, in letter order.
        """
        levels = [x]
        for m in range(length):
            levels.append(
                np.hstack([self.apply(j, levels[-1], depth + m) for j in range(1, self.d + 1)])
            )
        return levels

    def matrix(self, depth: int) -> np.ndarray:
        """The row ``[V_1 ... V_d]`` from depth ``depth`` to ``depth + 1`` as its row table.

        Letter j's first n columns, on the base space, are block j of
        :attr:`stage`.  Each other column c copies level m into the j-th
        of d equal blocks of level m + 1, as in :meth:`apply`, so it is
        the unit vector of row ``table[j - 1, c - n]`` of the depth + 1
        space; the (d, dim - n) int table holds those rows.
        """
        cod = self.space(depth + 1)
        levels = [cod.level(m + 1) for m in range(depth + 1)]
        return np.hstack([np.arange(lv.start, lv.stop).reshape(self.d, -1) for lv in levels])
