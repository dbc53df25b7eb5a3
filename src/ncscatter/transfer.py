"""Colligation and transfer function attached to a lifting.

The lifted tuple drives a noncommutative linear system with state
space the lifted ambient space, inputs in the lifted defect space and
outputs in the base defect space:

    x(j w) = E_j* x(w) + (D_E-coords)_j* u(w)
    y(w)   = C x(w) + D u(w)

where C compresses through the base space into base defect
coordinates and D is the corresponding feedthrough.  The state and
input rows [E_j*  (D)_j*] are U_j*, the adjoint of the lifted
dilation's letter block (:attr:`.dilation.Dilation.letters`), and are
read there, so their coisometry is the dilation's ``U_i* U_j = δ_ij I``.
The output rows [C  D] are a coisometry onto the base defect space,
measured by :func:`colligation_violation`.

The transfer function assigns to every word a coefficient matrix,
coeff(()) = D and coeff(g_1..g_k) = C E_{g_1}* .. E_{g_{k-1}}*
(D-coords)_{g_k}*.  Its Toeplitz (right-convolution) action on
truncated series is a contraction, with norm exactly one when the
corner is absent and the base defect space is not zero.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import linalg
from .lifting import LiftingInstance
from .words import Word, enumerate_words, level_start, position, prepend_levels


class DimMismatch(ValueError):
    """Series or colligation dimensions do not line up."""


@dataclass(frozen=True, eq=False)
class Colligation:
    """System matrices of the lifting-driven linear system.

    ``state_ops[j-1]`` is the adjoint lifted operator, ``input_ops[j-1]``
    inserts defect coordinates into the state space, ``output_map``
    reads base defect coordinates off the state, ``feedthrough``
    couples input to output directly.
    """

    state_ops: tuple[np.ndarray, ...]
    input_ops: tuple[np.ndarray, ...]
    output_map: np.ndarray
    feedthrough: np.ndarray

    @property
    def d(self) -> int:
        return len(self.state_ops)

    @property
    def state_dim(self) -> int:
        return self.state_ops[0].shape[0]

    @property
    def in_dim(self) -> int:
        return self.input_ops[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.output_map.shape[0]


def build_colligation(instance: LiftingInstance) -> Colligation:
    nc, ne = instance.dim_c, instance.dim_e
    proj = np.zeros((nc, ne), dtype=np.complex128)
    proj[:, :nc] = np.eye(nc)
    adjoints = np.vsplit(instance.dilation_e.stage_adjoint, instance.d)
    state_ops = tuple(a[:, :ne] for a in adjoints)
    input_ops = tuple(a[:, ne:] for a in adjoints)
    comps = [u[nc:] for u in instance.dilation_c.letters]
    output_map = sum(comp @ proj @ op for comp, op in zip(comps, state_ops))
    feedthrough = sum(comp @ proj @ op for comp, op in zip(comps, input_ops))
    return Colligation(state_ops, input_ops, output_map, feedthrough)


def colligation_violation(coll: Colligation) -> float:
    """Size of the coisometry identity of the output rows: C C* + D D*
    must be the identity on the output space."""
    out_gram = (
        coll.output_map @ coll.output_map.conj().T
        + coll.feedthrough @ coll.feedthrough.conj().T
    )
    return linalg.operator_norm(out_gram - np.eye(coll.out_dim))


def transfer_coefficient(coll: Colligation, word: Word) -> np.ndarray:
    """Coefficient of the transfer function at one word."""
    if len(word) == 0:
        return coll.feedthrough.copy()
    s = coll.input_ops[word[-1] - 1]
    for letter in reversed(word[:-1]):
        s = coll.state_ops[letter - 1] @ s
    return coll.output_map @ s


def require_words(d: int, depth: int) -> None:
    """DimMismatch unless some word over d letters has length <= depth."""
    if d < 1 or depth < 0:
        raise DimMismatch(f"no words over {d} letters up to depth {depth}")


@dataclass(frozen=True, eq=False)
class NCSeries(Mapping):
    """Word-indexed matrix series over d letters, truncated at ``depth``.

    ``coeffs`` is one (words, out_dim, in_dim) array holding the
    coefficient of every word of length <= depth in graded-lex order.
    The series reads as a mapping from those words to their
    coefficients; a series with in_dim 1 doubles as a vector-valued
    signal.
    """

    d: int
    depth: int
    coeffs: np.ndarray

    def __post_init__(self):
        require_words(self.d, self.depth)
        words = level_start(self.d, self.depth + 1)
        if self.coeffs.ndim != 3 or len(self.coeffs) != words:
            raise DimMismatch(
                f"coefficients of shape {self.coeffs.shape}, expected {words} matrices"
            )

    @property
    def out_dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def in_dim(self) -> int:
        return self.coeffs.shape[2]

    def level(self, m: int) -> np.ndarray:
        """The (d**m, out_dim, in_dim) coefficients of the words of length m."""
        return self.coeffs[level_start(self.d, m) : level_start(self.d, m + 1)]

    def prefix(self, depth: int) -> NCSeries:
        """The series on the words of length <= depth."""
        return NCSeries(self.d, depth, self.coeffs[: level_start(self.d, depth + 1)])

    def coeff(self, w: Word) -> np.ndarray:
        """Coefficient at ``w``; KeyError beyond the depth or the alphabet."""
        return self.coeffs[position(self.d, self.depth, tuple(w))]

    __getitem__ = coeff

    def __iter__(self):
        return iter(enumerate_words(self.d, self.depth))

    def __len__(self) -> int:
        return len(self.coeffs)


def transfer_series(coll: Colligation, depth: int) -> NCSeries:
    """All transfer coefficients up to ``depth``, sharing suffix work."""
    suffix = prepend_levels(
        np.stack(coll.input_ops), coll.d, depth - 1, lambda j, m, s: coll.state_ops[j - 1] @ s
    )
    levels = [coll.feedthrough[None]] + [coll.output_map @ s for s in suffix[:depth]]
    return NCSeries(coll.d, depth, np.concatenate(levels))


def series_multiply(left: NCSeries, right: NCSeries) -> NCSeries:
    """Word convolution: out(g) = sum over g = a.b of left(a) right(b).

    Level n of the product sums, by ascending ``len(a)``, one batched
    product per pair of levels: a and b go to index
    ``idx(a)·d**len(b) + idx(b)`` of level n.  The result is exact only
    up to the shallower input depth, so it stops there.
    """
    cap = min(left.depth, right.depth)
    d = left.d
    out = np.zeros((level_start(d, cap + 1), left.out_dim, right.in_dim), dtype=np.complex128)
    for n in range(cap + 1):
        level = out[level_start(d, n) : level_start(d, n + 1)]
        for k in range(n + 1):
            pairs = left.level(k)[:, None] @ right.level(n - k)[None]
            level += pairs.reshape(level.shape)
    return NCSeries(d, cap, out)


def right_translate(series: NCSeries, letter: int) -> NCSeries:
    """Append one letter to every word (formal right shift).

    Appending ``letter`` sends graded-lex position i to ``d·i + letter``.
    """
    d, depth = series.d, series.depth + 1
    out = np.zeros((level_start(d, depth + 1),) + series.coeffs.shape[1:], dtype=np.complex128)
    out[d * np.arange(len(series)) + letter] = series.coeffs
    return NCSeries(d, depth, out)


def toeplitz_matrix(series: NCSeries) -> np.ndarray:
    """Block matrix of convolution by the series on words up to its depth.

    Row block g, column block b holds coeff(a) when g = a.b, so the
    matrix maps stacked input signals to stacked output signals.  The
    blocks from level n - k to level n are coefficient level k copied
    onto the d**(n-k) diagonal positions ``idx(a)·d**(n-k) + idx(b), idx(b)``.
    """
    d, depth, p, m = series.d, series.depth, series.out_dim, series.in_dim
    size = level_start(d, depth + 1)
    out = np.zeros((size * p, size * m), dtype=np.complex128)
    blocks = out.reshape(size, p, size, m)
    for n in range(depth + 1):
        for k in range(n + 1):
            a = np.arange(d**k)[:, None]
            b = np.arange(d ** (n - k))
            rows = level_start(d, n) + a * d ** (n - k) + b
            blocks[rows, :, level_start(d, n - k) + b] = series.level(k)[:, None]
    return out


def transfer_norm(series: NCSeries) -> float:
    """Norm of the Toeplitz action of a series on words up to its depth."""
    return linalg.operator_norm(toeplitz_matrix(series))


def multi_analyticity_violation(
    theta: NCSeries, signal: NCSeries, out: NCSeries, letter: int
) -> float:
    """Convolution must commute with the formal right shift: ``theta`` convolved
    with the shifted ``signal`` against the shift of ``out``, the convolution
    ``theta * signal``."""
    lhs = series_multiply(theta, right_translate(signal, letter))
    rhs = right_translate(out, letter)
    words = level_start(theta.d, min(lhs.depth, rhs.depth) + 1)
    return linalg.stack_norm(lhs.coeffs[:words] - rhs.coeffs[:words])


def random_series(
    out_dim: int, in_dim: int, d: int, depth: int, seed
) -> NCSeries:
    """Dense random series, complex normal entries, for property tests;
    drawn word by word in graded-lex order, real part first."""
    require_words(d, depth)
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((level_start(d, depth + 1), 2, out_dim, in_dim))
    return NCSeries(d, depth, parts[:, 0] + 1j * parts[:, 1])
