"""Colligation and transfer function attached to a lifting.

The lifted tuple drives a noncommutative linear system with state
space the lifted ambient space, inputs in the lifted defect space and
outputs in the base defect space:

    x(j w) = E_j* x(w) + (D_E-coords)_j* u(w)
    y(w)   = C x(w) + D u(w)

where C compresses through the base space into base defect
coordinates and D is the corresponding feedthrough.  The defect block
identity makes the stacked state rows [E_j*  (D)_j*] a coisometry,
and the output rows [C  D] are a coisometry onto the base defect
space; both are measured by :func:`colligation_violations`.

The transfer function assigns to every word a coefficient matrix,
coeff(()) = D and coeff(g_1..g_k) = C E_{g_1}* .. E_{g_{k-1}}*
(D-coords)_{g_k}*.  Its Toeplitz (right-convolution) action on
truncated series is a contraction, with norm exactly one when the
corner is absent and the base defect space is not zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .lifting import LiftingInstance
from .words import Word, enumerate_words, prepend_levels, splits


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

    def __post_init__(self):
        n, m = self.state_dim, self.in_dim
        p = self.out_dim
        for op in self.state_ops:
            if op.shape != (n, n):
                raise DimMismatch("state blocks must be square and equal-sized")
        for op in self.input_ops:
            if op.shape != (n, m):
                raise DimMismatch("input blocks must map input to state")
        if len(self.input_ops) != len(self.state_ops):
            raise DimMismatch("need one input block per state block")
        if self.output_map.shape != (p, n) or self.feedthrough.shape != (p, m):
            raise DimMismatch("output rows must share the output dimension")

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
    state_ops = tuple(op.conj().T for op in instance.e.ops)
    input_ops = tuple(
        instance.defect_e.coord_component(j).conj().T
        for j in range(1, instance.d + 1)
    )
    output_map = sum(
        instance.defect_c.coord_component(j) @ proj @ state_ops[j - 1]
        for j in range(1, instance.d + 1)
    )
    feedthrough = sum(
        instance.defect_c.coord_component(j) @ proj @ input_ops[j - 1]
        for j in range(1, instance.d + 1)
    )
    return Colligation(state_ops, input_ops, output_map, feedthrough)


def colligation_violations(coll: Colligation) -> dict[str, float]:
    """Sizes of the two coisometry identities of the system matrices.

    ``state_rows``: the d x d block Gram of [state  input] rows must
    be the identity (one block per pair of letters, this is the defect
    block identity).  ``output_rows``: C C* + D D* must be the
    identity on the output space.
    """
    n = coll.state_dim
    worst_state = 0.0
    for i in range(coll.d):
        for j in range(coll.d):
            gram = (
                coll.state_ops[i] @ coll.state_ops[j].conj().T
                + coll.input_ops[i] @ coll.input_ops[j].conj().T
            )
            want = np.eye(n) if i == j else np.zeros((n, n))
            worst_state = max(worst_state, linalg.operator_norm(gram - want))
    out_gram = (
        coll.output_map @ coll.output_map.conj().T
        + coll.feedthrough @ coll.feedthrough.conj().T
    )
    return {
        "state_rows": worst_state,
        "output_rows": linalg.operator_norm(out_gram - np.eye(coll.out_dim)),
    }


def transfer_coefficient(coll: Colligation, word: Word) -> np.ndarray:
    """Coefficient of the transfer function at one word."""
    if len(word) == 0:
        return coll.feedthrough.copy()
    s = coll.input_ops[word[-1] - 1]
    for letter in reversed(word[:-1]):
        s = coll.state_ops[letter - 1] @ s
    return coll.output_map @ s


@dataclass(frozen=True, eq=False)
class NCSeries:
    """Word-indexed matrix series, truncated at ``depth``.

    Coefficients all have shape (out_dim, in_dim); missing words are
    zero.  A series with in_dim 1 doubles as a vector-valued signal.
    """

    out_dim: int
    in_dim: int
    depth: int
    coeffs: dict[Word, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.depth < 0:
            raise DimMismatch("depth must be nonnegative")
        for w, m in self.coeffs.items():
            if len(w) > self.depth:
                raise DimMismatch(f"word {w} exceeds series depth {self.depth}")
            if m.shape != (self.out_dim, self.in_dim):
                raise DimMismatch(
                    f"coefficient at {w} has shape {m.shape}, expected "
                    f"({self.out_dim}, {self.in_dim})"
                )

    def coeff(self, w: Word) -> np.ndarray:
        got = self.coeffs.get(tuple(w))
        if got is None:
            return np.zeros((self.out_dim, self.in_dim), dtype=np.complex128)
        return got


def transfer_series(coll: Colligation, depth: int) -> NCSeries:
    """All transfer coefficients up to ``depth``, sharing suffix work."""
    suffix = prepend_levels(
        None,
        coll.d,
        depth,
        lambda j, w, s: coll.state_ops[j - 1] @ s if w else coll.input_ops[j - 1],
    )
    coeffs = {
        w: coll.output_map @ s if w else coll.feedthrough.copy()
        for w, s in suffix.items()
    }
    return NCSeries(coll.out_dim, coll.in_dim, depth, coeffs)


def series_multiply(
    left: NCSeries, right: NCSeries, depth: int | None = None
) -> NCSeries:
    """Word convolution: out(g) = sum over g = a.b of left(a) right(b).

    The result is exact only up to the shallower input depth, which is
    the default; a smaller explicit ``depth`` just truncates further.
    """
    if left.in_dim != right.out_dim:
        raise DimMismatch(
            f"cannot chain {left.in_dim} inputs with {right.out_dim} outputs"
        )
    cap = min(left.depth, right.depth)
    if depth is not None:
        if depth > cap:
            raise DimMismatch(f"product is only exact to depth {cap}")
        cap = depth
    coeffs: dict[Word, np.ndarray] = {}
    for g in _support_products(left, right, cap):
        total = None
        for a, b in splits(g):
            la = left.coeffs.get(a)
            rb = right.coeffs.get(b)
            if la is None or rb is None:
                continue
            term = la @ rb
            total = term if total is None else total + term
        if total is not None:
            coeffs[g] = total
    return NCSeries(left.out_dim, right.in_dim, cap, coeffs)


def _support_products(left: NCSeries, right: NCSeries, cap: int):
    out = set()
    for a in left.coeffs:
        for b in right.coeffs:
            if len(a) + len(b) <= cap:
                out.add(a + b)
    return sorted(out)


def right_translate(series: NCSeries, letter: int) -> NCSeries:
    """Append one letter to every support word (formal right shift)."""
    coeffs = {w + (letter,): m.copy() for w, m in series.coeffs.items()}
    return NCSeries(series.out_dim, series.in_dim, series.depth + 1, coeffs)


def toeplitz_matrix(series: NCSeries, d: int, depth: int) -> np.ndarray:
    """Block matrix of convolution by the series on words up to depth.

    Row block g, column block b holds coeff(a) when g = a.b, so the
    matrix maps stacked input signals to stacked output signals over
    the d-letter alphabet.
    """
    if depth > series.depth:
        raise DimMismatch(
            f"need coefficients to depth {depth}, series stops at {series.depth}"
        )
    index = enumerate_words(d, depth)
    p, m = series.out_dim, series.in_dim
    out = np.zeros((index.size * p, index.size * m), dtype=np.complex128)
    for gi, g in enumerate(index.words):
        for bi, b in enumerate(index.words):
            k = len(g) - len(b)
            if k < 0 or g[k:] != b:
                continue
            block = series.coeffs.get(g[:k])
            if block is not None:
                out[gi * p : (gi + 1) * p, bi * m : (bi + 1) * m] = block
    return out


def transfer_norm(series: NCSeries, d: int) -> float:
    """Norm of the Toeplitz action of a series on words up to its depth."""
    return linalg.operator_norm(toeplitz_matrix(series, d, series.depth))


def multi_analyticity_violation(
    theta: NCSeries, signal: NCSeries, letter: int
) -> float:
    """Convolution must commute with the formal right shift."""
    lhs = series_multiply(theta, right_translate(signal, letter))
    rhs = right_translate(series_multiply(theta, signal), letter)
    cap = min(lhs.depth, rhs.depth)
    worst = 0.0
    for w in set(lhs.coeffs) | set(rhs.coeffs):
        if len(w) <= cap:
            worst = max(worst, linalg.operator_norm(lhs.coeff(w) - rhs.coeff(w)))
    return worst


def random_series(
    out_dim: int, in_dim: int, d: int, depth: int, seed
) -> NCSeries:
    """Dense random series, complex normal entries, for property tests."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for w in enumerate_words(d, depth).words:
        coeffs[w] = rng.standard_normal((out_dim, in_dim)) + 1j * rng.standard_normal(
            (out_dim, in_dim)
        )
    return NCSeries(out_dim, in_dim, depth, coeffs)
