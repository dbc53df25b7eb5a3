"""The canonical coisometry from the lifted dilation onto the base dilation.

For a coisometric tuple T with defect coordinate blocks d_j = Q* D i_j,
the block map

    (g_1, ..., g_d)  ->  ( sum_j T_j g_j ,  Q* D (g_1 (+) ... (+) g_d) )

from the d-fold sum of the ambient space to ambient (+) defect is
unitary.  Iterating it rewrites any vector of the truncated dilation
space in "stage" form: at stage n the vector is a sum of length-n
dilation words applied to ambient vectors (one coefficient per word,
the tensor part) plus untouched Fock levels >= n (the tail part).
Images of distinct words of equal length are orthogonal, so the stage
coefficients carry the norm.  After depth+1 stages the tail is
exhausted and the space is resolved into dilation words alone.

In that form the coisometry intertwining the two dilations is
wordwise compression: project every lifted-space coefficient onto the
base space.  Its adjoint is the wordwise embedding.  Running lifted
stages forward, projecting, and unwinding base stages backward
computes the depth-truncated compression of the intertwiner exactly;
the adjoint pipeline never leaves the truncation at all.  Running
extra stages must not change the truncated result, which
:func:`stabilization_violation` measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .dilation import GradedVector, graded_space
from .lifting import LiftingInstance
from .rowtuple import DefectData, OperatorTuple
from .words import Word


class StageMismatch(ValueError):
    """Stage operation applied at the wrong stage index."""


@dataclass
class StageVector:
    """Vector of ambient (+) Fock_depth in stage-n form.

    ``tensor`` maps words of length exactly ``stage`` to ambient
    coefficients of the corresponding dilation words; ``tail`` maps
    words of length ``stage``..``depth`` to defect-coordinate values
    of Fock levels not yet consumed.  Values may be matrices whose
    columns form a batch.  Missing words are zero.
    """

    d: int
    stage: int
    depth: int
    tensor: dict[Word, np.ndarray] = field(default_factory=dict)
    tail: dict[Word, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.stage < 0:
            raise StageMismatch("stage must be nonnegative")
        for u in self.tensor:
            if len(u) != self.stage:
                raise StageMismatch(
                    f"tensor word {u} does not have stage length {self.stage}"
                )
        for w in self.tail:
            if not self.stage <= len(w) <= self.depth:
                raise StageMismatch(
                    f"tail word {w} outside levels {self.stage}..{self.depth}"
                )

    def norm_sq(self) -> float:
        """Squared norm; stage components are mutually orthogonal."""
        total = 0.0
        for x in list(self.tensor.values()) + list(self.tail.values()):
            total += float(np.sum(np.abs(x) ** 2))
        return total


def stage_zero(v: GradedVector, d: int) -> StageVector:
    tensor = {(): v.h} if v.h is not None else {}
    return StageVector(d, 0, v.depth, tensor, dict(v.fock))


def stage_to_graded(sv: StageVector) -> GradedVector:
    if sv.stage != 0:
        raise StageMismatch(f"cannot read a stage-{sv.stage} vector as graded")
    return GradedVector(sv.depth, sv.tensor.get(()), dict(sv.tail))


def stage_forward(
    t: OperatorTuple, dd: DefectData, n: int, sv: StageVector
) -> StageVector:
    """Apply the n-th stage unitary: consume tail level n-1.

    Each length-(n-1) coefficient g_u together with the tail value at
    u splits into d deeper coefficients g_{uj} = T_j* g_u + d_j* x_u.
    Stages beyond depth+1 consume an absent level as zeros, which is
    consistent with the untruncated space.
    """
    if sv.stage != n - 1:
        raise StageMismatch(f"forward stage {n} needs a stage-{n - 1} vector")
    parents = set(sv.tensor) | {w for w in sv.tail if len(w) == n - 1}
    tensor: dict[Word, np.ndarray] = {}
    for u in parents:
        h = sv.tensor.get(u)
        x = sv.tail.get(u)
        for j in range(1, t.d + 1):
            val = None
            if h is not None:
                val = t.op(j).conj().T @ h
            if x is not None:
                piece = dd.coord_component(j).conj().T @ x
                val = piece if val is None else val + piece
            tensor[u + (j,)] = val
    tail = {w: x for w, x in sv.tail.items() if len(w) >= n}
    return StageVector(sv.d, n, sv.depth, tensor, tail)


def stage_backward(
    t: OperatorTuple, dd: DefectData, n: int, sv: StageVector
) -> StageVector:
    """Apply the adjoint of the n-th stage unitary: recreate level n-1.

    Coefficients regroup as g_u = sum_j T_j g_{uj} with tail value
    sum_j d_j g_{uj}.  A recreated level beyond the truncation depth
    is dropped; that is the compression onto the truncated space and
    happens only when more stages ran than the depth requires.
    """
    if sv.stage != n:
        raise StageMismatch(f"backward stage {n} needs a stage-{n} vector")
    parents = {u[:-1] for u in sv.tensor}
    tensor: dict[Word, np.ndarray] = {}
    tail = {w: x for w, x in sv.tail.items()}
    for u in parents:
        top = None
        low = None
        for j in range(1, t.d + 1):
            g = sv.tensor.get(u + (j,))
            if g is None:
                continue
            tj = t.op(j) @ g
            xj = dd.coord_component(j) @ g
            top = tj if top is None else top + tj
            low = xj if low is None else low + xj
        tensor[u] = top
        if n - 1 <= sv.depth:
            tail[u] = low
    return StageVector(sv.d, n - 1, sv.depth, tensor, tail)


def project_to_base(dim_base: int, sv: StageVector) -> StageVector:
    """Wordwise compression onto the leading ``dim_base`` coordinates.

    The tail is annihilated: tail directions are orthogonal to every
    dilation word of the current stage, hence to the whole base
    dilation space once the stage count exceeds the depth.
    """
    tensor = {u: val[:dim_base] for u, val in sv.tensor.items()}
    return StageVector(sv.d, sv.stage, sv.depth, tensor, {})


def embed_from_base(dim_lift: int, sv: StageVector) -> StageVector:
    """Wordwise isometric embedding into a larger ambient space."""
    if sv.tail:
        raise StageMismatch("embedding requires a fully consumed tail")
    tensor: dict[Word, np.ndarray] = {}
    for u, val in sv.tensor.items():
        pad = np.zeros((dim_lift - val.shape[0],) + val.shape[1:], dtype=np.complex128)
        tensor[u] = np.concatenate([val, pad])
    return StageVector(sv.d, sv.stage, sv.depth, tensor, {})


def apply_intertwiner(
    instance: LiftingInstance, v: GradedVector, stages: int | None = None
) -> GradedVector:
    """Depth-truncated intertwiner applied to a lifted-dilation vector.

    ``stages`` defaults to depth+1, the least count that exhausts the
    tail; fewer would discard unresolved mass, so that is an error.
    """
    if stages is None:
        stages = v.depth + 1
    if stages < v.depth + 1:
        raise StageMismatch(f"need at least {v.depth + 1} stages for depth {v.depth}")
    return _pipeline(instance, v, stages, adjoint=False)


def apply_intertwiner_adjoint(
    instance: LiftingInstance, v: GradedVector
) -> GradedVector:
    """Adjoint intertwiner applied to a base-dilation vector.

    This direction is exact on the truncation: the output never has
    deeper support than the input.
    """
    return _pipeline(instance, v, v.depth + 1, adjoint=True)


def _pipeline(
    instance: LiftingInstance, v: GradedVector, stages: int, adjoint: bool
) -> GradedVector:
    """Forward stages of one tuple, project or embed, backward stages of the other."""
    lifted, base = (instance.e, instance.defect_e), (instance.c, instance.defect_c)
    first, second = (base, lifted) if adjoint else (lifted, base)
    sv = stage_zero(v, instance.d)
    for n in range(1, stages + 1):
        sv = stage_forward(*first, n, sv)
    if adjoint:
        sv = embed_from_base(instance.dim_e, sv)
    else:
        sv = project_to_base(instance.dim_c, sv)
    for n in range(stages, 0, -1):
        sv = stage_backward(*second, n, sv)
    return stage_to_graded(sv)


def lift_space(instance: LiftingInstance, depth: int):
    """Flat coordinates of the lifted dilation space at given depth."""
    return graded_space(instance.d, depth, instance.dim_e, instance.rank_e)


def base_space(instance: LiftingInstance, depth: int):
    """Flat coordinates of the base dilation space at given depth."""
    return graded_space(instance.d, depth, instance.dim_c, instance.rank_c)


def intertwiner_matrix(
    instance: LiftingInstance, depth: int, stages: int | None = None
) -> np.ndarray:
    """Flat matrix of the depth-truncated intertwiner."""
    return _flat_matrix(
        lift_space(instance, depth),
        base_space(instance, depth),
        lambda batch: apply_intertwiner(instance, batch, stages),
    )


def intertwiner_adjoint_matrix(instance: LiftingInstance, depth: int) -> np.ndarray:
    """Flat matrix of the adjoint intertwiner."""
    return _flat_matrix(
        base_space(instance, depth),
        lift_space(instance, depth),
        lambda batch: apply_intertwiner_adjoint(instance, batch),
    )


def _flat_matrix(dom, cod, apply) -> np.ndarray:
    """Flat matrix of ``apply`` from the ``dom`` space into ``cod``."""
    batch = dom.unflatten(np.eye(dom.dim, dtype=np.complex128))
    return cod.flatten(apply(batch), width=dom.dim)


def stabilization_violation(plain: np.ndarray, extra: np.ndarray) -> float:
    """How much extra stages change the truncated intertwiner matrix.

    ``plain`` and ``extra`` are :func:`intertwiner_matrix` at one depth
    with the default and with a larger stage count.  Zero in exact
    arithmetic: content the intertwiner creates beyond the truncation
    depth never folds back into it.
    """
    return linalg.operator_norm(plain - extra)
