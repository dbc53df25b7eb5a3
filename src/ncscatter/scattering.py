"""Outgoing scattering structure of a lifted dilation.

Removing the base space from the lifted dilation space leaves the
corner-plus-Fock part, which the lifted dilation maps into itself
because the lifting is block triangular.  Restricted there, the
dilation is a row isometry with two distinguished wandering
subspaces:

* the vacuum copy of the lifted defect space, whose translates under
  dilation words tile every Fock level (the shift part), and
* the image of the vacuum base-defect copy under the adjoint
  intertwiner (the star-wandering part), which is exactly the
  orthogonal complement of the translates of the whole corner part.

Every function here measures one piece of that decomposition at a
finite truncation depth, where all of it holds exactly.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .dilation import Dilation
from .intertwiner import apply_intertwiner_adjoint, base_space, lift_space
from .lifting import LiftingInstance
from .words import Word, prepend_levels


class DepthError(ValueError):
    """Requested word lengths do not fit inside the truncation depth."""


def star_wandering_frame(instance: LiftingInstance, depth: int) -> np.ndarray:
    """Adjoint-intertwiner image of the vacuum base-defect copy.

    Returns flat lifted-space coordinates, one column per base-defect
    basis vector.  The columns are orthonormal (the adjoint is an
    isometry) and their base-space rows vanish up to rounding; see
    :func:`base_leak`.
    """
    sp = base_space(instance, depth)
    batch = np.zeros((sp.dim, instance.rank_c), dtype=np.complex128)
    batch[sp.slot(())] = np.eye(instance.rank_c)
    return apply_intertwiner_adjoint(instance, batch, depth)


def base_leak(instance: LiftingInstance, frame: np.ndarray) -> float:
    """Norm of the base-space rows of a star-wandering frame."""
    return linalg.operator_norm(frame[: instance.dim_c])


def shifted_star_frames(
    instance: LiftingInstance, depth: int, max_len: int
) -> dict[Word, np.ndarray]:
    """Dilation-word translates of the star-wandering frame.

    The frame is computed at depth - max_len so that every translate
    of length up to ``max_len`` lands inside the depth truncation.
    """
    if max_len > depth:
        raise DepthError(f"word length {max_len} does not fit in depth {depth}")
    if max_len < 0:
        raise DepthError("word length must be nonnegative")
    dil = Dilation(instance.e, instance.defect_e)
    base_depth = depth - max_len
    translates = prepend_levels(
        star_wandering_frame(instance, base_depth),
        instance.d,
        max_len,
        lambda j, w, v: dil.apply(j, v, base_depth + len(w)),
    )
    sp = lift_space(instance, depth)
    return {w: sp.pad(v) for w, v in translates.items()}


def wandering_violation(frames: dict[Word, np.ndarray]) -> float:
    """Largest deviation of the translate family from orthonormality.

    Off-diagonal Gram blocks must vanish and each diagonal block must
    be the identity; one product and one batched SVD measure all pairs.
    """
    items = [f for _, f in sorted(frames.items())]
    if not items or items[0].shape[1] == 0:
        return 0.0
    n, r = len(items), items[0].shape[1]
    stack = np.hstack(items)
    grams = (stack.conj().T @ stack).reshape(n, r, n, r).transpose(0, 2, 1, 3)
    i, k = np.triu_indices(n)
    pairs = grams[i, k]
    pairs[i == k] -= np.eye(r)
    return float(np.linalg.svd(pairs, compute_uv=False).max())


def verify_wandering(instance: LiftingInstance, depth: int, max_len: int) -> float:
    return wandering_violation(shifted_star_frames(instance, depth, max_len))


def complement_frame(instance: LiftingInstance, depth: int) -> np.ndarray:
    """Orthocomplement of the shifted corner part, in corner rows.

    Stacks the corner-restricted dilation matrices ``S`` from depth-1,
    orthonormalizes its columns on the support of ``S* S - I`` by the
    inverse root of their Gram block, and complements the range.  ``S``
    is an isometry; a Gram eigenvalue <= 1/4 raises :class:`DepthError`.
    Both ``S* S - I`` and the complement projector are formed with the
    unit columns of the stack split off (see :func:`.linalg.unit_split`).
    """
    if depth < 1:
        raise DepthError("complement needs depth at least 1")
    dil = Dilation(instance.e, instance.defect_e)
    nc = instance.dim_c
    stack = np.hstack([dil.matrix(j, depth - 1)[nc:, nc:] for j in range(1, instance.d + 1)])
    cols, resid = linalg.gram_residual(linalg.unit_split(stack))
    live = np.flatnonzero(cols)[np.logical_or(*linalg._support(resid))]
    block = stack[:, live]
    w, v = np.linalg.eigh(block.conj().T @ block)
    if not np.all(w > 0.25):
        raise DepthError("shifted corner stack lost injectivity")
    stack[:, live] = block @ ((v / np.sqrt(w)) @ v.conj().T)
    return linalg.unit_split(stack).complement()


def verify_complement(
    instance: LiftingInstance, depth: int, frame: np.ndarray
) -> tuple[int, float]:
    """Dimension of the complement and its angle to the star frame.

    ``frame`` is :func:`star_wandering_frame` at ``depth``.  Returns
    ``(dim, max principal angle)``; the star-wandering space equals
    the complement exactly when the dimension is the base defect rank
    and the angle vanishes.
    """
    comp = complement_frame(instance, depth)
    frame = frame[instance.dim_c :]
    if comp.shape[1] != frame.shape[1]:
        return comp.shape[1], float(np.pi / 2)
    angles = linalg.principal_angles(comp, frame)
    return comp.shape[1], float(angles.max(initial=0.0))


def verify_shift_decomposition(instance: LiftingInstance, depth: int) -> float:
    """Translates of the vacuum defect copy against the Fock basis.

    Applying every dilation word of length at most ``depth`` to the
    vacuum copy of the lifted defect space must reproduce the
    standard graded basis: identity on the Fock rows, zero on the
    ambient rows.
    """
    dil = Dilation(instance.e, instance.defect_e)
    sp = lift_space(instance, depth)
    r = instance.rank_e
    vacuum = dil.space(0)
    root = np.zeros((vacuum.dim, r), dtype=np.complex128)
    root[vacuum.slot(())] = np.eye(r)
    translates = prepend_levels(
        root, instance.d, depth, lambda j, w, v: dil.apply(j, v, len(w))
    )
    worst = 0.0
    for w, v in translates.items():
        flat = sp.pad(v)
        want = np.zeros_like(flat)
        want[sp.slot(w)] = np.eye(r)
        worst = max(worst, linalg.operator_norm(flat - want))
    return worst
