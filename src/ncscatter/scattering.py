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
  orthogonal complement of the translates of the whole corner part,
  read off the corner of the lifted stage block.

Every function here measures one piece of that decomposition at a
finite truncation depth, where all of it holds exactly.  Both word
walks are :meth:`.dilation.Dilation.translates`, whose levels the shift
decomposition compares in place with the Fock basis.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .intertwiner import apply_intertwiner_adjoint
from .lifting import LiftingInstance


def star_wandering_frame(instance: LiftingInstance, depth: int) -> np.ndarray:
    """Adjoint-intertwiner image of the vacuum base-defect copy.

    Returns flat lifted-space coordinates, one column per base-defect
    basis vector.  The columns are orthonormal (the adjoint is an
    isometry) and their base-space rows vanish up to rounding; see
    :func:`base_leak`.
    """
    sp = instance.dilation_c.space(depth)
    batch = np.zeros((sp.dim, instance.rank_c), dtype=np.complex128)
    batch[sp.slot(())] = np.eye(instance.rank_c)
    return apply_intertwiner_adjoint(instance, batch, depth)


def base_leak(instance: LiftingInstance, frame: np.ndarray) -> float:
    """Norm of the base-space rows of a star-wandering frame."""
    return linalg.operator_norm(frame[: instance.dim_c])


def shifted_star_frames(instance: LiftingInstance, depth: int) -> np.ndarray:
    """Dilation-word translates of the star-wandering frame, side by side.

    One ``rank_c``-column block per word of length up to
    ``max(1, depth - 1)``, in graded-lex order, in the flat coordinates of
    the depth truncation.  The frame is computed at the depth that is
    left, so that every translate lands inside the truncation.
    """
    dil, length = instance.dilation_e, max(1, depth - 1)
    base_depth = depth - length
    levels = dil.translates(star_wandering_frame(instance, base_depth), base_depth, length)
    return np.hstack([dil.space(depth).pad(level) for level in levels])


def wandering_violation(frames: np.ndarray, width: int) -> float:
    """Largest deviation of a translate family from orthonormality.

    ``frames`` holds the family's ``width``-column frames side by side.
    Off-diagonal Gram blocks must vanish and each diagonal block must
    be the identity; one product and one batched SVD measure all pairs.
    """
    if not width:
        return 0.0
    n = frames.shape[1] // width
    grams = (frames.conj().T @ frames).reshape(n, width, n, width).transpose(0, 2, 1, 3)
    i, k = np.triu_indices(n)
    pairs = grams[i, k]
    pairs[i == k] -= np.eye(width)
    return linalg.stack_norm(pairs)


def complement_frame(instance: LiftingInstance, depth: int) -> np.ndarray:
    """Orthocomplement of the shifted corner part, in corner rows.

    The letters shift Fock levels 0 to depth - 1 onto levels 1 to depth,
    so this is :func:`.linalg.complement_onb` of their corner block
    ``c = [c_1 ... c_d]``, ``c_j = [A_j ; (D_E)_j]`` on ``H_A``, cut from
    the lifted letter blocks (columns orthonormal by the defect identity
    of E), zero-padded below.  It is exactly zero on levels 1 to depth,
    where the star frame's rounding dust enters the angle of
    :func:`verify_complement`.
    """
    dil, nc = instance.dilation_e, instance.dim_c
    c = np.hstack([u[nc:, nc:] for u in dil.letters])
    below = dil.space(depth).dim - nc - c.shape[0]
    return np.pad(linalg.complement_onb(c), ((0, below), (0, 0)))


def verify_complement(instance: LiftingInstance, depth: int, frame: np.ndarray) -> float:
    """Largest principal angle between the complement and the star frame.

    ``frame`` is :func:`star_wandering_frame` at ``depth``.  The
    star-wandering space equals the complement exactly when the angle
    vanishes; a complement whose dimension is not the base defect rank
    reads pi/2.
    """
    comp = complement_frame(instance, depth)
    frame = frame[instance.dim_c :]
    if comp.shape[1] != frame.shape[1]:
        return float(np.pi / 2)
    return float(linalg.principal_angles(comp, frame).max(initial=0.0))


def verify_shift_decomposition(instance: LiftingInstance, depth: int) -> float:
    """Translates of the vacuum defect copy against the Fock basis.

    Applying every dilation word of length at most ``depth`` to the
    vacuum copy of the lifted defect space must reproduce the
    standard graded basis: the translates of length m are the identity
    on the rows of Fock level m and zero on every other row of their
    depth-m space.  Measured as the largest norm at one word.
    """
    dil, r = instance.dilation_e, instance.rank_e
    vacuum = dil.space(0)
    root = np.zeros((vacuum.dim, r), dtype=np.complex128)
    root[vacuum.slot(())] = np.eye(r)
    norms = []
    for m, level in enumerate(dil.translates(root, 0, depth)):
        level[dil.space(m).level(m)] -= np.eye(level.shape[1])
        words = level.reshape(level.shape[0], dil.d**m, r).transpose(1, 0, 2)
        norms.append(linalg.stack_norm(words))
    return linalg.worst(norms)
