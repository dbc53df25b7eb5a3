"""Characteristic function of a lifting and its intertwiner identities.

The lifting determines a word-indexed family of blocks from the
lifted defect space to the base defect space, written down in closed
form from the blocks C, A, B and the coupling isometry gamma.  The
closed form is first assembled on the ambient d-fold sum (the symbol),
then factored through the lifted defect operator; factoring is only
possible when the symbol kills the kernel of that operator, otherwise
the function is not defined on defect vectors and :class:`IllDefined`
is raised.

Two independent identities tie the closed form to the rest of the
package and are measured here:

* coincidence: the block at a word equals the transfer-function
  coefficient at the reversed word;
* restriction: the canonical intertwiner, restricted to the vacuum
  copy of the lifted defect space, has exactly these blocks as its
  Fock components, and on Fock-only vectors it acts as reversed-word
  convolution by the transfer series.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .intertwiner import apply_intertwiner
from .lifting import LiftingInstance
from .transfer import NCSeries, require_words
from .words import level_start, prepend_levels, reversal


class IllDefined(ValueError):
    """The symbol does not vanish on the kernel of the lifted defect,
    so no function on defect vectors represents it."""


def _suffix_adjoints(instance: LiftingInstance, depth: int) -> list[np.ndarray]:
    """Adjoints of corner word products, one ``(d**m, dimA, dimA)`` stack
    per length m in graded-lex order; prepending j to w gives adj(w) A_j*."""
    return prepend_levels(
        np.eye(instance.dim_a, dtype=np.complex128)[None],
        instance.d,
        depth,
        lambda j, m, level: level @ instance.a.ops[j - 1].conj().T,
    )


def symbol_blocks(instance: LiftingInstance, depth: int) -> np.ndarray:
    """Ambient closed form, stacked over words in graded-lex order.

    Each block has shape (base defect rank, d * dimE).  Per input
    slot i the base-space columns read

        vacuum:  (D_C-coords)_i - gamma dstar B_i
        word w:  - gamma dstar (A_w)* B_i

    and the corner columns read

        vacuum:       - gamma dstar A_i
        word (j,)+w:  gamma dstar (A_w)* (delta_ij - A_j* A_i).

    Every level is filled with batched products over its words.
    """
    d, nc, na, ne = instance.d, instance.dim_c, instance.dim_a, instance.dim_e
    require_words(d, depth)
    gs = instance.gamma @ instance.a.star_defect.coords
    adj = _suffix_adjoints(instance, depth)
    neg = [-gs @ level for level in adj]
    pos = [gs @ level for level in adj[:-1]]
    blocks = np.zeros((level_start(d, depth + 1), instance.rank_c, d * ne), dtype=np.complex128)
    for i in range(1, d + 1):
        cols_c = slice((i - 1) * ne, (i - 1) * ne + nc)
        cols_a = slice((i - 1) * ne + nc, i * ne)
        b_i = instance.b[i - 1]
        a_i = instance.a.ops[i - 1]
        blocks[0][:, cols_c] = instance.dilation_c.letters[i - 1][nc:] - gs @ b_i
        blocks[0][:, cols_a] = -gs @ a_i
        crosses = [-a_j.conj().T @ a_i for a_j in instance.a.ops]
        crosses[i - 1] = crosses[i - 1] + np.eye(na)
        for m in range(1, depth + 1):
            level = blocks[level_start(d, m) : level_start(d, m + 1)]
            level[:, :, cols_c] = neg[m] @ b_i
            by_letter = level.reshape(d, d ** (m - 1), *level.shape[1:])
            for j, cross in enumerate(crosses):
                by_letter[j, :, :, cols_a] = pos[m - 1] @ cross
    return blocks


def charfn_series(instance: LiftingInstance, depth: int) -> NCSeries:
    """The characteristic function on defect coordinates.

    Factors the ambient symbol through the lifted defect operator.
    Raises :class:`IllDefined` when the symbol leaks onto the kernel
    of that operator by more than ``TOL_EQ``.
    """
    blocks = symbol_blocks(instance, depth)
    de = instance.e.defect
    leak = linalg.operator_norm(blocks.reshape(-1, blocks.shape[2]) @ de.kernel)
    if leak > linalg.TOL_EQ:
        raise IllDefined(
            f"symbol leaks onto ker of the lifted defect ({leak:.3e} > {linalg.TOL_EQ:.1e})"
        )
    factor = linalg.pseudo_inverse(de.operator) @ de.basis
    return NCSeries(instance.d, depth, blocks @ factor)


def coincidence_violation(series: NCSeries, theta: NCSeries) -> float:
    """Characteristic blocks against the transfer series ``theta`` at the
    reversed words, as the largest norm at one word."""
    rev = reversal(series.d, series.depth)
    return linalg.stack_norm(series.coeffs - theta.coeffs[rev])


def restriction_violation(
    instance: LiftingInstance, series: NCSeries, signal: NCSeries, out: NCSeries
) -> float:
    """Both restriction identities on the probes of ``signal``: the vacuum
    columns against ``series``, the signal column against ``out``, the
    signal convolved by the transfer series."""
    probes, r = restriction_probes(instance, signal), instance.rank_e
    return max(
        vacuum_restriction_violation(instance, series, probes[:, :r]),
        fock_action_violation(instance, probes[:, r:], out),
    )


def restriction_probes(instance: LiftingInstance, signal: NCSeries) -> np.ndarray:
    """The intertwiner on the vacuum defect copy and on the loaded signal.

    One pass of the stage pipeline at the depth of the one-column
    ``signal`` on ``rank_e + 1`` probe columns: the identity on the
    vacuum slot, then the signal loaded into Fock coordinates through
    word reversal.  These are all the intertwiner columns the two
    restriction identities read.
    """
    dom = instance.dilation_e.space(signal.depth)
    r = instance.rank_e
    probes = np.zeros((dom.dim, r + 1), dtype=np.complex128)
    probes[dom.slot(()), :r] = np.eye(r)
    dom.slots(probes)[:, :, r:] = signal.coeffs[reversal(signal.d, signal.depth)]
    return apply_intertwiner(instance, probes, signal.depth)


def vacuum_restriction_violation(
    instance: LiftingInstance, series: NCSeries, cols: np.ndarray
) -> float:
    """Intertwiner columns on the vacuum defect copy against the blocks.

    ``cols`` are the intertwiner's vacuum columns at the depth of
    ``series`` (the first ``rank_e`` of :func:`restriction_probes`).  The
    base-space rows must vanish and the Fock rows must reproduce the
    characteristic blocks word by word, with no reversal.
    """
    cod = instance.dilation_c.space(series.depth)
    return max(
        linalg.operator_norm(cols[: instance.dim_c]),
        linalg.stack_norm(cod.slots(cols) - series.coeffs),
    )


def fock_action_violation(instance: LiftingInstance, got: np.ndarray, out: NCSeries) -> float:
    """Intertwiner on Fock-only vectors against reversed convolution.

    ``got`` is the intertwiner applied to a one-column signal loaded into
    Fock coordinates through word reversal (the last column of
    :func:`restriction_probes`), and ``out`` is that signal convolved by
    the transfer series, at the signal's depth.  That loading turns the
    intertwiner's action into convolution by the transfer series: the
    intertwiner respects prepended letters, convolution respects
    appended ones.
    """
    cod = instance.dilation_c.space(out.depth)
    return max(
        float(np.linalg.norm(got[: instance.dim_c])),
        linalg.stack_norm(cod.slots(got) - out.coeffs[reversal(out.d, out.depth)]),
    )
