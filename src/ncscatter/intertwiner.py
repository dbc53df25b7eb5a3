"""The canonical coisometry from the lifted dilation onto the base dilation.

For a coisometric tuple T with defect coordinate blocks d_j = Q* D i_j,
the block map

    (g_1, ..., g_d)  ->  ( sum_j T_j g_j ,  Q* D (g_1 (+) ... (+) g_d) )

from the d-fold sum of the ambient space to ambient (+) defect is
unitary: it is :attr:`.dilation.Dilation.stage`, ``U``, so a forward
stage is one product by ``U*`` and a backward stage one by ``U``.
Iterating it rewrites any vector of the truncated dilation
space in "stage" form: at stage n the vector is a sum of length-n
dilation words applied to ambient vectors (one coefficient per word)
plus the untouched Fock levels >= n.  Images of distinct words of
equal length are orthogonal, so the stage coefficients carry the norm.
After depth+1 stages every Fock level is consumed and the space is
resolved into dilation words alone.

Stage coefficients live in one array of shape (d**n, dim, width),
indexed like level n of the flat layout (see :mod:`.dilation`).
Appending letter j sends word index u to u*d + j-1, so the d children
of every word are consecutive and one reshape moves between stage
n-1 and stage n.  The untouched levels are never copied: stage n
reads level n-1 of the flat input, and the backward stages write
level n-1 of the flat output.

In that form the coisometry intertwining the two dilations is
wordwise compression: keep the base-space rows of every lifted-space
coefficient.  Its adjoint is the wordwise zero pad.  Running lifted
stages forward, compressing, and unwinding base stages backward
computes the depth-truncated compression of the intertwiner exactly;
the adjoint pipeline leaves its input's levels only by rounding.  The
depth-(N-1) spaces are prefixes of the depth-N ones, so the top-left
block of the depth-N matrix is the depth-(N-1) truncation run with one
extra stage, which consumes the zero level N.  That extra stage must
not change the truncated result, which :func:`stabilization_violation`
measures.

:func:`intertwiner_matrix` feeds the identity through the pipeline one
run of :func:`blocks` columns at a time, and each stage of a batch goes
only over the words its nonzero rows can reach.  A row of word u at
level m reaches the descendants ``[u*d**(n-m), (u+1)*d**(n-m))`` at
stage n, then their ancestors on the way back; a base row reaches every
word.  The word ranges follow from the first and last nonzero rows of
the batch, and every coefficient outside them is an exact
``T* 0 + d* 0``.

:func:`blocks` is the one tiling of the ``W`` build and of the
``W``-sized residual products of :mod:`.verify`, which split their rows
or columns at the same runs; ``W W* - I`` also starts the rows of its
left factor at a run (``w[lo:]``).  Runs start at multiples of ``BLOCK`` = 64
because OpenBLAS computes the last ``width mod 4`` columns of a product
with a tail kernel, and a lone last index joins the run before it
because numpy computes a product with one row or column in gemv, whose
rounding differs from gemm's.  So tiled, every column meets the same
kernel as in the whole product.  With one BLAS thread a product split at
the runs is the whole product bit for bit, whatever its shape.  With
more, OpenBLAS may split a whole product between its threads at other
columns, and for some shapes a value then moves by rounding: ``W W*``
of a 66- to 70-row ``W`` with 150 columns, and ``W W* - I`` of the
260 x 260 ``W`` of ``generate(2, 65, 0, seed)`` at depth 1, seeds 0-2,
whose norm moves by under 4e-29 at two threads.  At two threads
(2, 65, 0) at depth 2, (1, 65, 0) and (1, 129, 0) at depth 1, (2, 2, 2)
at depth 5, (2, 4, 4) at depth 4 and (3, 2, 2) at depth 3, seeds 0-2,
moved no value.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .dilation import Dilation, GradedSpace, InnerSpaceMismatch
from .lifting import LiftingInstance

# columns per block of the W build and of verify's W-sized residuals (see above)
BLOCK = 64


def blocks(n: int):
    """The runs ``[lo, hi)`` of ``BLOCK`` indices that tile ``range(n)`` (see above)."""
    starts = list(range(0, n, BLOCK))
    if n > BLOCK and n % BLOCK == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


class StageMismatch(ValueError):
    """Stage operation applied to coefficients of the wrong stage."""


def stage_forward(dil: Dilation, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the next stage unitary: consume one Fock level.

    ``g`` holds the stage-(n-1) coefficients, shape (d**(n-1), dim,
    width), and ``x`` Fock level n-1 in defect coordinates, shape
    (d**(n-1), rank, width).  Each coefficient g_u with level value x_u
    splits into the d stage-n coefficients g_{uj} = T_j* g_u + d_j* x_u
    at index u*d + j-1: one product of :attr:`.dilation.Dilation.stage_adjoint`
    with ``[g_u ; x_u]``.
    """
    words, dim, width = g.shape
    if x.shape[0] != words:
        raise StageMismatch(f"level of {x.shape[0]} words against {words} coefficients")
    out = dil.stage_adjoint @ np.concatenate([g, x], axis=1)
    return out.reshape((words * dil.d, dim, width))


def stage_backward(dil: Dilation, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the adjoint of the n-th stage unitary: recreate level n-1.

    ``g`` holds the stage-n coefficients, shape (d**n, dim, width).
    Returns the stage-(n-1) coefficients g_u = sum_j T_j g_{uj} and the
    recreated level sum_j d_j g_{uj}, shape (d**(n-1), rank, width):
    the top ``dim`` rows and the rest of one product of ``dil.stage``
    with the d children of u stacked.
    """
    words, dim, width = g.shape
    parents = words // dil.d
    if parents * dil.d != words:
        raise StageMismatch(f"{words} coefficients do not form a stage of {dil.d} letters")
    out = dil.stage @ g.reshape((parents, dil.d * dim, width))
    return out[:, :dim], out[:, dim:]


def apply_intertwiner(instance: LiftingInstance, x: np.ndarray, depth: int) -> np.ndarray:
    """Depth-truncated intertwiner on a flat lifted-dilation column batch."""
    return _pipeline(instance, x, depth, adjoint=False)


def apply_intertwiner_adjoint(
    instance: LiftingInstance, x: np.ndarray, depth: int
) -> np.ndarray:
    """Adjoint intertwiner on a flat base-dilation column batch, exact on
    the truncation.  Only rounding reaches deeper than the input's levels:
    the depth-3 star frame of (2, 2, 1) seed 0 is nonzero in all 84
    entries on Fock levels 1 to 3, up to 7.3e-16.
    """
    return _pipeline(instance, x, depth, adjoint=True)


def _pipeline(instance: LiftingInstance, x: np.ndarray, depth: int, adjoint: bool) -> np.ndarray:
    """Forward stages of one tuple, compress or pad, backward stages of the other.

    Each stage runs only over the contiguous range of words that the
    rows ``[start, stop)`` of ``x``, from its first to its last row
    holding an entry != 0 (NaN and inf count), can reach; every other
    coefficient is exactly ``T* 0 + d* 0`` and stays zero.
    """
    first, second = instance.dilation_e, instance.dilation_c
    if adjoint:
        first, second = second, first
    dom, cod = first.space(depth), second.space(depth)
    if x.shape[0] != dom.dim:
        raise InnerSpaceMismatch(f"vector has {x.shape[0]} rows, expected {dom.dim}")
    live = np.flatnonzero((x != 0).any(axis=1))
    start, stop = (live[0], live[-1] + 1) if live.size else (0, 0)
    d, width = dom.d, x.shape[1]
    # the stage coefficients g cover the words [lo, lo + len(g)) of their level
    lo, g = 0, x[: dom.base_dim].reshape((1, dom.base_dim, width))
    if start >= dom.base_dim:
        g = g[:0]
    for n in range(1, depth + 2):
        span = _hull((lo, lo + g.shape[0]), _level_words(dom, n - 1, start, stop))
        g = stage_forward(first, _widen(g, lo, span), dom.blocks(x, n - 1)[span[0] : span[1]])
        lo = span[0] * d
    if adjoint:
        padded = np.zeros((g.shape[0], cod.base_dim, width), dtype=np.complex128)
        padded[:, : dom.base_dim] = g
        g = padded
    else:
        g = g[:, : cod.base_dim]
    out = np.zeros((cod.dim, width), dtype=np.complex128)
    for n in range(depth + 1, 0, -1):
        # whole sibling groups, so that every parent sees all d children
        span = (lo // d * d, -(-(lo + g.shape[0]) // d) * d)
        g, low = stage_backward(second, _widen(g, lo, span))
        lo = span[0] // d
        cod.blocks(out, n - 1)[lo : lo + g.shape[0]] = low
    if g.shape[0]:
        out[: cod.base_dim] = g[0]
    return out


def _level_words(space: GradedSpace, m: int, start: int, stop: int) -> tuple[int, int]:
    """The words ``[lo, hi)`` of level m whose slots meet rows ``[start, stop)``."""
    level = space.level(m)
    first, last = max(start, level.start), min(stop, level.stop)
    if first >= last:
        return (0, 0)
    return (first - level.start) // space.inner_dim, -(-(last - level.start) // space.inner_dim)


def _hull(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Smallest word range holding both ranges; an empty range adds nothing."""
    if a[0] >= a[1]:
        return b
    if b[0] >= b[1]:
        return a
    return min(a[0], b[0]), max(a[1], b[1])


def _widen(g: np.ndarray, lo: int, span: tuple[int, int]) -> np.ndarray:
    """Coefficients of the words ``[lo, lo + len(g))`` over ``span``, zero elsewhere."""
    if (lo, lo + g.shape[0]) == span:
        return g
    out = np.zeros((span[1] - span[0],) + g.shape[1:], dtype=np.complex128)
    if g.shape[0]:
        out[lo - span[0] : lo - span[0] + g.shape[0]] = g
    return out


def intertwiner_matrix(instance: LiftingInstance, depth: int) -> np.ndarray:
    """Flat matrix of the depth-truncated intertwiner, built one run of blocks() at a time."""
    dim = instance.dilation_e.space(depth).dim
    out = np.empty((instance.dilation_c.space(depth).dim, dim), dtype=np.complex128)
    for start, stop in blocks(dim):
        eye = np.zeros((dim, stop - start), dtype=np.complex128)
        eye[start:stop] = np.eye(stop - start)
        out[:, start:stop] = apply_intertwiner(instance, eye, depth)
    return out


def stabilization_violation(deep: np.ndarray, flat: np.ndarray) -> float:
    """How much one extra stage changes the truncated intertwiner matrix.

    ``deep`` and ``flat`` are :func:`intertwiner_matrix` at depths N and
    N-1.  The block of ``deep`` on the depth-(N-1) rows and columns is
    the depth-(N-1) truncation run with N+1 stages instead of N.  Zero
    in exact arithmetic: content the intertwiner creates beyond the
    truncation depth never folds back into it.
    """
    rows, cols = flat.shape
    return linalg.operator_norm(deep[:rows, :cols] - flat)
