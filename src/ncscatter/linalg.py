"""Dense complex linear algebra kernel.

Everything downstream (defect spaces, dilations, scattering frames)
reduces to a handful of spectral primitives on complex matrices:
Hermitian square roots, orthonormal range bases, seeded random
isometries, operator norms and pseudoinverses.  They are collected
here with fixed tolerance semantics and deterministic phase
conventions so that repeated runs produce byte-identical results.

Matrices are plain ``numpy.ndarray`` objects with ``complex128``
entries.  All tolerances are relative to the largest singular value
unless stated otherwise.

The norm kernels cut their work, each step exact:

* :func:`operator_norm` decomposes the tall orientation of the block of
  rows and columns holding a nonzero entry (the others add nothing to
  any spectrum, and ``||M|| = ||M^T||``), which LAPACK's divide and
  conquer SVD takes faster than the wide one;
* :func:`hermitian_norm` reads the norm of a Hermitian matrix off the
  eigenvalues of its lower triangle, so a caller forms only that half;
* :func:`stack_norm` decomposes only the matrices of a stack whose
  Frobenius norm could hold the largest spectral norm:
  ``||B|| >= ||B||_F / sqrt(min(rows, cols))`` for every ``B``;
* :func:`fold_rows` replaces each class of rows sharing one column
  support by the triangular factor of their block, which keeps ``M* M``
  and so the norm.  Its one caller is the star direction of the
  intertwining check, where almost every row lies on the same few
  base-space columns.

:func:`hermitian_sqrt` works on scale 1 with the fixed tolerance
``TOL_RANK``: its inputs are defect Grams of contractions.
"""

from __future__ import annotations

import math

import numpy as np

TOL_RANK = 1e-10
TOL_EQ = 1e-8


class DimensionError(ValueError):
    """Raised by :func:`as_matrix` on data that is not a 2-d array."""


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={m.ndim}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def worst(values) -> float:
    """The largest of ``values``, 0.0 if none, with a NaN the largest of all:
    Python's ``max`` and ``>`` skip a NaN, so a row or gate built on them
    would pass it."""
    return float(np.max(np.fromiter(values, np.float64), initial=0.0))


def _support(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the rows and columns holding an entry != 0 (NaN and inf count)."""
    nonzero = m != 0
    return nonzero.any(axis=1), nonzero.any(axis=0)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value (0.0 if none), taken after the exact drop of
    zero rows and columns, of the block or its transpose, whichever is
    tall; with none dropped it is ``np.linalg.norm`` of that orientation."""
    m = np.asarray(m)
    rows, cols = _support(m)
    block = m if rows.all() and cols.all() else m[np.ix_(rows, cols)]
    if block.shape[0] < block.shape[1]:
        block = block.T
    return float(np.linalg.svd(block, compute_uv=False)[0]) if block.size else 0.0


def hermitian_norm(lower: np.ndarray) -> float:
    """:func:`operator_norm` of the Hermitian matrix with lower triangle ``lower``, off
    its eigenvalues; the strict upper triangle is never read."""
    lower = np.asarray(lower)
    if np.tril(~np.isfinite(lower)).any():  # eigvalsh may return finite values for NaN
        raise np.linalg.LinAlgError("non-finite entry in the lower triangle")
    return float(np.abs(np.linalg.eigvalsh(lower)).max()) if lower.size else 0.0


def stack_norm(stack: np.ndarray) -> float:
    """Largest spectral norm among the matrices of a (k, rows, cols) stack, 0.0 if none.

    With every entry finite and the largest at least 1e-290 (below, SVDs round
    onto the subnormal grid), only the matrices whose Frobenius norm is at least
    the largest over ``sqrt(min(rows, cols))``, less a margin far above rounding,
    are decomposed: the others cannot hold the largest norm.  The moduli are
    divided by the largest first, so no Frobenius norm near the cut over- or
    underflows.  Otherwise only zero matrices are skipped, so a NaN or inf
    reaches the SVD."""
    moduli = np.abs(stack)
    peak = moduli.max(initial=0.0)
    if peak == 0:
        return 0.0
    if 1e-290 <= peak < math.inf:
        frob = np.linalg.norm(moduli / peak, axis=(1, 2))
        keep = frob >= frob.max() * (1 - 1e-6) / math.sqrt(min(stack.shape[1:]))
    else:
        keep = (stack != 0).any(axis=(1, 2))
    return float(np.linalg.svd(stack[keep], compute_uv=False).max())


def fold_rows(m: np.ndarray) -> np.ndarray:
    """A matrix with the same ``M* M`` as ``m``, so the same singular values.

    Rows holding an entry != 0 (NaN and inf count) in the same columns
    form one class.  A class with more rows than columns is replaced by
    the triangular factor ``R`` of its block, as ``M_S* M_S = R* R``; the
    rows of the other classes are kept, and zero rows are dropped.
    """
    m = np.asarray(m)
    if not m.size:
        return m[:0]
    nonzero = m != 0
    bits = np.packbits(nonzero, axis=1)
    keys = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
    _, first, classes, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    width = np.count_nonzero(nonzero[first], axis=1)
    folded = counts > width
    blocks = [m[~folded[classes]]]
    for k in np.flatnonzero(folded & (width > 0)):
        cols = np.flatnonzero(nonzero[first[k]])
        r = np.linalg.qr(m[np.ix_(classes == k, cols)], mode="r")
        block = np.zeros((r.shape[0], m.shape[1]), dtype=r.dtype)
        block[:, cols] = r
        blocks.append(block)
    return np.vstack(blocks)


def hermitian_sqrt(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive square root of the Hermitian part of ``m``, on scale 1, and
    the ascending eigenvalues of that part, before the cut.

    Every eigenvalue at or below ``TOL_RANK`` is zeroed, negative ones
    included, so a numerically zero defect (defect operators of
    contractions live on scale 1, however close to isometric the tuple
    is) comes out as the zero matrix instead of a sqrt(eps)-sized noise
    matrix.  Nothing is refused: whether the input came from a
    contraction, and whether an eigenvalue lies too close to the cut, is
    for the caller to measure, as :func:`.lifting.assemble` does.
    """
    # halved before the sum, so a finite m has a finite Hermitian part
    w, v = np.linalg.eigh(m / 2.0 + m.conj().T / 2.0)
    root = (v * np.sqrt(np.where(w <= TOL_RANK, 0.0, w))) @ v.conj().T
    return (root + root.conj().T) / 2.0, w


def _fix_column_phases(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero coordinate is real positive."""
    q = q.copy()
    for k in range(q.shape[1]):
        col = q[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[0]]
            q[:, k] = col * (np.conj(pivot) / np.abs(pivot))
    return q


def range_onb(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space.

    Returns an ``rows x rank`` matrix whose columns span the range of
    ``m``; rank counts singular values above ``TOL_RANK`` times the
    largest one.  The phase of each column is fixed (first nonzero coordinate
    real positive) so the basis is deterministic.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    rank = int(np.count_nonzero(s > TOL_RANK * s[0]))
    return _fix_column_phases(u[:, :rank])


def complement_onb(q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of an isometric frame.

    ``q`` must have orthonormal columns.  The complement projector
    I - q q* has eigenvalues 0 and 1 exactly, so membership is decided
    by an eigenvalue threshold of 1/2; this stays correct even when the
    complement is empty and the projector is pure rounding noise,
    where a relative singular-value cutoff would hallucinate columns.

    The callers' frames (the ``D*`` and ``D_E`` bases and the corner
    block of :mod:`.scattering`) do not grow with the Fock depth, so the
    projector is formed whole.  Only its support block is decomposed: an
    isolated exact unit column of ``q`` gives an exactly zero row and
    column of it, which the support cut drops with its other zero lines.
    """
    q = np.asarray(q, dtype=np.complex128)
    p = np.eye(q.shape[0]) - q @ q.conj().T
    p = (p + p.conj().T) / 2.0
    live = _support(p)[0]
    w, v = np.linalg.eigh(p[np.ix_(live, live)])
    out = np.zeros((q.shape[0], v.shape[1]), dtype=np.complex128)
    out[live] = v
    return _fix_column_phases(out[:, w > 0.5])


def random_isometry(rows: int, cols: int, seed) -> np.ndarray:
    """Haar-ish random isometry from a seeded PCG64 stream.

    Draws a complex standard-normal matrix and orthonormalizes it by
    QR with the R-diagonal made real positive; the result satisfies
    ``v.conj().T @ v == I`` to near machine precision.  ``seed`` is an
    integer or an existing ``numpy.random.Generator``.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if cols == 0:
        return np.zeros((rows, 0), dtype=np.complex128)
    z = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r).copy()
    diag[diag == 0] = 1.0
    return q * np.conj(diag / np.abs(diag))


def pseudo_inverse(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values <= TOL_RANK*s_max dropped."""
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    inv = np.where(s > TOL_RANK * s[0], 1.0 / np.where(s == 0, 1, s), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


def principal_angles(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of two orthonormal frames.

    Uses the sine-based formula (SVD of the residual of one frame
    against the other's projector), which stays accurate for angles
    near zero where the cosine formula loses all precision.
    """
    q1 = np.asarray(q1, dtype=np.complex128)
    q2 = np.asarray(q2, dtype=np.complex128)
    if q1.shape[1] == 0:
        return np.zeros(0)
    resid = q2 - q1 @ (q1.conj().T @ q2)
    s = np.linalg.svd(resid, compute_uv=False)
    return np.arcsin(np.clip(s, 0.0, 1.0))
