"""Coisometric liftings of coisometric row tuples.

A lifting instance packages a coisometric d-tuple C on a base space
H_C together with a lower-triangular coisometric extension

    E_j = [[C_j, 0   ],
           [B_j, A_j ]]     on  H_C (+) H_A.

Coisometry of the row E forces two block identities,

    sum_j C_j B_j* = 0        and        B B* = I - A A*,

and guarantees an isometry ``gamma`` from the range of the star
defect D* = (I - A A*)^(1/2) into the defect space of C with
``gamma D* = B*`` (B* maps H_A into the d-fold sum of H_C copies).
``assemble`` builds every instance in one pass; strict mode then reads
all seven identities off :func:`lifting_violations` and refuses the
blocks that miss one by more than ``TOL_EQ``, and those whose defect
rank of C or E is decided inside the band ``(TOL_RANK, TOL_EQ]``.
``generate`` draws random valid instances from a seeded stream by
running the construction backwards: pick C coisometric, then
:func:`draw_corner` picks a strictly contractive A and
:func:`draw_coupling` picks gamma at random and lets B be whatever the
identity dictates; the two also lift any coisometric base by any given
corner.

Stored coordinates: an instance holds its blocks and ``gamma`` alone,
in the coordinates of the defect bases its tuples own: readers take
``c.defect``, ``e.defect`` and ``a.star_defect`` (:mod:`.rowtuple`), and
each one's ``Q* D`` and kernel basis as its ``coords`` and ``kernel``.

An instance keeps the dilations of C and E (:mod:`.dilation`); every
other module reads them, their stage blocks and their spaces there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .dilation import Dilation
from .linalg import TOL_EQ, TOL_RANK
from .rowtuple import OperatorTuple


class NotCoisometricC(ValueError):
    """The base tuple fails row coisometry."""


class NotCoisometricE(ValueError):
    """The assembled lifting fails row coisometry; the message names
    the violated block identity."""


class GammaUndefined(ValueError):
    """B* does not vanish on the kernel of the star defect, so no
    isometry gamma with gamma D* = B* can exist."""


class RankClampBand(ValueError):
    """``a_scale`` is so close to 1 that the rank cut of the star
    defect would discard true spectrum and break the dilation checks."""


class RankBand(ValueError):
    """An eigenvalue of I - C* C or I - E* E lies in ``(TOL_RANK, TOL_EQ]``:
    the rank cut keeps it as defect, yet the identities accept it as the
    ghost of a zero one, so the defect rank is not decided."""


class Infeasible(ValueError):
    """Requested dimensions admit no valid instance: the star defect
    rank exceeds the defect rank (d-1)*dimC of the base tuple."""


@dataclass(frozen=True, eq=False)
class LiftingInstance:
    """A validated coisometric lifting: its blocks and ``gamma``.

    ``b`` holds the d coupling blocks B_j (dimA x dimC each), ``e``
    the assembled block tuple.  ``gamma`` is stored as a matrix from
    the coordinates of ``a.star_defect`` (on H_A) to those of
    ``c.defect``.
    """

    c: OperatorTuple
    a: OperatorTuple
    b: tuple[np.ndarray, ...]
    e: OperatorTuple
    gamma: np.ndarray
    seed: int | None = None

    @property
    def d(self) -> int:
        return self.c.d

    @property
    def dim_c(self) -> int:
        return self.c.dim

    @property
    def dim_a(self) -> int:
        return self.a.dim

    @property
    def dim_e(self) -> int:
        return self.e.dim

    @property
    def rank_c(self) -> int:
        return self.c.defect.rank

    @property
    def rank_e(self) -> int:
        return self.e.defect.rank

    @cached_property
    def dilation_c(self) -> Dilation:
        """The base dilation, of C."""
        return Dilation(self.c)

    @cached_property
    def dilation_e(self) -> Dilation:
        """The lifted dilation, of E."""
        return Dilation(self.e)


def _block_lifting_ops(c: OperatorTuple, a: OperatorTuple, b) -> OperatorTuple:
    nc, na = c.dim, a.dim
    ops = []
    for j in range(c.d):
        m = np.zeros((nc + na, nc + na), dtype=np.complex128)
        m[:nc, :nc] = c.ops[j]
        m[nc:, :nc] = b[j]
        m[nc:, nc:] = a.ops[j]
        ops.append(m)
    return OperatorTuple(tuple(ops))


def lifting_violations(instance: LiftingInstance) -> dict[str, float]:
    """Numerical size of every defining identity of the instance.

    Keys: ``c_coisometry``, ``cross_block`` (sum C_j B_j* = 0),
    ``complement_block`` (B B* + A A* = I), ``e_coisometry``,
    ``gamma_isometry``, ``gamma_intertwine`` (gamma D* = B*) and
    ``gamma_kernel`` (B* vanishes on ker D*).  Blocks whose Grams are
    finite can still have products too large for double precision; numpy
    warns of none, and their sizes read inf or nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c_row, a_row, e_row = instance.c.row(), instance.a.row(), instance.e.row()
        b_row = np.hstack(instance.b)
        b_star = b_row.conj().T
        cross = sum(cj @ bj.conj().T for cj, bj in zip(instance.c.ops, instance.b))
        g, star, qc = instance.gamma, instance.a.star_defect, instance.c.defect.basis
        return {
            "c_coisometry": linalg.operator_norm(c_row @ c_row.conj().T - np.eye(instance.dim_c)),
            "cross_block": linalg.operator_norm(cross),
            "complement_block": linalg.operator_norm(
                b_row @ b_row.conj().T + a_row @ a_row.conj().T - np.eye(instance.dim_a)
            ),
            "e_coisometry": linalg.operator_norm(e_row @ e_row.conj().T - np.eye(instance.dim_e)),
            "gamma_isometry": linalg.operator_norm(g.conj().T @ g - np.eye(g.shape[1])),
            "gamma_intertwine": linalg.operator_norm(qc @ g @ star.coords - b_star),
            "gamma_kernel": linalg.operator_norm(b_star @ star.kernel),
        }


# the identities strict ``assemble`` names first, in order, with the error each raises
_REFUSALS = (
    ("c_coisometry", NotCoisometricC, "sum C_j C_j* - I has norm {:.3e}"),
    ("cross_block", NotCoisometricE, "sum C_j B_j* has norm {:.3e}, should vanish"),
    ("complement_block", NotCoisometricE, "B B* + A A* - I has norm {:.3e}"),
    ("gamma_kernel", GammaUndefined,
     f"B* does not vanish on ker D* (leak {{:.3e}} > {TOL_EQ:.1e})"),
)


def assemble(
    c: OperatorTuple,
    a: OperatorTuple,
    b,
    seed: int | None = None,
    strict: bool = True,
) -> LiftingInstance:
    """Build a lifting instance from its three blocks and validate it.

    Both modes build on one path, with clamped defect spectra, and root
    ``c.defect``, ``a.star_defect`` and ``e.defect`` there, so blocks too
    large for their Grams raise :class:`.GramOverflow` in either.  Strict
    mode then reads :func:`lifting_violations` once and raises when an
    identity exceeds ``TOL_EQ``, the threshold of verify's
    ``lifting_identities`` row: first a block identity
    (:class:`NotCoisometricC`, :class:`NotCoisometricE`), then a
    ``gamma_kernel`` leak (:class:`GammaUndefined`), then the worst
    identity left (:class:`NotCoisometricE`).  Last it raises
    :class:`RankBand` on an eigenvalue of ``I - C* C`` or ``I - E* E``
    in ``(TOL_RANK, TOL_EQ]``, read where the defect's square root cut
    it.  For a coisometric lifting both are projections, so their
    eigenvalues are 0 and 1.  ``I - A A*`` is left out: its spectrum is
    true data, and :func:`generate` refuses only the narrower
    :class:`RankClampBand` there.
    """
    if a.d != c.d:
        raise ValueError(f"C has {c.d} operators but A has {a.d}")
    b = tuple(linalg.as_matrix(m) for m in b)
    if len(b) != c.d:
        raise ValueError(f"expected {c.d} coupling blocks, got {len(b)}")
    for m in b:
        if m.shape != (a.dim, c.dim):
            raise ValueError(
                f"coupling blocks must be {a.dim}x{c.dim}, got {m.shape}"
            )

    e = _block_lifting_ops(c, a, b)
    # E's Gram holds B* B, so a B too large for the product below is refused here first
    defect_c, star, defect_e = c.defect, a.star_defect, e.defect
    # gamma D* = B* with D* inverted on its range; the leak of B* onto
    # ker D* is lifting_violations' ``gamma_kernel``
    restricted = star.coords @ star.basis
    bstar = np.hstack(b).conj().T
    gamma = defect_c.basis.conj().T @ bstar @ star.basis @ linalg.pseudo_inverse(restricted)
    inst = LiftingInstance(c, a, b, e, gamma, seed)
    if not strict:
        return inst

    viols = lifting_violations(inst)
    for key, error, message in _REFUSALS:
        if not viols[key] <= TOL_EQ:
            raise error(message.format(viols[key]))
    worst = max(viols, key=lambda k: (math.isnan(viols[k]), viols[k]))
    if not viols[worst] <= TOL_EQ:
        raise NotCoisometricE(f"identity {worst} violated by {viols[worst]:.3e}")
    for name, data in (("I - C* C", defect_c), ("I - E* E", defect_e)):
        inside = data.spectrum[(data.spectrum > TOL_RANK) & (data.spectrum <= TOL_EQ)]
        if inside.size:
            raise RankBand(
                f"{name} has eigenvalue {inside[0]:.3e} in the rank band "
                f"({TOL_RANK:.0e}, {TOL_EQ:.0e}], so its defect rank is not decided"
            )
    return inst


def generate(
    d: int,
    dim_c: int,
    dim_a: int,
    seed: int,
    a_scale: float = 0.9,
) -> LiftingInstance:
    """Draw a random valid instance from a seeded PCG64 stream.

    C is the adjoint of a random isometry (hence exactly coisometric),
    then :func:`draw_corner` draws A and :func:`draw_coupling` gamma and
    B from the same stream.  Raises :class:`Infeasible` when the star
    defect rank exceeds (d-1)*dimC, and :class:`RankClampBand` for a
    corner with 0 < 1 - a_scale**2 <= 10 * TOL_RANK.
    """
    if d < 1:
        raise ValueError("need at least one operator")
    if dim_c < 1:
        raise ValueError("base dimension must be positive")
    if dim_a < 0:
        raise ValueError("corner dimension must be nonnegative")
    if not 0.0 <= a_scale <= 1.0:
        raise ValueError("a_scale must lie in [0, 1]")
    if dim_a > 0 and 0.0 < 1.0 - a_scale**2 <= 10 * TOL_RANK:
        raise RankClampBand(
            f"1 - a_scale**2 = {1.0 - a_scale**2:.1e} lies in the rank-clamp band "
            f"(0, {10 * TOL_RANK:.0e}], where the star defect loses true spectrum"
        )

    rng = np.random.default_rng(seed)
    cstar = linalg.random_isometry(d * dim_c, dim_c, rng)
    c = OperatorTuple(tuple(cstar[j * dim_c : (j + 1) * dim_c, :].conj().T for j in range(d)))
    a = draw_corner(d, dim_a, rng, a_scale)
    return assemble(c, a, draw_coupling(c, a, rng), seed=seed)


def draw_corner(d: int, dim_a: int, rng: np.random.Generator, a_scale: float) -> OperatorTuple:
    """A random d-tuple on a ``dim_a``-dimensional corner, scaled to row norm
    ``a_scale`` (strictly less than 1 keeps the star defect full rank, 0 gives
    A = 0), from two ``standard_normal`` draws of ``rng``, real parts first."""
    shape = (dim_a, d * dim_a)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    norm = np.linalg.norm(raw, 2)
    a_row = raw * (a_scale / norm) if a_scale > 0 and norm > 0 else np.zeros_like(raw)
    return OperatorTuple(tuple(a_row[:, j * dim_a : (j + 1) * dim_a] for j in range(d)))


def draw_coupling(c: OperatorTuple, a: OperatorTuple, rng: np.random.Generator) -> tuple:
    """The coupling blocks B = (gamma D*)* of a lifting of the coisometric
    ``c`` with corner ``a``: gamma is a random isometry, drawn from ``rng``,
    from the coordinates of ``a.star_defect`` to those of ``c.defect``.
    Raises :class:`Infeasible` when the star defect rank exceeds the defect
    rank (d-1)*dimC of ``c``."""
    star = a.star_defect
    if star.rank > c.defect.rank:
        raise Infeasible(
            f"star defect rank {star.rank} exceeds base defect rank "
            f"{c.defect.rank} = (d-1)*dimC; no isometry gamma exists"
        )
    gamma = linalg.random_isometry(c.defect.rank, star.rank, rng)
    bstar = c.defect.basis @ gamma @ star.coords
    return tuple(bstar[j * c.dim : (j + 1) * c.dim].conj().T for j in range(c.d))
