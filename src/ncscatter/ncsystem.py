"""Word-indexed state-space simulation of the lifting-driven system.

Running the colligation as a recursion over words gives trajectories

    x(()) = 0,   x(j w) = state_j x(w) + input_j u(w),
    y(w) = output x(w) + feedthrough u(w),

and the input/output behaviour must reproduce convolution by the
transfer series.  Both the recursion and the convolution are exact at
finite depth, so they are compared at working precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .transfer import Colligation, DimMismatch, NCSeries, require_words
from .words import prepend_levels


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Input, state and output values per word, as one-column series."""

    u: NCSeries
    x: NCSeries
    y: NCSeries

    @property
    def depth(self) -> int:
        return self.u.depth


def simulate(coll: Colligation, signal: NCSeries, depth: int | None = None) -> Trajectory:
    """Run the recursion on a width-one input series.

    The state at a word of length m only sees inputs at its proper
    suffixes, so the recursion fills level by level by prepending
    letters.
    """
    if signal.in_dim != 1:
        raise DimMismatch("signals are series with a single column")
    if signal.out_dim != coll.in_dim or signal.d != coll.d:
        raise DimMismatch(
            f"signal values have dim {signal.out_dim} over {signal.d} letters, "
            f"colligation takes {coll.in_dim} over {coll.d}"
        )
    if depth is None:
        depth = signal.depth
    require_words(coll.d, depth)
    if depth > signal.depth:
        raise DimMismatch(f"signal is only known to depth {signal.depth}")

    u = signal.prefix(depth)
    levels = prepend_levels(
        np.zeros((1, coll.state_dim, 1), dtype=np.complex128),
        coll.d,
        depth,
        lambda j, m, x: coll.state_ops[j - 1] @ x + coll.input_ops[j - 1] @ u.level(m),
    )
    x = NCSeries(coll.d, depth, np.concatenate(levels))
    y = NCSeries(coll.d, depth, coll.output_map @ x.coeffs + coll.feedthrough @ u.coeffs)
    return Trajectory(u, x, y)


def io_violation(coll: Colligation, signal: NCSeries, out: NCSeries) -> float:
    """Recursion output against ``out``, the convolution of ``signal`` by the
    transfer series, as the largest distance at one word.  ``out`` has
    the depth of ``signal``."""
    return linalg.stack_norm(simulate(coll, signal).y.coeffs - out.coeffs)
