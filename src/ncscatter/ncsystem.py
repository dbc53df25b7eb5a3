"""Word-indexed state-space simulation of the lifting-driven system.

Running the colligation as a recursion over words gives trajectories

    x(()) = 0,   x(j w) = state_j x(w) + input_j u(w),
    y(w) = output x(w) + feedthrough u(w),

and the input/output behaviour must reproduce convolution by the
transfer series.  Both the recursion and the convolution are exact at
finite depth, so they are compared at working precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .transfer import Colligation, DimMismatch, NCSeries, series_multiply
from .words import Word, enumerate_words, prepend_levels


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Input, state and output values per word, as column batches."""

    depth: int
    u: dict[Word, np.ndarray] = field(default_factory=dict)
    x: dict[Word, np.ndarray] = field(default_factory=dict)
    y: dict[Word, np.ndarray] = field(default_factory=dict)


def simulate(coll: Colligation, signal: NCSeries, depth: int | None = None) -> Trajectory:
    """Run the recursion on a width-one input series.

    The state at a word of length m only sees inputs at its proper
    suffixes, so the recursion fills level by level by prepending
    letters.
    """
    if signal.in_dim != 1:
        raise DimMismatch("signals are series with a single column")
    if signal.out_dim != coll.in_dim:
        raise DimMismatch(
            f"signal values have dim {signal.out_dim}, colligation takes {coll.in_dim}"
        )
    if depth is None:
        depth = signal.depth
    if depth > signal.depth:
        raise DimMismatch(f"signal is only known to depth {signal.depth}")

    u = {w: signal.coeff(w) for w in enumerate_words(coll.d, depth).words}
    x = prepend_levels(
        np.zeros((coll.state_dim, 1), dtype=np.complex128),
        coll.d,
        depth,
        lambda j, w, xw: coll.state_ops[j - 1] @ xw + coll.input_ops[j - 1] @ u[w],
    )
    y = {w: coll.output_map @ x[w] + coll.feedthrough @ u[w] for w in u}
    return Trajectory(depth, u, x, y)


def io_violation(coll: Colligation, signal: NCSeries, theta: NCSeries) -> float:
    """Recursion output against convolution by ``theta``, the transfer series."""
    traj = simulate(coll, signal)
    want = series_multiply(theta, signal, depth=traj.depth)
    worst = 0.0
    for w, got in traj.y.items():
        worst = max(worst, float(np.linalg.norm(got - want.coeff(w))))
    return worst
