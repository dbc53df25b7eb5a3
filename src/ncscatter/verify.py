"""One-shot verification of every structural identity of an instance.

Each check measures the numerical size of one defining property at a
chosen Fock truncation depth and compares it against a fixed
threshold.  Thresholds are absolute: the identities hold exactly in
the truncated model, so violations are rounding noise and scale only
mildly with dimension.  A check that raises is reported as failed
with the error message attached instead of aborting the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import charfn, scattering, transfer
from .dilation import Dilation, GradedVector
from .intertwiner import intertwiner_matrix, stabilization_violation
from .lifting import LiftingInstance, lifting_violations
from .linalg import operator_norm
from .ncsystem import io_violation
from .transfer import build_colligation, colligation_violations
from .words import prepend_levels


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_violation: float
    threshold: float
    passed: bool = field(default=False)
    error: str | None = None

    @staticmethod
    def measure(name: str, violation: float, threshold: float) -> "CheckResult":
        v = float(violation)
        return CheckResult(name, v, threshold, math.isfinite(v) and v <= threshold)

    @staticmethod
    def failure(name: str, threshold: float, error: str) -> "CheckResult":
        return CheckResult(name, math.inf, threshold, False, error)

    def line(self) -> str:
        state = "pass" if self.passed else "FAIL"
        detail = (
            f"error: {self.error}"
            if self.error is not None
            else f"{self.max_violation:.3e} <= {self.threshold:.1e}"
        )
        return f"{state}  {self.name:32s} {detail}"


def _dilation_pair(instance: LiftingInstance) -> tuple[Dilation, Dilation]:
    return (
        Dilation(instance.c, instance.defect_c),
        Dilation(instance.e, instance.defect_e),
    )


def _dilation_isometry(instance: LiftingInstance, depth: int) -> float:
    worst = 0.0
    for dil in _dilation_pair(instance):
        mats = [dil.matrix(j, depth - 1) for j in range(1, dil.d + 1)]
        for m in mats:
            worst = max(worst, operator_norm(m.conj().T @ m - np.eye(m.shape[1])))
    return worst


def _dilation_orthogonal_ranges(instance: LiftingInstance, depth: int) -> float:
    worst = 0.0
    for dil in _dilation_pair(instance):
        mats = [dil.matrix(j, depth - 1) for j in range(1, dil.d + 1)]
        for i, mi in enumerate(mats):
            for mjj in mats[i + 1 :]:
                worst = max(worst, operator_norm(mi.conj().T @ mjj))
    return worst


def _dilation_row_unitary(instance: LiftingInstance, depth: int) -> float:
    worst = 0.0
    for dil in _dilation_pair(instance):
        mats = [dil.matrix(j, depth - 1) for j in range(1, dil.d + 1)]
        gram = sum(m @ m.conj().T for m in mats)
        worst = max(worst, operator_norm(gram - np.eye(gram.shape[0])))
    return worst


def _dilation_compression(instance: LiftingInstance, depth: int) -> float:
    """P_H V_w restricted to H equals the word product of the tuple."""
    worst = 0.0
    for dil in _dilation_pair(instance):
        root = GradedVector(0, np.eye(dil.t.dim, dtype=np.complex128), {})
        translates = prepend_levels(
            root, dil.d, min(3, depth), lambda j, _, v: dil.apply(j, v)
        )
        for w, v in translates.items():
            worst = max(worst, operator_norm(v.h - dil.t.word_product(w)))
    return worst


def _intertwining(instance: LiftingInstance, depth: int) -> float:
    """Both directions: W against V on the lift, W* against V on the base."""
    base, lift = _dilation_pair(instance)
    w_deep = intertwiner_matrix(instance, depth)
    w_flat = intertwiner_matrix(instance, depth - 1)
    worst = 0.0
    for j in range(1, instance.d + 1):
        lhs = w_deep @ lift.matrix(j, depth - 1)
        rhs = base.matrix(j, depth - 1) @ w_flat
        worst = max(worst, operator_norm(lhs - rhs))
        lhs_star = lift.matrix(j, depth - 1) @ w_flat.conj().T
        rhs_star = w_deep.conj().T @ base.matrix(j, depth - 1)
        worst = max(worst, operator_norm(lhs_star - rhs_star))
    return worst


def _intertwiner_coisometry(instance: LiftingInstance, depth: int) -> float:
    w = intertwiner_matrix(instance, depth)
    return operator_norm(w @ w.conj().T - np.eye(w.shape[0]))


def _base_subspace_fixed(instance: LiftingInstance, depth: int) -> float:
    w = intertwiner_matrix(instance, depth)
    nc = instance.dim_c
    cols = w[:, :nc]
    target = np.zeros_like(cols)
    target[:nc] = np.eye(nc)
    return operator_norm(cols - target)


def _transfer_contraction(instance: LiftingInstance, depth: int) -> float:
    return max(transfer.transfer_norm(instance, depth) - 1.0, 0.0)


def _transfer_norm_one(instance: LiftingInstance, depth: int) -> float:
    return abs(transfer.transfer_norm(instance, depth) - 1.0)


def _multi_analyticity(instance: LiftingInstance, depth: int, seed) -> float:
    coll = build_colligation(instance)
    theta = transfer.transfer_series(coll, depth)
    signal = transfer.random_series(coll.in_dim, 1, instance.d, depth - 1, seed)
    return max(
        transfer.multi_analyticity_violation(theta, signal, j)
        for j in range(1, instance.d + 1)
    )


def _io_recursion(instance: LiftingInstance, depth: int, seed) -> float:
    coll = build_colligation(instance)
    signal = transfer.random_series(coll.in_dim, 1, instance.d, depth, seed)
    return io_violation(coll, signal)


def _colligation_structure(instance: LiftingInstance) -> float:
    return max(colligation_violations(build_colligation(instance)).values())


def _restriction(instance: LiftingInstance, depth: int, seed) -> float:
    return max(
        charfn.vacuum_restriction_violation(instance, depth),
        charfn.fock_action_violation(instance, depth, seed),
    )


def run_all_checks(
    instance: LiftingInstance, depth: int, seed=0
) -> list[CheckResult]:
    """Measure every identity at truncation ``depth`` (at least 1).

    Returns one :class:`CheckResult` per property, ordered from the
    defining block identities up through the characteristic function.
    """
    if depth < 1:
        raise ValueError("verification needs depth >= 1")
    max_len = max(1, depth - 1)
    plan = [
        (
            "lifting_identities",
            1e-8,
            lambda: max(lifting_violations(instance).values()),
        ),
        ("dilation_isometry", 1e-12, lambda: _dilation_isometry(instance, depth)),
        (
            "dilation_orthogonal_ranges",
            1e-12,
            lambda: _dilation_orthogonal_ranges(instance, depth),
        ),
        ("dilation_row_unitary", 1e-10, lambda: _dilation_row_unitary(instance, depth)),
        (
            "dilation_compression",
            1e-10,
            lambda: _dilation_compression(instance, depth),
        ),
        ("intertwining", 1e-10, lambda: _intertwining(instance, depth)),
        (
            "intertwiner_coisometry",
            1e-10,
            lambda: _intertwiner_coisometry(instance, depth),
        ),
        ("base_subspace_fixed", 1e-12, lambda: _base_subspace_fixed(instance, depth)),
        (
            "intertwiner_stabilization",
            1e-12,
            lambda: stabilization_violation(instance, depth),
        ),
        (
            "star_frame_base_leak",
            1e-12,
            lambda: scattering.base_leak(instance, depth),
        ),
        (
            "wandering_orthogonality",
            1e-10,
            lambda: scattering.verify_wandering(instance, depth, max_len),
        ),
        (
            "complement_dimension_angles",
            1e-8,
            lambda: scattering.verify_complement(instance, depth)[1],
        ),
        (
            "shift_decomposition",
            1e-12,
            lambda: scattering.verify_shift_decomposition(instance, depth),
        ),
        (
            "colligation_structure",
            1e-10,
            lambda: _colligation_structure(instance),
        ),
        ("transfer_contraction", 1e-8, lambda: _transfer_contraction(instance, depth)),
    ]
    if instance.dim_a == 0 and instance.rank_c > 0:
        plan.append(
            ("transfer_norm_one", 1e-10, lambda: _transfer_norm_one(instance, depth))
        )
    plan += [
        (
            "multi_analyticity",
            1e-12,
            lambda: _multi_analyticity(instance, depth, seed),
        ),
        ("io_recursion", 1e-10, lambda: _io_recursion(instance, depth, seed)),
        (
            "charfn_coincidence",
            1e-10,
            lambda: charfn.coincidence_violation(instance, depth),
        ),
        (
            "charfn_restriction",
            1e-10,
            lambda: _restriction(instance, depth, seed),
        ),
    ]
    results = []
    for name, threshold, run in plan:
        try:
            results.append(CheckResult.measure(name, run(), threshold))
        except Exception as exc:
            results.append(CheckResult.failure(name, threshold, str(exc)))
    return results


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def render_report(results) -> str:
    lines = [r.line() for r in results]
    verdict = "ALL CHECKS PASS" if all_passed(results) else "CHECKS FAILED"
    lines.append(verdict)
    return "\n".join(lines) + "\n"
