"""Acceptance sweep: every stated property at its stated tolerance.

Twenty seeded instances at desk scale (two and three letters, space
dimensions up to three, Fock depth up to four) feed every criterion.
Each criterion prints exactly one pass/fail line; run with ``-s`` to
see them all.
"""

import time

import numpy as np
import pytest
from conftest import defect_block

from ncscatter import lifting, scattering
from ncscatter.charfn import (
    charfn_series,
    coincidence_violation,
    fock_action_violation,
    restriction_probes,
    vacuum_restriction_violation,
)
from ncscatter.intertwiner import (
    intertwiner_matrix,
    stabilization_violation,
)
from ncscatter.linalg import operator_norm
from ncscatter.ncsystem import io_violation
from ncscatter.transfer import (
    NCSeries,
    build_colligation,
    random_series,
    series_multiply,
    transfer_norm,
    transfer_series,
)
from ncscatter.verify import (
    _base_subspace_fixed,
    _dilation_compression,
    _dilation_isometry,
    _dilation_orthogonal_ranges,
    _dilation_row_unitary,
    _intertwiner_coisometry,
    _intertwining_norms,
    _multi_analyticity,
    all_passed,
    run_all_checks,
)
from ncscatter.words import level_start

# d, dimC, dimA, depth; three-letter cases run at smaller depth
CONFIGS = [
    (2, 2, 2, 3),
    (2, 1, 1, 4),
    (2, 3, 2, 2),
    (2, 2, 0, 3),
    (3, 2, 1, 2),
    (2, 2, 1, 4),
    (3, 1, 1, 2),
    (2, 3, 3, 2),
    (3, 2, 2, 2),
    (2, 2, 0, 4),
]


def report(name: str, violation: float, threshold: float) -> None:
    ok = violation <= threshold
    print(
        f"{'PASS' if ok else 'FAIL'} {name}: "
        f"max violation {violation:.3e} (tolerance {threshold:.1e})"
    )
    assert ok, f"{name}: {violation:.3e} exceeds {threshold:.1e}"


@pytest.fixture(scope="module")
def sweep():
    out = []
    for i in range(20):
        d, nc, na, depth = CONFIGS[i % len(CONFIGS)]
        t0 = time.perf_counter()
        inst = lifting.generate(d, nc, na, seed=i)
        out.append((inst, depth, time.perf_counter() - t0))
    return out


def test_lifting_validity(sweep):
    worst = max(
        max(lifting.lifting_violations(inst).values()) for inst, _, _ in sweep
    )
    report("lifting validity", worst, 1e-8)
    slowest = max(t for _, _, t in sweep)
    ok = slowest < 0.1
    print(
        f"{'PASS' if ok else 'FAIL'} generation speed: "
        f"slowest instance {slowest:.4f} s (budget 0.1 s)"
    )
    assert ok


def test_dilation_isometry_and_orthogonal_ranges(sweep):
    worst = max(
        max(_dilation_isometry(i), _dilation_orthogonal_ranges(i)) for i, _, _ in sweep
    )
    report("dilation isometry and orthogonal ranges", worst, 1e-12)


def test_dilation_row_identity(sweep):
    worst = max(_dilation_row_unitary(i) for i, _, _ in sweep)
    report("dilation row identity on truncated vectors", worst, 1e-10)


def test_dilation_compression(sweep):
    worst = max(_dilation_compression(i, n) for i, n, _ in sweep)
    report("dilation compresses to word products", worst, 1e-10)


def test_intertwiner_coisometry(sweep):
    worst = max(_intertwiner_coisometry(intertwiner_matrix(i, n)) for i, n, _ in sweep)
    report("intertwiner times adjoint is the identity", worst, 1e-10)


def test_intertwiner_fixes_base(sweep):
    worst = max(
        _base_subspace_fixed(intertwiner_matrix(i, n), i.dim_c) for i, n, _ in sweep
    )
    report("intertwiner fixes the base subspace", worst, 1e-12)


def test_intertwiner_stabilization(sweep):
    worst = max(
        stabilization_violation(intertwiner_matrix(i, n), intertwiner_matrix(i, n - 1))
        for i, n, _ in sweep
    )
    report("stage count stabilization", worst, 1e-12)


def test_intertwining_both_directions(sweep):
    worst = max(
        max(map(max, _intertwining_norms(i, n, intertwiner_matrix(i, n),
                                         intertwiner_matrix(i, n - 1))))
        for i, n, _ in sweep
    )
    report("intertwining with the dilations, both directions", worst, 1e-10)


def test_wandering_orthogonality(sweep):
    worst = max(
        scattering.wandering_violation(scattering.shifted_star_frames(i, n), i.rank_c)
        for i, n, _ in sweep
    )
    report("wandering subspace orthogonality", worst, 1e-10)


def test_shift_complement(sweep):
    worst = 0.0
    for inst, depth, _ in sweep:
        frame = scattering.star_wandering_frame(inst, depth)
        if scattering.complement_frame(inst, depth).shape[1] != (inst.d - 1) * inst.dim_c:
            worst = max(worst, np.pi / 2)
        worst = max(worst, scattering.verify_complement(inst, depth, frame))
    report("complement dimension and principal angles", worst, 1e-8)


def test_shift_decomposition(sweep):
    worst = max(
        scattering.verify_shift_decomposition(i, n) for i, n, _ in sweep
    )
    report("row shift decomposition of the outgoing space", worst, 1e-12)


def _toeplitz_norm(inst, depth):
    return transfer_norm(transfer_series(build_colligation(inst), depth))


def test_transfer_contraction(sweep):
    worst = max(max(_toeplitz_norm(i, n) - 1.0, 0.0) for i, n, _ in sweep)
    report("transfer Toeplitz compression is contractive", worst, 1e-8)


def test_transfer_norm_one_without_corner(sweep):
    plain = [(i, n) for i, n, _ in sweep if i.dim_a == 0]
    assert plain, "sweep must contain instances without a corner"
    worst = max(abs(_toeplitz_norm(i, n) - 1.0) for i, n in plain)
    report("transfer norm is one when the corner is trivial", worst, 1e-10)


def _impulse(width: int, d: int, depth: int, word) -> NCSeries:
    col = np.zeros((level_start(d, depth + 1), width, 1), dtype=np.complex128)
    signal = NCSeries(d, depth, col)
    signal.coeff(word)[0, 0] = 1.0
    return signal


def test_input_output_recursion(sweep):
    worst = 0.0
    for k, (inst, depth, _) in enumerate(sweep):
        coll = build_colligation(inst)
        theta = transfer_series(coll, depth)
        signals = [random_series(coll.in_dim, 1, inst.d, depth, seed=k)]
        signals += [_impulse(coll.in_dim, inst.d, depth, w) for w in [(), (1,), (2, 1)[:depth]]]
        for signal in signals:
            worst = max(worst, io_violation(coll, signal, series_multiply(theta, signal)))
    report("recursion output equals series convolution", worst, 1e-10)


def test_multi_analyticity(sweep):
    worst = 0.0
    for inst, depth, _ in sweep:
        coll = build_colligation(inst)
        signal = random_series(coll.in_dim, 1, inst.d, depth, seed=7)
        theta = transfer_series(coll, depth)
        worst = max(worst, _multi_analyticity(theta, signal, series_multiply(theta, signal)))
    report("convolution commutes with right translation", worst, 1e-12)


def test_characteristic_coincidence(sweep):
    worst = max(
        coincidence_violation(charfn_series(i, n), transfer_series(build_colligation(i), n))
        for i, n, _ in sweep
    )
    report("characteristic blocks equal reversed transfer blocks", worst, 1e-10)


def test_characteristic_restriction(sweep):
    worst = 0.0
    for inst, depth, _ in sweep:
        theta = transfer_series(build_colligation(inst), depth)
        signal = random_series(inst.rank_e, 1, inst.d, depth, seed=3)
        probes = restriction_probes(inst, signal)
        r = inst.rank_e
        worst = max(
            worst,
            vacuum_restriction_violation(inst, charfn_series(inst, depth), probes[:, :r]),
            fock_action_violation(inst, probes[:, r:], series_multiply(theta, signal)),
        )
    report("intertwiner restricts to the characteristic function", worst, 1e-10)


def test_output_map_structure(sweep):
    worst = 0.0
    for inst, _, _ in sweep:
        coll = build_colligation(inst)
        nc = inst.dim_c
        worst = max(worst, operator_norm(coll.output_map[:, :nc]))
        star = inst.a.star_defect
        coupled = inst.gamma @ (star.basis.conj().T @ star.operator)
        worst = max(worst, operator_norm(coll.output_map[:, nc:] - coupled))
    report("output map kills the base and couples the corner", worst, 1e-10)


def test_defect_block_identity(sweep):
    worst = 0.0
    for inst, _, _ in sweep:
        for i in range(1, inst.d + 1):
            for j in range(1, inst.d + 1):
                want = -inst.c.ops[i - 1].conj().T @ inst.c.ops[j - 1]
                if i == j:
                    want = want + np.eye(inst.dim_c)
                got = defect_block(inst.c, i).conj().T @ defect_block(inst.c, j)
                worst = max(worst, operator_norm(got - want))
    report("defect blocks realize the tuple Gram structure", worst, 1e-10)


def test_full_verification_speed():
    inst = lifting.generate(2, 2, 2, seed=0)
    t0 = time.perf_counter()
    results = run_all_checks(inst, 4)
    elapsed = time.perf_counter() - t0
    assert all_passed(results)
    ok = elapsed < 10.0
    print(
        f"{'PASS' if ok else 'FAIL'} full verification speed: "
        f"depth-four run took {elapsed:.2f} s (budget 10 s)"
    )
    assert ok
