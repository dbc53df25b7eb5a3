import numpy as np
import pytest

from ncscatter.intertwiner import lift_space
from ncscatter.lifting import generate
from ncscatter.linalg import operator_norm
from ncscatter.scattering import (
    DepthError,
    base_leak,
    complement_frame,
    shifted_star_frames,
    star_wandering_frame,
    verify_complement,
    verify_shift_decomposition,
    verify_wandering,
    wandering_violation,
)

SWEEP = [
    generate(2, 2, 2, seed=42),
    generate(2, 1, 1, seed=3),
    generate(3, 2, 1, seed=8),
    generate(2, 2, 0, seed=7),
]


def closed_form_frame(instance, depth):
    # the star frame in one step: push the ambient base-defect basis
    # through the lifting row and its defect, no stage pipeline
    nc, ne, d = instance.dim_c, instance.dim_e, instance.d
    stacked = instance.defect_c.operator @ instance.defect_c.basis
    emb = np.zeros((d * ne, instance.rank_c), dtype=np.complex128)
    for j in range(d):
        emb[j * ne : j * ne + nc] = stacked[j * nc : (j + 1) * nc]
    sp = lift_space(instance, depth)
    out = np.zeros((sp.dim, instance.rank_c), dtype=np.complex128)
    out[:ne] = instance.e.row() @ emb
    out[sp.slot(())] = instance.defect_e.basis.conj().T @ (
        instance.defect_e.operator @ emb
    )
    return out


class TestStarWanderingFrame:
    def test_matches_closed_form(self):
        for inst in SWEEP:
            got = star_wandering_frame(inst, 2)
            assert np.allclose(got, closed_form_frame(inst, 2), atol=1e-12)

    def test_hand_instance_frame(self, hand_instance):
        # the single frame column is the corner basis vector itself
        frame = star_wandering_frame(hand_instance, 2)
        want = np.zeros((frame.shape[0], 1), dtype=np.complex128)
        want[1, 0] = 1.0
        assert np.allclose(frame, want, atol=1e-12)

    def test_orthonormal_columns(self, plain_instance):
        frame = star_wandering_frame(plain_instance, 2)
        gram = frame.conj().T @ frame
        assert operator_norm(gram - np.eye(frame.shape[1])) < 1e-12

    def test_base_rows_vanish(self):
        for inst in SWEEP:
            assert base_leak(inst, star_wandering_frame(inst, 2)) < 1e-12

    def test_column_count_is_base_defect_rank(self, plain_instance):
        frame = star_wandering_frame(plain_instance, 1)
        assert frame.shape[1] == plain_instance.rank_c

    @pytest.mark.parametrize("d,rank_c", [(1, 0), (2, 2)])
    def test_frame_shape_without_corner(self, d, rank_c):
        # d = 1 with dimA = 0 has base defect rank 0: the frame is empty
        inst = generate(d, 2, 0, seed=0)
        assert inst.rank_c == rank_c
        for depth in range(3):
            frame = star_wandering_frame(inst, depth)
            assert frame.shape == (lift_space(inst, depth).dim, rank_c)


class TestWandering:
    def test_translates_orthonormal(self, plain_instance):
        assert verify_wandering(plain_instance, 3, 2) < 1e-10

    def test_wandering_across_sweep(self):
        for inst in SWEEP:
            assert verify_wandering(inst, 2, 1) < 1e-10

    def test_depth_guard(self, plain_instance):
        with pytest.raises(DepthError):
            shifted_star_frames(plain_instance, 1, 2)
        with pytest.raises(DepthError):
            shifted_star_frames(plain_instance, 1, -1)

    def test_doctored_frames_fail(self, plain_instance):
        frames = shifted_star_frames(plain_instance, 2, 1)
        frames[(1,)] = frames[()]
        assert wandering_violation(frames) > 0.5

    def test_violation_detects_bad_normalization(self, plain_instance):
        frames = shifted_star_frames(plain_instance, 2, 1)
        frames[()] = 2.0 * frames[()]
        assert wandering_violation(frames) > 0.5


class TestComplement:
    def test_dimension_and_angle(self):
        for inst in SWEEP:
            dim, angle = verify_complement(inst, 2, star_wandering_frame(inst, 2))
            assert dim == inst.rank_c
            assert angle < 1e-8

    def test_complement_orthogonal_to_shifts(self, plain_instance):
        comp = complement_frame(plain_instance, 2)
        frames = shifted_star_frames(plain_instance, 2, 1)
        for w, f in frames.items():
            if w == ():
                continue
            assert operator_norm(comp.conj().T @ f[plain_instance.dim_c :]) < 1e-10

    def test_depth_guard(self, plain_instance):
        with pytest.raises(DepthError):
            complement_frame(plain_instance, 0)


class TestShiftDecomposition:
    def test_translates_reproduce_graded_basis(self):
        for inst in SWEEP:
            assert verify_shift_decomposition(inst, 2) < 1e-12

    def test_deeper(self, plain_instance):
        assert verify_shift_decomposition(plain_instance, 3) < 1e-12
