import itertools

import numpy as np
import pytest
from conftest import SWEEP_SHAPES, dense_letter

from ncscatter import linalg
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
    wandering_violation,
)

SWEEP = [
    generate(2, 2, 2, seed=42),
    generate(2, 1, 1, seed=3),
    generate(3, 2, 1, seed=8),
    generate(2, 2, 0, seed=7),
]


def blocks(frames, width):
    """The translate frames of a side-by-side family, one per word."""
    return [frames[:, k : k + width] for k in range(0, frames.shape[1], width)]


def pairwise_wandering_violation(frames, width):
    # oracle: one norm per pair of translate frames
    worst = 0.0
    items = blocks(frames, width)
    for i, fa in enumerate(items):
        for k in range(i, len(items)):
            gram = fa.conj().T @ items[k]
            if k == i:
                gram = gram - np.eye(gram.shape[0])
            worst = max(worst, np.linalg.norm(gram, 2) if gram.size else 0.0)
    return worst


def dense_complement_frame(instance, depth):
    # oracle: left null space of the stack from a full SVD
    dil = instance.dilation_e
    nc = instance.dim_c
    stack = np.hstack([dense_letter(dil, j, depth - 1)[nc:, nc:] for j in range(1, instance.d + 1)])
    u, s, _ = np.linalg.svd(stack, full_matrices=True)
    return u[:, int(np.sum(s > 0.5)) :]


def closed_form_frame(instance, depth):
    # the star frame in one step: push the ambient base-defect basis
    # through the lifting row and its defect, no stage pipeline
    nc, ne, d = instance.dim_c, instance.dim_e, instance.d
    stacked = instance.c.defect.operator @ instance.c.defect.basis
    emb = np.zeros((d * ne, instance.rank_c), dtype=np.complex128)
    for j in range(d):
        emb[j * ne : j * ne + nc] = stacked[j * nc : (j + 1) * nc]
    sp = instance.dilation_e.space(depth)
    out = np.zeros((sp.dim, instance.rank_c), dtype=np.complex128)
    out[:ne] = instance.e.row() @ emb
    out[sp.slot(())] = instance.e.defect.basis.conj().T @ (instance.e.defect.operator @ emb)
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
            assert frame.shape == (inst.dilation_e.space(depth).dim, rank_c)


class TestWandering:
    def test_translates_orthonormal(self, plain_instance):
        frames = shifted_star_frames(plain_instance, 3)
        assert wandering_violation(frames, plain_instance.rank_c) < 1e-10

    def test_wandering_across_sweep(self):
        for inst in SWEEP:
            assert wandering_violation(shifted_star_frames(inst, 2), inst.rank_c) < 1e-10

    def test_graded_lex_translates(self, plain_instance):
        # the block of word (2, 1) is V_2 V_1 applied to the frame (up to
        # rounding: the base rows come from one product on a whole level)
        inst, r = plain_instance, plain_instance.rank_c
        dil = inst.dilation_e
        frames = shifted_star_frames(inst, 3)
        frame = star_wandering_frame(inst, 1)
        want = dil.apply(2, dil.apply(1, frame, 1), 2)
        assert frames.shape == (inst.dilation_e.space(3).dim, 7 * r)
        assert np.allclose(blocks(frames, r)[5], want, rtol=0, atol=1e-15)
        assert np.array_equal(blocks(frames, r)[0], inst.dilation_e.space(3).pad(frame))

    def test_doctored_frames_fail(self, plain_instance):
        r = plain_instance.rank_c
        frames = shifted_star_frames(plain_instance, 2)
        frames[:, r : 2 * r] = frames[:, :r]
        assert wandering_violation(frames, r) > 0.5

    def test_violation_detects_bad_normalization(self, plain_instance):
        r = plain_instance.rank_c
        frames = shifted_star_frames(plain_instance, 2)
        frames[:, :r] *= 2.0
        assert wandering_violation(frames, r) > 0.5

    def test_matches_pairwise_oracle(self, plain_instance):
        families = [(shifted_star_frames(inst, 3), inst.rank_c) for inst in SWEEP]
        r = plain_instance.rank_c
        skewed = shifted_star_frames(plain_instance, 3)
        # words (2, 1) and (1,) sit at graded-lex positions 5 and 1
        blocks(skewed, r)[5][...] += 1e-3 * blocks(skewed, r)[1]
        stretched = shifted_star_frames(plain_instance, 3)
        # word (1, 2) sits at position 4
        blocks(stretched, r)[4][...] *= 1.001
        for frames, width in families + [(skewed, r), (stretched, r)]:
            want = pairwise_wandering_violation(frames, width)
            assert abs(wandering_violation(frames, width) - want) <= 1e-14

    def test_empty_families(self):
        inst = generate(1, 2, 0, seed=0)
        assert inst.rank_c == 0
        assert wandering_violation(shifted_star_frames(inst, 3), 0) == 0.0
        assert wandering_violation(np.eye(4, 2, dtype=np.complex128), 2) == 0.0
        assert wandering_violation(np.zeros((4, 0), dtype=np.complex128), 2) == 0.0


class TestComplement:
    def test_dimension_and_angle(self):
        for inst in SWEEP:
            dim, angle = verify_complement(inst, 2, star_wandering_frame(inst, 2))
            assert dim == inst.rank_c
            assert angle < 1e-8

    def test_complement_orthogonal_to_shifts(self, plain_instance):
        comp = complement_frame(plain_instance, 2)
        frames = shifted_star_frames(plain_instance, 2)
        for f in blocks(frames, plain_instance.rank_c)[1:]:
            assert operator_norm(comp.conj().T @ f[plain_instance.dim_c :]) < 1e-10

    def test_depth_guard(self, plain_instance):
        with pytest.raises(DepthError):
            complement_frame(plain_instance, 0)

    @pytest.mark.parametrize("shape", SWEEP_SHAPES + ((3, 2, 2), (2, 1, 1)))
    def test_corner_block_equals_the_reshape_cut(self, shape):
        # oracle: the corner block cut from the lifted stage block by a
        # reshape, as before the letters owned the cut; same bits
        for seed, a_scale in itertools.product(range(3), [0.9, 0.0, 1.0]):
            inst = generate(*shape, seed=seed, a_scale=a_scale)
            nc, rows = inst.dim_c, inst.dilation_e.stage[inst.dim_c :]
            c = rows.reshape(len(rows), inst.d, inst.dim_e)[:, :, nc:]
            c = c.reshape(len(rows), inst.d * inst.dim_a)
            want = linalg.complement_onb(c)
            for depth in (1, 3):
                got = complement_frame(inst, depth)
                below = inst.dilation_e.space(depth).dim - nc - c.shape[0]
                assert got.tobytes() == np.pad(want, ((0, below), (0, 0))).tobytes()

    @pytest.mark.parametrize("shape", SWEEP_SHAPES)
    def test_spans_the_dense_oracle_subspace(self, shape):
        # the edge corners: A = 0 gives c exact unit columns, a_scale 1 is isometric
        for seed, a_scale in itertools.product(range(2), [0.9, 0.0, 1.0]):
            inst = generate(*shape, seed=seed, a_scale=a_scale)
            for depth in range(1, 5):
                comp = complement_frame(inst, depth)
                dense = dense_complement_frame(inst, depth)
                assert comp.shape == dense.shape
                assert np.linalg.norm(comp.conj().T @ comp - np.eye(comp.shape[1])) < 1e-13
                gap = comp @ comp.conj().T - dense @ dense.conj().T
                assert (np.linalg.norm(gap, 2) if gap.size else 0.0) <= 1e-13


class TestShiftDecomposition:
    def test_translates_reproduce_graded_basis(self):
        for inst in SWEEP:
            assert verify_shift_decomposition(inst, 2) < 1e-12

    def test_deeper(self, plain_instance):
        assert verify_shift_decomposition(plain_instance, 3) < 1e-12
