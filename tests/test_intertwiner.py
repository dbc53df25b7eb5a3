import numpy as np
import pytest
from conftest import RT2, balanced_pair_tuple
from hypothesis import given, settings
from hypothesis import strategies as st

from ncscatter.dilation import Dilation, GradedVector
from ncscatter.intertwiner import (
    StageMismatch,
    StageVector,
    apply_intertwiner,
    apply_intertwiner_adjoint,
    base_space,
    embed_from_base,
    intertwiner_adjoint_matrix,
    intertwiner_matrix,
    lift_space,
    project_to_base,
    stabilization_violation,
    stage_backward,
    stage_forward,
    stage_to_graded,
    stage_zero,
)
from ncscatter.lifting import generate
from ncscatter.linalg import operator_norm
from ncscatter.rowtuple import defect


def balanced_side():
    t = balanced_pair_tuple()
    return t, defect(t)


def random_stage(t, dd, stage, depth, seed, tail_levels=None):
    rng = np.random.default_rng(seed)
    tensor = {}
    for w in _words(t.d, stage):
        tensor[w] = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
    tail = {}
    for lvl in tail_levels if tail_levels is not None else range(stage, depth + 1):
        for w in _words(t.d, lvl):
            tail[w] = rng.standard_normal(dd.rank) + 1j * rng.standard_normal(dd.rank)
    return StageVector(t.d, stage, depth, tensor, tail)


def _words(d, length):
    if length == 0:
        return [()]
    out = [()]
    for _ in range(length):
        out = [w + (j,) for w in out for j in range(1, d + 1)]
    return out


class TestStageVector:
    def test_wrong_tensor_length(self):
        with pytest.raises(StageMismatch):
            StageVector(2, 1, 2, tensor={(): np.array([1.0])})

    def test_tail_below_stage(self):
        with pytest.raises(StageMismatch):
            StageVector(2, 1, 2, tail={(): np.array([1.0])})

    def test_tail_beyond_depth(self):
        with pytest.raises(StageMismatch):
            StageVector(2, 0, 1, tail={(1, 2): np.array([1.0])})

    def test_negative_stage(self):
        with pytest.raises(StageMismatch):
            StageVector(2, -1, 2)

    def test_norm_sq(self):
        sv = StageVector(
            2, 0, 1,
            tensor={(): np.array([3.0])},
            tail={(1,): np.array([4.0])},
        )
        assert sv.norm_sq() == pytest.approx(25.0)


class TestStageMaps:
    def test_graded_roundtrip(self):
        v = GradedVector(1, np.array([1.0 + 2j]), {(2,): np.array([3.0])})
        back = stage_to_graded(stage_zero(v, 2))
        assert np.array_equal(back.h, v.h)
        assert set(back.fock) == {(2,)}

    def test_graded_read_requires_stage_zero(self):
        sv = StageVector(2, 1, 1, tensor={(1,): np.array([1.0]), (2,): np.array([0.0])})
        with pytest.raises(StageMismatch):
            stage_to_graded(sv)

    def test_forward_stage_index_checked(self):
        t, dd = balanced_side()
        sv = stage_zero(GradedVector(1), 2)
        with pytest.raises(StageMismatch):
            stage_forward(t, dd, 2, sv)

    def test_backward_stage_index_checked(self):
        t, dd = balanced_side()
        sv = stage_zero(GradedVector(1), 2)
        with pytest.raises(StageMismatch):
            stage_backward(t, dd, 1, sv)

    def test_forward_hand_values(self):
        # base coefficient splits as T_j* h + d_j* x with d = (1/rt2, -1/rt2)
        t, dd = balanced_side()
        v = GradedVector(0, np.array([1.0]), {(): np.array([1.0])})
        out = stage_forward(t, dd, 1, stage_zero(v, 2))
        assert out.tensor[(1,)][0] == pytest.approx(2 * RT2)
        assert out.tensor[(2,)][0] == pytest.approx(0.0)
        assert out.tail == {}

    def test_forward_without_tail_entry(self):
        t, dd = balanced_side()
        v = GradedVector(1, None, {(1,): np.array([1.0])})
        out = stage_forward(t, dd, 1, stage_zero(v, 2))
        # nothing at level 0 to consume: no coefficients appear, and
        # the level-1 tail passes through untouched
        assert out.tensor == {}
        assert set(out.tail) == {(1,)}

    def test_stage_beyond_depth_consumes_zeros(self):
        t, dd = balanced_side()
        sv = stage_zero(GradedVector(0, np.array([1.0])), 2)
        sv = stage_forward(t, dd, 1, sv)
        sv = stage_forward(t, dd, 2, sv)
        assert sv.stage == 2 and sv.tail == {}
        assert sv.norm_sq() == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_forward_preserves_norm_for_coisometric(self, seed):
        t, dd = balanced_side()
        sv = random_stage(t, dd, 0, 2, seed)
        out = stage_forward(t, dd, 1, sv)
        assert out.norm_sq() == pytest.approx(sv.norm_sq())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_backward_inverts_forward(self, seed):
        inst = generate(2, 2, 1, seed=3)
        t, dd = inst.e, inst.defect_e
        sv = random_stage(t, dd, 1, 2, seed)
        back = stage_backward(t, dd, 2, stage_forward(t, dd, 2, sv))
        assert back.norm_sq() == pytest.approx(sv.norm_sq())
        for w, x in sv.tensor.items():
            assert np.allclose(back.tensor[w], x, atol=1e-12)
        for w, x in sv.tail.items():
            assert np.allclose(back.tail[w], x, atol=1e-12)

    def test_stage_rep_matches_dilation_words(self):
        # the stage form is sum_u V_u g_u + untouched tail levels;
        # rebuild that sum with the independently tested dilation maps
        inst = generate(2, 2, 2, seed=19)
        t, dd = inst.e, inst.defect_e
        dil = Dilation(t, dd)
        depth = 2
        sp = dil.space(depth)
        sv = random_stage(t, dd, 2, depth, seed=5, tail_levels=[2])
        want = np.zeros(sp.dim, dtype=np.complex128)
        for u, g in sv.tensor.items():
            v = GradedVector(0, g)
            for letter in reversed(u):
                v = dil.apply(letter, v)
            want += sp.flatten(v)
        for w, x in sv.tail.items():
            want += sp.flatten(GradedVector(depth, None, {w: x}))
        got = stage_backward(t, dd, 1, stage_backward(t, dd, 2, sv))
        assert np.allclose(sp.flatten(stage_to_graded(got)), want, atol=1e-12)

    def test_project_drops_tail_and_rows(self):
        sv = StageVector(
            2, 1, 1,
            tensor={(1,): np.array([1.0, 2.0]), (2,): np.array([3.0, 4.0])},
            tail={(1,): np.array([5.0])},
        )
        out = project_to_base(1, sv)
        assert out.tail == {}
        assert out.tensor[(2,)].tolist() == [3.0]

    def test_embed_requires_consumed_tail(self):
        sv = StageVector(2, 1, 1, tail={(1,): np.array([1.0])})
        with pytest.raises(StageMismatch):
            embed_from_base(3, sv)


class TestIntertwiner:
    def test_identity_when_no_corner(self, no_corner_instance):
        m = intertwiner_matrix(no_corner_instance, 2)
        assert m.shape[0] == m.shape[1]
        assert operator_norm(m - np.eye(m.shape[0])) < 1e-12

    def test_fixes_base_subspace(self, plain_instance):
        # base vectors sit inside the lifted space and must come back
        # unchanged, so the leading column block is the embedding
        m = intertwiner_matrix(plain_instance, 2)
        cod = base_space(plain_instance, 2)
        nc = plain_instance.dim_c
        want = np.zeros((cod.dim, nc))
        want[:nc, :nc] = np.eye(nc)
        assert operator_norm(m[:, :nc] - want) < 1e-12

    def test_hand_corner_column(self, hand_instance):
        # the corner basis vector maps to the vacuum defect direction
        m = intertwiner_matrix(hand_instance, 1)
        cod = base_space(hand_instance, 1)
        col = m[:, 1]
        want = np.zeros(cod.dim, dtype=np.complex128)
        want[cod.slot(())] = 1.0
        assert np.allclose(col, want, atol=1e-12)

    def test_coisometry(self, plain_instance):
        m = intertwiner_matrix(plain_instance, 2)
        assert operator_norm(m @ m.conj().T - np.eye(m.shape[0])) < 1e-12

    def test_adjoint_matrix_is_conjugate_transpose(self, plain_instance):
        m = intertwiner_matrix(plain_instance, 2)
        mstar = intertwiner_adjoint_matrix(plain_instance, 2)
        assert operator_norm(mstar - m.conj().T) < 1e-12

    def test_adjoint_is_isometry(self, zero_a_instance):
        mstar = intertwiner_adjoint_matrix(zero_a_instance, 2)
        assert operator_norm(mstar.conj().T @ mstar - np.eye(mstar.shape[1])) < 1e-12

    def test_adjoint_never_raises_grade(self, plain_instance):
        # output Fock level of the adjoint never exceeds the input level
        inst = plain_instance
        depth = 2
        dom = base_space(inst, depth)
        cod = lift_space(inst, depth)
        mstar = intertwiner_adjoint_matrix(inst, depth)
        for w_in in dom.index.words:
            for w_out in cod.index.words:
                if len(w_out) > len(w_in):
                    block = mstar[cod.slot(w_out), dom.slot(w_in)]
                    assert operator_norm(block) < 1e-12

    def test_not_grade_preserving_forward(self, hand_instance):
        # a corner vector has zero base part but unit Fock image
        m = intertwiner_matrix(hand_instance, 1)
        assert abs(m[1, 1]) > 0.9

    def test_intertwines_dilations(self, plain_instance):
        inst = plain_instance
        depth = 2
        dil_lift = Dilation(inst.e, inst.defect_e)
        dil_base = Dilation(inst.c, inst.defect_c)
        w_deep = intertwiner_matrix(inst, depth + 1)
        w_flat = intertwiner_matrix(inst, depth)
        for j in (1, 2):
            lhs = w_deep @ dil_lift.matrix(j, depth)
            rhs = dil_base.matrix(j, depth) @ w_flat
            assert operator_norm(lhs - rhs) < 1e-10

    def test_stabilization(self, plain_instance):
        plain = intertwiner_matrix(plain_instance, 2)
        extra = intertwiner_matrix(plain_instance, 2, stages=4)
        assert stabilization_violation(plain, extra) < 1e-12

    def test_apply_matches_matrix(self, plain_instance):
        inst = plain_instance
        dom = lift_space(inst, 2)
        cod = base_space(inst, 2)
        rng = np.random.default_rng(4)
        vec = rng.standard_normal(dom.dim) + 1j * rng.standard_normal(dom.dim)
        out = apply_intertwiner(inst, dom.unflatten(vec))
        assert np.allclose(
            cod.flatten(out), intertwiner_matrix(inst, 2) @ vec, atol=1e-12
        )

    def test_apply_rejects_too_few_stages(self, plain_instance):
        v = GradedVector(2, np.zeros(plain_instance.dim_e, dtype=np.complex128))
        with pytest.raises(StageMismatch):
            apply_intertwiner(plain_instance, v, stages=2)

    def test_adjoint_apply_on_vacuum_defect_batch(self, plain_instance):
        # columns through the apply path agree with the adjoint matrix
        inst = plain_instance
        depth = 2
        dom = base_space(inst, depth)
        cod = lift_space(inst, depth)
        batch = GradedVector(
            depth, None, {(): np.eye(inst.rank_c, dtype=np.complex128)}
        )
        got = cod.flatten(apply_intertwiner_adjoint(inst, batch), width=inst.rank_c)
        mstar = intertwiner_adjoint_matrix(inst, depth)
        want = mstar[:, dom.slot(())]
        assert np.allclose(got, want, atol=1e-12)

    def test_coisometry_across_seeds(self):
        for seed in (1, 2, 3):
            inst = generate(2, 2, 1, seed=seed)
            m = intertwiner_matrix(inst, 2)
            assert operator_norm(m @ m.conj().T - np.eye(m.shape[0])) < 1e-12
        inst = generate(3, 1, 2, seed=4)
        m = intertwiner_matrix(inst, 1)
        assert operator_norm(m @ m.conj().T - np.eye(m.shape[0])) < 1e-12
