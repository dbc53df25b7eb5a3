import numpy as np
import pytest
from conftest import (
    RT2,
    SWEEP_SHAPES,
    balanced_pair_tuple,
    contraction_tuple,
    defect_block,
    dense_letter,
    table_letter,
)

from ncscatter.dilation import Dilation, GradedSpace, InnerSpaceMismatch
from ncscatter.lifting import generate
from ncscatter.linalg import operator_norm
from ncscatter.rowtuple import OperatorTuple
from ncscatter.words import enumerate_words


def random_flat(space, seed, width=None):
    rng = np.random.default_rng(seed)
    shape = (space.dim,) if width is None else (space.dim, width)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def fock_only(space, values):
    """Flat vector with the given word coefficients and zero base part."""
    out = np.zeros(space.dim, dtype=np.complex128)
    for w, x in values.items():
        out[space.slot(w)] = x
    return out


class TestGradedVector:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            GradedSpace(2, -1, 1, 1)

    def test_word_beyond_depth_rejected(self):
        with pytest.raises(KeyError):
            GradedSpace(2, 1, 1, 1).slot((1, 2))

    def test_inner_hand_value(self):
        # a depth-1 vector padded to depth 2: absent words count as zero,
        # and vdot conjugates the left argument
        shallow, deep = GradedSpace(2, 1, 1, 1), GradedSpace(2, 2, 1, 1)
        x = np.zeros(shallow.dim, dtype=np.complex128)
        x[0], x[shallow.slot((1,))] = 1.0 + 1j, 2.0
        y = np.zeros(deep.dim, dtype=np.complex128)
        y[0], y[deep.slot((1,))], y[deep.slot((2, 1))] = 1.0, 0.5j, 3.0
        assert np.vdot(deep.pad(x), y) == pytest.approx((1.0 - 1j) * 1.0 + 2.0 * 0.5j)

    def test_norm(self):
        shallow, deep = GradedSpace(2, 1, 1, 1), GradedSpace(2, 3, 1, 1)
        x = np.zeros(shallow.dim)
        x[0], x[shallow.slot((2,))] = 3.0, 4.0
        assert np.linalg.norm(deep.pad(x)) == pytest.approx(5.0)


class TestCreation:
    # V_j restricted to Fock-only vectors is the creation operator e_w -> e_{jw}

    def test_prepends_letter(self):
        dil = Dilation(balanced_pair_tuple())
        sp, cod = dil.space(1), dil.space(2)
        x = fock_only(sp, {(): 1.0, (2,): 2.0})
        y = dil.apply(1, x, 1)
        assert np.array_equal(y, fock_only(cod, {(1,): 1.0, (1, 2): 2.0}))

    def test_isometry_with_orthogonal_ranges(self):
        # <L_i x, L_j y> = delta_ij <x, y> on Fock-only vectors
        dil = Dilation(contraction_tuple(2, 1, seed=5))
        sp = dil.space(1)
        rng = np.random.default_rng(5)
        words = enumerate_words(sp.d, sp.depth)
        for i in (1, 2):
            for j in (1, 2):
                x, y = (fock_only(sp, {w: rng.standard_normal(2) for w in words}) for _ in range(2))
                got = np.vdot(dil.apply(i, x, 1), dil.apply(j, y, 1))
                want = np.vdot(x, y) if i == j else 0.0
                assert got == pytest.approx(want)


class TestGradedSpace:
    def test_layout_frozen(self):
        sp = GradedSpace(2, 2, 1, 1)
        assert sp.dim == 1 + 7
        assert sp.slot(()) == slice(1, 2)
        assert sp.slot((2,)) == slice(3, 4)
        assert sp.slot((1, 2)) == slice(5, 6)
        assert sp.level(2) == slice(4, 8)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_prefix_property(self, d):
        # level offsets do not depend on the truncation depth
        for depth in range(5):
            for k in range(depth + 1):
                shallow = GradedSpace(d, k, 2, 3)
                deep = GradedSpace(d, depth, 2, 3)
                for w in enumerate_words(shallow.d, shallow.depth):
                    assert shallow.slot(w) == deep.slot(w)
                for m in range(k + 1):
                    assert shallow.level(m) == deep.level(m)

    def test_pad_then_slice_roundtrip(self):
        shallow, deep = GradedSpace(3, 1, 2, 2), GradedSpace(3, 3, 2, 2)
        vec = random_flat(shallow, seed=0, width=3)
        padded = deep.pad(vec)
        assert np.array_equal(padded[: shallow.dim], vec)
        assert not padded[shallow.dim :].any()

    def test_blocks_are_word_slots(self):
        sp = GradedSpace(2, 2, 1, 2)
        vec = random_flat(sp, seed=1, width=3)
        for m in range(3):
            blocks = sp.blocks(vec, m)
            assert blocks.shape == (2**m, 2, 3)
            words = [w for w in enumerate_words(sp.d, sp.depth) if len(w) == m]
            for u, w in enumerate(words):
                assert np.array_equal(blocks[u], vec[sp.slot(w)])

    def test_depth_mismatch(self):
        sp = GradedSpace(2, 1, 1, 1)
        with pytest.raises(ValueError):
            sp.pad(np.zeros(GradedSpace(2, 2, 1, 1).dim))


class TestApplyHandValues:
    def test_balanced_pair_first_step(self):
        dil = Dilation(balanced_pair_tuple())
        v = np.array([1.0, 0.0])
        cod = dil.space(1)
        out = dil.apply(1, v, 0)
        assert out.shape == (cod.dim,)
        assert out[0] == pytest.approx(RT2)
        assert out[cod.slot(())][0] == pytest.approx(RT2)
        out2 = dil.apply(2, v, 0)
        assert out2[0] == pytest.approx(RT2)
        assert out2[cod.slot(())][0] == pytest.approx(-RT2)

    def test_apply_shifts_existing_support(self):
        dil = Dilation(balanced_pair_tuple())
        cod = dil.space(2)
        out = dil.apply(1, fock_only(dil.space(1), {(2,): 1.0}), 1)
        assert out[cod.slot((1, 2))][0] == 1.0
        assert out[cod.slot(())][0] == pytest.approx(0.0)

    @pytest.mark.parametrize("j", [0, -1, 3])
    def test_letter_outside_alphabet(self, j):
        # a slice of the stage block would read j = -1 as letter d - 1
        dil = Dilation(balanced_pair_tuple())
        with pytest.raises(IndexError):
            dil.apply(j, np.ones(dil.space(0).dim), 0)

    def test_base_dim_mismatch(self):
        dil = Dilation(balanced_pair_tuple())
        with pytest.raises(InnerSpaceMismatch):
            dil.apply(1, np.array([1.0, 2.0, 3.0]), 0)

    def test_defect_dim_mismatch(self):
        dil = Dilation(balanced_pair_tuple())
        with pytest.raises(InnerSpaceMismatch):
            dil.apply(1, np.zeros(dil.space(1).dim + 1), 1)


class TestCompression:
    def test_base_compression_recovers_word_products(self):
        # P_H V_w restricted to H equals T_w, applying letters right to left
        t = contraction_tuple(2, 3, seed=21)
        dil = Dilation(t)
        rng = np.random.default_rng(1)
        for w in [(1,), (2, 1), (1, 1, 2), (2, 2, 1)]:
            h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = dil.space(0).pad(h)
            for depth, letter in enumerate(reversed(w)):
                v = dil.apply(letter, v, depth)
            assert np.allclose(v[:3], t.word_product(w) @ h, atol=1e-12)


class TestAdjoint:
    def test_adjoint_hand_values(self):
        dil = Dilation(balanced_pair_tuple())
        sp, dom = dil.space(1), dil.space(0)
        v = fock_only(sp, {(): 1.0, (1,): 2.0})
        v[0] = 1.0
        out = dense_letter(dil, 1, 0).conj().T @ v
        # T_1* h + d_1* x_() = 1/sqrt2 + 1/sqrt2
        assert out[0] == pytest.approx(2 * RT2)
        assert out[dom.slot(())][0] == 2.0
        out2 = dense_letter(dil, 2, 0).conj().T @ v
        assert out2[0] == pytest.approx(0.0)
        assert out2[dom.slot(())][0] == 0.0

    def test_adjoint_pairing(self):
        t = contraction_tuple(2, 2, seed=8)
        dil = Dilation(t)
        for j in (1, 2):
            x = random_flat(dil.space(2), seed=10 + j)
            y = random_flat(dil.space(3), seed=20 + j)
            lhs = np.vdot(dil.apply(j, x, 2), y)
            rhs = np.vdot(x, dense_letter(dil, j, 2).conj().T @ y)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFlatMatrices:
    def test_matrix_matches_apply(self):
        # each letter rebuilt from the stage block and the row table acts as apply does
        t = contraction_tuple(2, 2, seed=3)
        dil = Dilation(t)
        for j in (1, 2):
            v = random_flat(dil.space(2), seed=j, width=3)
            assert np.allclose(dil.apply(j, v, 2), table_letter(dil, j, 2) @ v, atol=1e-12)

    def test_adjoint_matrix_is_conjugate_transpose(self):
        # V_j* (ell (+) sum_w e_w x_w) = (T_j* ell + d_j* x_()) (+) sum_w e_w x_{jw}
        t = contraction_tuple(2, 2, seed=4)
        dil = Dilation(t)
        dom, cod = dil.space(1), dil.space(2)
        n = t.dim
        for j in (1, 2):
            y = random_flat(cod, seed=30 + j)
            want = np.zeros(dom.dim, dtype=np.complex128)
            want[:n] = t.op(j).conj().T @ y[:n]
            want[:n] += defect_block(dil.t, j).conj().T @ y[cod.slot(())]
            for w in enumerate_words(dom.d, dom.depth):
                want[dom.slot(w)] = y[cod.slot((j,) + w)]
            assert np.allclose(dense_letter(dil, j, 1).conj().T @ y, want, atol=1e-12)

    def test_isometry_and_orthogonal_ranges(self):
        t = contraction_tuple(3, 2, seed=17)
        dil = Dilation(t)
        dom = dil.space(2)
        ms = [dense_letter(dil, j, 2) for j in (1, 2, 3)]
        for i, mi in enumerate(ms):
            for k, mk in enumerate(ms):
                want = np.eye(dom.dim) if i == k else np.zeros((dom.dim, dom.dim))
                assert operator_norm(mi.conj().T @ mk - want) < 1e-12

    def test_row_unitary_for_coisometric_tuple(self, plain_instance):
        # with sum E_j E_j* = I the depth-graded dilation row is square
        # and onto, so sum V_j V_j* = I on the deeper space
        dil = Dilation(plain_instance.e)
        cod = dil.space(3)
        total = sum(dense_letter(dil, j, 2) @ dense_letter(dil, j, 2).conj().T for j in (1, 2))
        assert operator_norm(total - np.eye(cod.dim)) < 1e-10

    def test_row_not_unitary_for_strict_contraction(self):
        t = contraction_tuple(2, 2, seed=2, norm=0.7)
        dil = Dilation(t)
        cod = dil.space(2)
        total = sum(dense_letter(dil, j, 1) @ dense_letter(dil, j, 1).conj().T for j in (1, 2))
        assert operator_norm(total - np.eye(cod.dim)) > 0.1


class TestSingleOperator:
    def test_zero_operator_dilates_to_shift(self):
        # T = 0 on a line: the dilation is the unilateral shift, each
        # step moves the unit of mass one tensor level deeper
        t_zero = contraction_tuple(1, 1, seed=0, norm=0.0)
        dil = Dilation(t_zero)
        assert dil.t.defect.rank == 1
        v = np.array([1.0, 0.0])
        for steps in range(1, 4):
            v = dil.apply(1, v, steps - 1)
            sp = dil.space(steps)
            words = enumerate_words(sp.d, sp.depth)
            live = {w for w in words if np.linalg.norm(v[sp.slot(w)]) > 1e-14}
            assert live == {(1,) * (steps - 1)}
        assert abs(v[0]) < 1e-14

    def test_unitary_has_trivial_dilation(self):
        t = OperatorTuple((np.array([[1j]]),))
        dil = Dilation(t)
        assert dil.t.defect.rank == 0
        out = dil.apply(1, np.array([2.0]), 0)
        assert out.shape == (1,)
        assert out[0] == 2j


class TestZeroRank:
    # generate(d, 2, 0) with d = 1 has base defect rank 0; zero-rank
    # levels and zero-width batches keep their shapes

    @pytest.mark.parametrize("d", [1, 2])
    def test_apply_and_matrix_shapes(self, d):
        inst = generate(d, 2, 0, seed=0)
        for dil in (inst.dilation_c, inst.dilation_e):
            for depth in range(3):
                dom, cod = dil.space(depth), dil.space(depth + 1)
                assert dil.matrix(depth).shape == (dil.d, dom.dim - dil.t.dim)
                assert table_letter(dil, d, depth).shape == (cod.dim, dom.dim)
                empty = np.zeros((dom.dim, 0))
                assert dil.apply(d, empty, depth).shape == (cod.dim, 0)


class TestStage:
    # the stage block U = [[T_1 ... T_d], [(D)_1 ... (D)_d]] of both
    # dilations of every generated instance

    @pytest.mark.parametrize("a_scale", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("shape", SWEEP_SHAPES + ((3, 2, 2),))
    def test_letter_blocks_and_unitarity(self, shape, a_scale):
        for seed in range(3):
            inst = generate(*shape, seed=seed, a_scale=a_scale)
            for dil in (inst.dilation_c, inst.dilation_e):
                n, d = dil.t.dim, dil.d
                u = dil.stage
                assert u.shape == (n + dil.t.defect.rank, d * n) and u.shape[0] == u.shape[1]
                for j in range(1, d + 1):
                    want = np.vstack([dil.t.op(j), defect_block(dil.t, j)])
                    assert np.array_equal(u[:, (j - 1) * n : j * n], want)
                eye = np.eye(d * n)
                assert operator_norm(u.conj().T @ u - eye) <= 1e-14
                assert operator_norm(u @ u.conj().T - eye) <= 1e-14

    def test_built_once(self, plain_instance):
        dil = plain_instance.dilation_e
        assert plain_instance.dilation_e is dil and dil.stage is dil.stage

    @pytest.mark.parametrize("shape", SWEEP_SHAPES + ((3, 2, 2), (2, 1, 1)))
    def test_letters_are_views_of_the_column_blocks(self, shape):
        # the one cut of a letter off the stage block
        for seed in range(3):
            inst = generate(*shape, seed=seed)
            for dil in (inst.dilation_c, inst.dilation_e):
                n = dil.t.dim
                assert dil.letters is dil.letters and len(dil.letters) == dil.d
                for j, u in enumerate(dil.letters):
                    assert np.shares_memory(u, dil.stage)
                    block = dil.stage[:, j * n : (j + 1) * n]
                    assert u.strides == block.strides and np.array_equal(u, block)

    @pytest.mark.parametrize("shape", SWEEP_SHAPES + ((3, 2, 2), (2, 1, 1)))
    def test_adjoint_is_cached_and_bit_equal(self, shape):
        # the same operand a fresh ``stage.conj().T`` gives BLAS: F-ordered, same bits
        for seed in range(3):
            inst = generate(*shape, seed=seed)
            for dil in (inst.dilation_c, inst.dilation_e):
                fresh = dil.stage.conj().T
                assert dil.stage_adjoint is dil.stage_adjoint
                assert dil.stage_adjoint.strides == fresh.strides
                assert dil.stage_adjoint.flags.f_contiguous
                assert dil.stage_adjoint.tobytes() == fresh.tobytes()
