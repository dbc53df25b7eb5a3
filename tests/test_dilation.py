import numpy as np
import pytest
from conftest import RT2, balanced_pair_tuple, contraction_tuple

from ncscatter.dilation import (
    Dilation,
    GradedVector,
    InnerSpaceMismatch,
    OverDepth,
    creation,
    graded_space,
)
from ncscatter.linalg import operator_norm
from ncscatter.rowtuple import OperatorTuple, defect


def make_dilation(t):
    return Dilation(t, defect(t))


def random_graded(space, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(space.base_dim) + 1j * rng.standard_normal(space.base_dim)
    fock = {}
    for w in space.index.words:
        fock[w] = rng.standard_normal(space.inner_dim) + 1j * rng.standard_normal(
            space.inner_dim
        )
    return GradedVector(space.depth, h, fock)


class TestGradedVector:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            GradedVector(-1)

    def test_word_beyond_depth_rejected(self):
        with pytest.raises(OverDepth):
            GradedVector(1, None, {(1, 2): np.array([1.0])})

    def test_inner_hand_value(self):
        x = GradedVector(1, np.array([1.0 + 1j]), {(1,): np.array([2.0])})
        y = GradedVector(1, np.array([1.0]), {(1,): np.array([0.5j]), (2,): np.array([3.0])})
        # missing words count as zero; vdot conjugates the left argument
        assert x.inner(y) == pytest.approx((1.0 - 1j) * 1.0 + 2.0 * 0.5j)

    def test_norm(self):
        x = GradedVector(1, np.array([3.0]), {(2,): np.array([4.0])})
        assert x.norm() == pytest.approx(5.0)


class TestCreation:
    def test_prepends_letter(self):
        x = GradedVector(2, None, {(): np.array([1.0]), (2,): np.array([2.0])})
        y = creation(1, x)
        assert set(y.fock) == {(1,), (1, 2)}
        assert y.fock[(1, 2)][0] == 2.0

    def test_top_level_support_rejected(self):
        x = GradedVector(1, None, {(1,): np.array([1.0])})
        with pytest.raises(OverDepth):
            creation(2, x)

    def test_base_component_rejected(self):
        x = GradedVector(1, np.array([1.0]), {})
        with pytest.raises(InnerSpaceMismatch):
            creation(1, x)

    def test_isometry_with_orthogonal_ranges(self):
        # <L_i x, L_j y> = delta_ij <x, y> on Fock-only vectors
        rng = np.random.default_rng(5)
        for i in (1, 2):
            for j in (1, 2):
                x = GradedVector(2, None, {(): rng.standard_normal(2) + 0j})
                y = GradedVector(2, None, {(): rng.standard_normal(2) + 0j})
                got = creation(i, x).inner(creation(j, y))
                want = x.inner(y) if i == j else 0.0
                assert got == pytest.approx(want)


class TestGradedSpace:
    def test_layout_frozen(self):
        sp = graded_space(2, 2, 1, 1)
        assert sp.dim == 1 + 7
        assert sp.slot(()) == slice(1, 2)
        assert sp.slot((2,)) == slice(3, 4)
        assert sp.slot((1, 2)) == slice(5, 6)

    def test_flatten_unflatten_roundtrip(self):
        sp = graded_space(2, 2, 2, 3)
        rng = np.random.default_rng(0)
        vec = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        assert np.array_equal(sp.flatten(sp.unflatten(vec)), vec)

    def test_flatten_batch(self):
        sp = graded_space(2, 1, 1, 1)
        v = GradedVector(1, np.array([[1.0, 2.0]]), {(1,): np.array([[3.0, 4.0]])})
        flat = sp.flatten(v)
        assert flat.shape == (sp.dim, 2)
        assert flat[0, 1] == 2.0
        assert flat[sp.slot((1,)), 0][0] == 3.0

    def test_flatten_width_for_empty_vector(self):
        sp = graded_space(2, 1, 1, 1)
        assert sp.flatten(GradedVector(1), width=4).shape == (sp.dim, 4)

    def test_depth_mismatch(self):
        sp = graded_space(2, 1, 1, 1)
        with pytest.raises(OverDepth):
            sp.flatten(GradedVector(2))

    def test_dimension_mismatches(self):
        sp = graded_space(2, 1, 2, 1)
        with pytest.raises(InnerSpaceMismatch):
            sp.flatten(GradedVector(1, np.array([1.0])))
        with pytest.raises(InnerSpaceMismatch):
            sp.flatten(GradedVector(1, None, {(1,): np.array([1.0, 2.0])}))

    def test_manifest(self):
        sp = graded_space(2, 1, 1, 2)
        assert sp.manifest() == {
            "baseDim": 1,
            "innerDim": 2,
            "depth": 1,
            "words": [[], [1], [2]],
        }


class TestApplyHandValues:
    def test_balanced_pair_first_step(self):
        dil = make_dilation(balanced_pair_tuple())
        v = GradedVector(0, np.array([1.0]))
        out = dil.apply(1, v)
        assert out.depth == 1
        assert out.h[0] == pytest.approx(RT2)
        assert out.fock[()][0] == pytest.approx(RT2)
        out2 = dil.apply(2, v)
        assert out2.h[0] == pytest.approx(RT2)
        assert out2.fock[()][0] == pytest.approx(-RT2)

    def test_apply_shifts_existing_support(self):
        dil = make_dilation(balanced_pair_tuple())
        v = GradedVector(1, None, {(2,): np.array([1.0])})
        out = dil.apply(1, v)
        assert out.fock[(1, 2)][0] == 1.0
        assert out.fock[()][0] == pytest.approx(0.0)

    def test_base_dim_mismatch(self):
        dil = make_dilation(balanced_pair_tuple())
        with pytest.raises(InnerSpaceMismatch):
            dil.apply(1, GradedVector(0, np.array([1.0, 2.0])))

    def test_defect_dim_mismatch(self):
        dil = make_dilation(balanced_pair_tuple())
        with pytest.raises(InnerSpaceMismatch):
            dil.apply(1, GradedVector(1, None, {(1,): np.array([1.0, 2.0])}))


class TestCompression:
    def test_base_compression_recovers_word_products(self):
        # P_H V_w restricted to H equals T_w, applying letters right to left
        t = contraction_tuple(2, 3, seed=21)
        dil = make_dilation(t)
        rng = np.random.default_rng(1)
        for w in [(1,), (2, 1), (1, 1, 2), (2, 2, 1)]:
            h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = GradedVector(0, h)
            for letter in reversed(w):
                v = dil.apply(letter, v)
            assert np.allclose(v.h, t.word_product(w) @ h, atol=1e-12)


class TestAdjoint:
    def test_adjoint_hand_values(self):
        dil = make_dilation(balanced_pair_tuple())
        v = GradedVector(1, np.array([1.0]), {(): np.array([1.0]), (1,): np.array([2.0])})
        out = dil.adjoint_apply(1, v)
        assert out.depth == 0
        # T_1* h + d_1* x_() = 1/sqrt2 + 1/sqrt2
        assert out.h[0] == pytest.approx(2 * RT2)
        assert out.fock[()][0] == 2.0
        out2 = dil.adjoint_apply(2, v)
        assert out2.h[0] == pytest.approx(0.0)
        assert out2.fock == {}

    def test_adjoint_pairing(self):
        t = contraction_tuple(2, 2, seed=8)
        dil = make_dilation(t)
        dom = dil.space(2)
        cod = dil.space(3)
        for j in (1, 2):
            x = random_graded(dom, seed=10 + j)
            y = random_graded(cod, seed=20 + j)
            lhs = dil.apply(j, x).inner(y)
            rhs = x.inner(dil.adjoint_apply(j, y))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFlatMatrices:
    def test_matrix_matches_apply(self):
        t = contraction_tuple(2, 2, seed=3)
        dil = make_dilation(t)
        dom = dil.space(2)
        cod = dil.space(3)
        for j in (1, 2):
            m = dil.matrix(j, 2)
            v = random_graded(dom, seed=j)
            assert np.allclose(
                cod.flatten(dil.apply(j, v)), m @ dom.flatten(v), atol=1e-12
            )

    def test_adjoint_matrix_is_conjugate_transpose(self):
        t = contraction_tuple(2, 2, seed=4)
        dil = make_dilation(t)
        dom = dil.space(1)
        cod = dil.space(2)
        for j in (1, 2):
            m = dil.matrix(j, 1)
            y = random_graded(cod, seed=30 + j)
            got = dom.flatten(dil.adjoint_apply(j, y))
            assert np.allclose(got, m.conj().T @ cod.flatten(y), atol=1e-12)

    def test_isometry_and_orthogonal_ranges(self):
        t = contraction_tuple(3, 2, seed=17)
        dil = make_dilation(t)
        dom = dil.space(2)
        ms = [dil.matrix(j, 2) for j in (1, 2, 3)]
        for i, mi in enumerate(ms):
            for k, mk in enumerate(ms):
                want = np.eye(dom.dim) if i == k else np.zeros((dom.dim, dom.dim))
                assert operator_norm(mi.conj().T @ mk - want) < 1e-12

    def test_row_unitary_for_coisometric_tuple(self, plain_instance):
        # with sum E_j E_j* = I the depth-graded dilation row is square
        # and onto, so sum V_j V_j* = I on the deeper space
        dil = make_dilation(plain_instance.e)
        cod = dil.space(3)
        total = sum(dil.matrix(j, 2) @ dil.matrix(j, 2).conj().T for j in (1, 2))
        assert operator_norm(total - np.eye(cod.dim)) < 1e-10

    def test_row_not_unitary_for_strict_contraction(self):
        t = contraction_tuple(2, 2, seed=2, norm=0.7)
        dil = make_dilation(t)
        cod = dil.space(2)
        total = sum(dil.matrix(j, 1) @ dil.matrix(j, 1).conj().T for j in (1, 2))
        assert operator_norm(total - np.eye(cod.dim)) > 0.1


class TestSingleOperator:
    def test_zero_operator_dilates_to_shift(self):
        # T = 0 on a line: the dilation is the unilateral shift, each
        # step moves the unit of mass one tensor level deeper
        t_zero = contraction_tuple(1, 1, seed=0, norm=0.0)
        dil = make_dilation(t_zero)
        assert dil.defect.rank == 1
        v = GradedVector(0, np.array([1.0]))
        for steps in range(1, 4):
            v = dil.apply(1, v)
            live = {w for w, x in v.fock.items() if np.linalg.norm(x) > 1e-14}
            assert live == {(1,) * (steps - 1)}
        assert np.linalg.norm(v.h) < 1e-14

    def test_unitary_has_trivial_dilation(self):
        t = OperatorTuple((np.array([[1j]]),))
        dil = make_dilation(t)
        assert dil.defect.rank == 0
        out = dil.apply(1, GradedVector(0, np.array([2.0])))
        assert out.h[0] == 2j
        assert all(x.size == 0 for x in out.fock.values())
