from dataclasses import dataclass

import numpy as np
import pytest
from conftest import SWEEP_SHAPES, defect_block

from ncscatter import linalg
from ncscatter.charfn import charfn_series
from ncscatter.lifting import generate, lifting_violations
from ncscatter.linalg import TOL_EQ, operator_norm
from ncscatter.rowtuple import OperatorTuple, defect
from ncscatter.words import enumerate_words

RT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class TupleKind:
    contraction: bool
    coisometric: bool
    row_isometry: bool


def classify(t: OperatorTuple, tol: float = TOL_EQ) -> TupleKind:
    """Oracle: the three row properties of the tuple within ``tol``, each
    from its own norm."""
    row = t.row()
    gram_out = row @ row.conj().T          # sum_j T_j T_j*
    eye = np.eye(t.dim)
    coiso = operator_norm(gram_out - eye) <= tol
    if coiso:
        contraction = True
    else:
        w = np.linalg.eigvalsh((gram_out + gram_out.conj().T) / 2.0)
        contraction = bool(w[-1] <= 1.0 + tol)
    iso_violation = 0.0
    for i in range(t.d):
        for j in range(t.d):
            target = eye if i == j else np.zeros_like(eye)
            iso_violation = max(
                iso_violation, operator_norm(t.ops[i].conj().T @ t.ops[j] - target)
            )
    return TupleKind(contraction, coiso, iso_violation <= tol)


def random_tuple(rng, d, n, scale=None):
    row = rng.standard_normal((n, d * n)) + 1j * rng.standard_normal((n, d * n))
    if scale is not None:
        row = row * (scale / operator_norm(row))
    return OperatorTuple(tuple(row[:, j * n : (j + 1) * n] for j in range(d)))


class TestOperatorTuple:
    def test_row_layout(self, coiso_pair):
        assert coiso_pair.row().shape == (1, 2)
        assert np.allclose(coiso_pair.row(), [[RT2, RT2]])

    def test_letter_access(self, coiso_pair):
        assert coiso_pair.op(1) is coiso_pair.ops[0]
        with pytest.raises(IndexError):
            coiso_pair.op(0)
        with pytest.raises(IndexError):
            coiso_pair.op(3)

    def test_ragged_shapes_rejected(self):
        with pytest.raises(ValueError):
            OperatorTuple((np.eye(2), np.eye(3)))

    def test_word_product_order(self):
        rng = np.random.default_rng(0)
        t = random_tuple(rng, 2, 3)
        expected = t.ops[0] @ t.ops[1] @ t.ops[0]
        assert np.allclose(t.word_product((1, 2, 1)), expected, atol=1e-13)
        assert np.allclose(t.word_product(()), np.eye(3))


class TestClassify:
    def test_balanced_pair_coisometric(self, coiso_pair):
        kind = classify(coiso_pair)
        assert kind.contraction and kind.coisometric and not kind.row_isometry

    def test_zero_tuple(self):
        zero = OperatorTuple((np.zeros((2, 2)), np.zeros((2, 2))))
        kind = classify(zero)
        assert kind.contraction and not kind.coisometric and not kind.row_isometry

    def test_not_contraction(self):
        kind = classify(OperatorTuple((np.eye(1), np.eye(1))))
        assert not kind.contraction

    def test_single_unitary_is_row_isometry(self):
        u = np.array([[0.6 + 0.8j]])
        kind = classify(OperatorTuple((u,)))
        assert kind.contraction and kind.coisometric and kind.row_isometry

    def test_truncated_creation_band(self):
        # truncated creation operators are isometric on the subspace of
        # words below the top level; check the Gram identity there
        from ncscatter.dilation import GradedSpace

        d, depth = 2, 2
        space = GradedSpace(d, depth, 0, 1)
        band = GradedSpace(d, depth - 1, 0, 1).dim
        mats = []
        for j in range(1, d + 1):
            m = np.zeros((space.dim, space.dim), dtype=complex)
            for w in enumerate_words(space.d, space.depth):
                if len(w) < depth:
                    m[space.slot((j,) + w), space.slot(w)] = 1.0
            mats.append(m)
        for i, mi in enumerate(mats):
            for j, mj in enumerate(mats):
                gram = (mi.conj().T @ mj)[:band, :band]
                target = np.eye(band) if i == j else np.zeros((band, band))
                assert np.allclose(gram, target, atol=1e-14)


class TestDefect:
    def test_balanced_pair_frozen_values(self, coiso_pair):
        dd = defect(coiso_pair)
        expected_d = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(dd.operator, expected_d, atol=1e-12)
        assert dd.rank == 1
        assert np.allclose(dd.basis, np.array([[RT2], [-RT2]]), atol=1e-12)
        # slot components in basis coordinates
        assert np.allclose(defect_block(coiso_pair, 1), [[RT2]], atol=1e-12)
        assert np.allclose(defect_block(coiso_pair, 2), [[-RT2]], atol=1e-12)

    def test_sqrt_identity(self):
        rng = np.random.default_rng(1)
        t = random_tuple(rng, 3, 2, scale=0.8)
        dd = defect(t)
        row = t.row()
        assert (
            operator_norm(dd.operator @ dd.operator - (np.eye(6) - row.conj().T @ row))
            < 1e-10
        )

    def test_row_isometry_zero_defect(self):
        u = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
        dd = defect(OperatorTuple((u,)))
        assert dd.rank == 0
        assert operator_norm(dd.operator) == 0.0

    def test_single_zero_op(self):
        dd = defect(OperatorTuple((np.zeros((1, 1)),)))
        assert dd.rank == 1
        assert np.allclose(dd.operator, np.eye(1))

    def test_block_identity(self):
        rng = np.random.default_rng(3)
        for d, n in [(2, 2), (3, 1), (2, 3)]:
            t = random_tuple(rng, d, n, scale=0.9)
            dd = defect(t)
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    # the basis spans the range of D, so the coordinate
                    # blocks have the Gram of the ambient blocks D_j
                    lhs = defect_block(t, i).conj().T @ defect_block(t, j)
                    rhs = -t.op(i).conj().T @ t.op(j)
                    if i == j:
                        rhs = rhs + np.eye(n)
                    assert operator_norm(lhs - rhs) < 1e-10

    def test_coisometric_defect_is_projection(self, coiso_pair):
        dd = defect(coiso_pair)
        assert operator_norm(dd.operator @ dd.operator - dd.operator) < 1e-12

    def test_not_contraction_is_clamped(self):
        # I - row* row = [[0, -I], [-I, 0]] has eigenvalues 1 and -1; the
        # -1 eigenspace is dropped and the root is the projection on the other
        dd = defect(OperatorTuple((np.eye(2), np.eye(2))))
        eye = np.eye(2)
        assert dd.rank == 2
        assert np.allclose(dd.operator, np.block([[eye, -eye], [-eye, eye]]) / 2, atol=1e-14)

    def test_basis_spans_range(self):
        rng = np.random.default_rng(4)
        t = random_tuple(rng, 2, 3, scale=0.95)
        dd = defect(t)
        q = dd.basis
        assert operator_norm(q.conj().T @ q - np.eye(dd.rank)) < 1e-12
        assert operator_norm(q @ (q.conj().T @ dd.operator) - dd.operator) < 1e-10


class TestOwnedDefects:
    """A tuple roots its defect and star defect once, on first read."""

    def test_defect_is_cached_and_equals_the_function(self):
        t = random_tuple(np.random.default_rng(5), 2, 2, scale=0.9)
        dd = t.defect
        assert t.defect is dd
        fresh = defect(t)
        for x, y in ((dd.operator, fresh.operator), (dd.basis, fresh.basis), (dd.spectrum, fresh.spectrum)):
            assert np.array_equal(x, y)

    def test_star_defect_roots_the_other_gram(self):
        t = random_tuple(np.random.default_rng(6), 3, 2, scale=0.8)
        ds = t.star_defect
        assert t.star_defect is ds
        row = t.row()
        gram = np.eye(2) - row @ row.conj().T
        assert operator_norm(ds.operator @ ds.operator - gram) < 1e-12
        assert ds.rank == 2 and ds.basis.shape == (2, 2)
        assert np.allclose(ds.spectrum, np.linalg.eigvalsh(gram), atol=1e-14)


class TestDefectCoordinates:
    """A defect makes its coordinates ``Q* D`` and kernel basis once."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", SWEEP_SHAPES)
    def test_made_once_and_equal_to_the_products(self, monkeypatch, shape, seed):
        inst = generate(*shape, seed=seed)
        owned = (inst.c.defect, inst.e.defect, inst.a.star_defect)
        first = [(dd.coords, dd.kernel) for dd in owned]
        made = []
        complement = linalg.complement_onb
        monkeypatch.setattr(linalg, "complement_onb", lambda q: made.append(q) or complement(q))
        lifting_violations(inst)
        charfn_series(inst, 1)
        assert made == []
        for dd, (coords, kernel) in zip(owned, first):
            assert dd.coords is coords and dd.kernel is kernel
            want = ((coords, dd.basis.conj().T @ dd.operator), (kernel, complement(dd.basis)))
            for got, hand in want:
                assert got.shape == hand.shape and got.tobytes() == hand.tobytes()
            assert kernel.shape == (dd.basis.shape[0], dd.basis.shape[0] - dd.rank)
