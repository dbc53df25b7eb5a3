import numpy as np
import pytest
from conftest import SWEEP_SHAPES, defect_block

from ncscatter.lifting import generate
from ncscatter.linalg import operator_norm
from ncscatter.transfer import (
    Colligation,
    DimMismatch,
    NCSeries,
    build_colligation,
    colligation_violation,
    multi_analyticity_violation,
    random_series,
    right_translate,
    series_multiply,
    toeplitz_matrix,
    transfer_coefficient,
    transfer_norm,
    transfer_series,
)
from ncscatter.words import enumerate_words, level_start

SWEEP = [
    generate(2, 2, 2, seed=42),
    generate(2, 1, 1, seed=3),
    generate(3, 2, 1, seed=8),
    generate(2, 2, 0, seed=7),
    generate(2, 2, 2, seed=11, a_scale=0.0),
]


def scalar_series(d, depth, values):
    """A 1x1 series that is zero off the words of ``values``."""
    series = NCSeries(d, depth, np.zeros((level_start(d, depth + 1), 1, 1), dtype=np.complex128))
    for w, v in values.items():
        series.coeff(w)[0, 0] = v
    return series


class TestColligation:
    def test_hand_output_map(self, hand_instance):
        coll = build_colligation(hand_instance)
        assert np.allclose(coll.output_map, [[0.0, 1.0]], atol=1e-14)
        assert np.allclose(coll.feedthrough, np.zeros((1, 2)), atol=1e-14)

    def test_dimensions(self, plain_instance):
        coll = build_colligation(plain_instance)
        assert coll.d == plain_instance.d
        assert coll.state_dim == plain_instance.dim_e
        assert coll.in_dim == plain_instance.rank_e
        assert coll.out_dim == plain_instance.rank_c

    def test_coisometry_identities(self):
        # the output rows; the state and input rows are the lifted U_j*
        # (see the test below), whose Gram verify's dilation rows measure
        for inst in SWEEP:
            assert colligation_violation(build_colligation(inst)) < 1e-10

    @pytest.mark.parametrize("shape", SWEEP_SHAPES + ((3, 2, 2), (2, 1, 1)))
    def test_state_and_input_blocks_are_the_letter_adjoints(self, shape):
        # read off the lifted U*: views of it with the same bits as the
        # adjoints of E_j and of its defect coordinate blocks
        for seed in range(3):
            inst = generate(*shape, seed=seed)
            coll = build_colligation(inst)
            for j in range(1, inst.d + 1):
                for got, op in (
                    (coll.state_ops[j - 1], inst.e.ops[j - 1]),
                    (coll.input_ops[j - 1], defect_block(inst.e, j)),
                ):
                    want = op.conj().T
                    assert got.shape == want.shape
                    assert got.size == 0 or np.shares_memory(got, inst.dilation_e.stage_adjoint)
                    assert got.tobytes() == want.tobytes()

    def test_output_map_kills_base_space(self):
        for inst in SWEEP:
            coll = build_colligation(inst)
            assert operator_norm(coll.output_map[:, : inst.dim_c]) < 1e-12

    def test_shape_validation(self):
        eye = np.eye(2, dtype=np.complex128)
        with pytest.raises(DimMismatch):
            Colligation((eye,), (np.zeros((3, 1)),), np.zeros((1, 2)), np.zeros((1, 1)))
        with pytest.raises(DimMismatch):
            Colligation((eye,), (np.zeros((2, 1)),), np.zeros((1, 3)), np.zeros((1, 1)))
        with pytest.raises(DimMismatch):
            Colligation(
                (eye, eye), (np.zeros((2, 1)),), np.zeros((1, 2)), np.zeros((1, 1))
            )


class TestTransferCoefficients:
    def test_hand_values(self, hand_instance):
        coll = build_colligation(hand_instance)
        for j in (1, 2):
            assert np.linalg.norm(transfer_coefficient(coll, (j,))) == pytest.approx(1.0)
        for w in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 2, 1)]:
            assert np.linalg.norm(transfer_coefficient(coll, w)) < 1e-14

    def test_empty_word_is_feedthrough(self, plain_instance):
        coll = build_colligation(plain_instance)
        assert np.array_equal(transfer_coefficient(coll, ()), coll.feedthrough)

    def test_series_matches_single_coefficients(self, plain_instance):
        coll = build_colligation(plain_instance)
        series = transfer_series(coll, 3)
        assert series.depth == 3
        for w in series:
            assert np.allclose(series[w], transfer_coefficient(coll, w), atol=1e-13)

    def test_no_corner_series_is_constant_identity(self, no_corner_instance):
        coll = build_colligation(no_corner_instance)
        series = transfer_series(coll, 2)
        assert np.allclose(series.coeff(()), np.eye(coll.out_dim), atol=1e-12)
        for w, m in series.items():
            if w:
                assert operator_norm(m) < 1e-12


class TestNCSeries:
    def test_graded_lex_mapping(self):
        s = random_series(2, 3, 2, 1, seed=0)
        assert list(s) == [(), (1,), (2,)] and len(s) == 3
        assert s.out_dim == 2 and s.in_dim == 3
        assert np.array_equal(s[(2,)], s.coeffs[2])
        assert np.array_equal(s.level(1), s.coeffs[1:])

    def test_coeff_outside_the_words_raises(self):
        s = random_series(1, 1, 2, 2, 0)
        with pytest.raises(KeyError):
            s.coeff((1, 1, 1, 1))
        with pytest.raises(KeyError):
            s.coeff((3,))
        assert (1, 1, 1, 1) not in s and (2, 1) in s

    def test_shape_validation(self):
        with pytest.raises(DimMismatch):
            NCSeries(2, 1, np.zeros((2, 1, 1)))
        with pytest.raises(DimMismatch):
            NCSeries(2, 1, np.zeros((3, 1)))

    def test_depth_validation(self):
        with pytest.raises(DimMismatch):
            NCSeries(1, -1, np.zeros((0, 1, 1)))
        with pytest.raises(DimMismatch):
            NCSeries(0, 1, np.zeros((1, 1, 1)))

    @pytest.mark.parametrize("depth", [-1, -2, -5])
    def test_random_series_refuses_a_negative_depth(self, depth):
        with pytest.raises(DimMismatch, match=f"no words over 2 letters up to depth {depth}"):
            random_series(1, 1, 2, depth, 0)


class TestSeriesMultiply:
    def test_hand_convolution(self):
        left = scalar_series(2, 2, {(): 2.0, (1,): 3.0})
        right = scalar_series(2, 2, {(): 5.0, (2,): 7.0})
        prod = series_multiply(left, right)
        assert prod.coeff(())[0, 0] == 10.0
        assert prod.coeff((1,))[0, 0] == 15.0
        assert prod.coeff((2,))[0, 0] == 14.0
        # order matters: the (1,2) word gets 3*7, the (2,1) word nothing
        assert prod.coeff((1, 2))[0, 0] == 21.0
        assert prod.coeff((2, 1))[0, 0] == 0.0

    def test_associative(self):
        a = random_series(2, 3, 2, 2, seed=1)
        b = random_series(3, 2, 2, 2, seed=2)
        c = random_series(2, 1, 2, 2, seed=3)
        left = series_multiply(series_multiply(a, b), c)
        right = series_multiply(a, series_multiply(b, c))
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            series_multiply(random_series(2, 3, 2, 1, 0), random_series(2, 1, 2, 1, 0))
        with pytest.raises(DimMismatch):
            series_multiply(random_series(2, 3, 2, 1, 0), random_series(3, 1, 3, 1, 0))

    def test_depth_cap(self):
        a = random_series(1, 1, 2, 3, seed=4)
        b = random_series(1, 1, 2, 1, seed=5)
        assert series_multiply(a, b).depth == 1
        assert series_multiply(b, a).depth == 1


class TestTranslate:
    def test_appends_letter(self):
        s = scalar_series(2, 1, {(): 1.0, (2,): 4.0})
        t = right_translate(s, 1)
        assert t.depth == 2
        assert {w for w, m in t.items() if m.any()} == {(1,), (2, 1)}
        assert t.coeff((2, 1))[0, 0] == 4.0


class TestToeplitz:
    def test_frozen_structure(self):
        s = scalar_series(2, 1, {(): 1.0, (1,): 2.0, (2,): 3.0})
        m = toeplitz_matrix(s, 1)
        want = np.array([[1, 0, 0], [2, 1, 0], [3, 0, 1]], dtype=complex)
        assert np.array_equal(m, want)

    def test_action_matches_convolution(self):
        theta = random_series(2, 3, 2, 2, seed=6)
        sig = random_series(3, 1, 2, 2, seed=7)
        prod = series_multiply(theta, sig)
        m = toeplitz_matrix(theta, 2)
        words = enumerate_words(2, 2)
        stacked = np.vstack([sig.coeff(w) for w in words])
        got = m @ stacked
        want = np.vstack([prod.coeff(w) for w in words])
        assert np.allclose(got, want, atol=1e-12)

    def test_depth_guard(self):
        s = scalar_series(2, 1, {(): 1.0})
        with pytest.raises(DimMismatch):
            toeplitz_matrix(s, 2)


def toeplitz_norm(inst, depth):
    return transfer_norm(transfer_series(build_colligation(inst), depth))


class TestTransferNorm:
    def test_contraction_across_sweep(self):
        for inst in SWEEP:
            assert toeplitz_norm(inst, 2) <= 1.0 + 1e-8

    def test_exactly_one_without_corner(self, no_corner_instance):
        assert abs(toeplitz_norm(no_corner_instance, 2) - 1.0) < 1e-10

    def test_deeper_truncation_still_contractive(self, plain_instance):
        assert toeplitz_norm(plain_instance, 4) <= 1.0 + 1e-8


class TestMultiAnalytic:
    def test_transfer_action_commutes_with_right_shift(self, plain_instance):
        coll = build_colligation(plain_instance)
        theta = transfer_series(coll, 3)
        sig = random_series(coll.in_dim, 1, plain_instance.d, 2, seed=9)
        out = series_multiply(theta, sig)
        for letter in (1, 2):
            assert multi_analyticity_violation(theta, sig, out, letter) < 1e-12

    def test_generic_series_commute_too(self):
        theta = random_series(2, 2, 2, 3, seed=10)
        sig = random_series(2, 1, 2, 2, seed=11)
        assert multi_analyticity_violation(theta, sig, series_multiply(theta, sig), 2) < 1e-12

    def test_a_wrong_convolution_shows(self):
        theta = random_series(2, 2, 2, 3, seed=10)
        sig = random_series(2, 1, 2, 2, seed=11)
        out = series_multiply(theta, sig)
        out.coeffs[-1, 0, 0] += 1e-6
        assert multi_analyticity_violation(theta, sig, out, 1) > 1e-7
