import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncscatter import linalg
from ncscatter.linalg import (
    DimensionError,
    NotHermitian,
    NotPSD,
    clamped_sqrt,
    hermitian_sqrt,
    operator_norm,
    principal_angles,
    pseudo_inverse,
    random_isometry,
    range_onb,
)

PROJ = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestHermitianSqrt:
    def test_identity(self):
        assert np.allclose(hermitian_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        s = hermitian_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(s, np.diag([2.0, 3.0]), atol=1e-14)

    def test_projection_is_own_root(self):
        # oracle: PROJ is idempotent, so it equals its own square root
        assert np.allclose(PROJ @ PROJ, PROJ, atol=1e-15)
        assert np.allclose(hermitian_sqrt(PROJ), PROJ, atol=1e-12)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            hermitian_sqrt(np.diag([1.0, -1.0]))

    def test_small_negative_eigenvalues_clamped(self):
        m = np.diag([1.0, -1e-14]).astype(complex)
        s = hermitian_sqrt(m, tol=1e-10)
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-7)

    def test_floor_scale_zeroes_noise(self):
        noise = np.array([[1e-16, 2e-17], [2e-17, -1e-16]], dtype=complex)
        s = hermitian_sqrt(noise, floor_scale=1.0)
        assert np.all(s == 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_square_recovers_psd_input(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n, n)
        m = a.conj().T @ a
        s = hermitian_sqrt(m)
        assert operator_norm(s - s.conj().T) < 1e-12 * max(1.0, operator_norm(m))
        assert operator_norm(s @ s - m) < 1e-10 * max(1.0, operator_norm(m))

    def test_empty(self):
        assert hermitian_sqrt(np.zeros((0, 0))).shape == (0, 0)


class TestClampedSqrt:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_checked_root_on_psd_input(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, 4, 3)
        m = a @ a.conj().T / operator_norm(a) ** 2  # rank 3, scale 1
        want = hermitian_sqrt(m, floor_scale=1.0)
        assert np.array_equal(clamped_sqrt(m), want)

    def test_zeroes_negative_eigenvalues(self):
        q = random_isometry(3, 3, 4)
        m = q @ np.diag([0.25, -0.5, -1e-3]) @ q.conj().T
        with pytest.raises(NotPSD):
            hermitian_sqrt(m, floor_scale=1.0)
        s = clamped_sqrt(m)
        assert operator_norm(s - 0.5 * np.outer(q[:, 0], q[:, 0].conj())) < 1e-14


class TestRangeOnb:
    def test_zero_matrix(self):
        assert range_onb(np.zeros((3, 3))).shape == (3, 0)

    def test_projection_column(self):
        q = range_onb(PROJ)
        expected = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        assert q.shape == (2, 1)
        assert np.allclose(q, expected, atol=1e-12)

    def test_identity_full_rank(self):
        q = range_onb(np.eye(2))
        assert q.shape == (2, 2)
        assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)

    def test_phase_convention(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 5, 3)
        q = range_onb(m)
        for k in range(q.shape[1]):
            col = q[:, k]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(first.imag) < 1e-12 and first.real > 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    def test_spans_column_space(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rows, cols)
        q = range_onb(m)
        assert operator_norm(q.conj().T @ q - np.eye(q.shape[1])) < 1e-12
        assert operator_norm(q @ (q.conj().T @ m) - m) < 1e-10 * operator_norm(m)


class TestComplementOnb:
    def test_full_frame_has_empty_complement(self):
        q = random_isometry(4, 4, 3)
        assert linalg.complement_onb(q).shape == (4, 0)

    def test_partial_frame(self):
        q = random_isometry(5, 2, 9)
        comp = linalg.complement_onb(q)
        assert comp.shape == (5, 3)
        assert operator_norm(comp.conj().T @ comp - np.eye(3)) < 1e-12
        assert operator_norm(q.conj().T @ comp) < 1e-12

    def test_empty_frame_gives_identity_sized_basis(self):
        comp = linalg.complement_onb(np.zeros((3, 0), dtype=complex))
        assert comp.shape == (3, 3)
        assert operator_norm(comp.conj().T @ comp - np.eye(3)) < 1e-12

    def test_unit_columns_split_off_exactly(self):
        # unit columns of q give zero rows of the projector; the
        # complement must match the dense decomposition's subspace
        rng = np.random.default_rng(4)
        q = np.zeros((9, 5), dtype=np.complex128)
        q[[0, 3, 4, 7], :3] = random_isometry(4, 3, rng)
        q[2, 3] = q[8, 4] = 1.0
        comp = linalg.complement_onb(q)
        p = np.eye(9) - q @ q.conj().T
        w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
        dense = v[:, w > 0.5]
        assert comp.shape == dense.shape == (9, 4)
        assert np.all(comp[[2, 8]] == 0)
        assert operator_norm(comp @ comp.conj().T - dense @ dense.conj().T) < 1e-14

    def test_noise_perturbed_full_frame_stays_empty(self):
        # a relative singular-value cutoff on I - q q* would keep noise
        # directions here; the eigenvalue threshold must not
        rng = np.random.default_rng(12)
        q = random_isometry(4, 4, rng)
        q = q + 1e-15 * random_matrix(rng, 4, 4)
        assert linalg.complement_onb(q).shape == (4, 0)


class TestRandomIsometry:
    def test_isometry_property(self):
        v = random_isometry(4, 2, 7)
        assert operator_norm(v.conj().T @ v - np.eye(2)) < 1e-12

    def test_square_is_unitary(self):
        u = random_isometry(3, 3, 11)
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10

    def test_deterministic(self):
        assert np.array_equal(random_isometry(5, 3, 42), random_isometry(5, 3, 42))
        assert not np.allclose(random_isometry(5, 3, 42), random_isometry(5, 3, 43))

    def test_too_many_columns(self):
        with pytest.raises(DimensionError):
            random_isometry(1, 2, 0)

    def test_zero_columns(self):
        assert random_isometry(3, 0, 0).shape == (3, 0)


class TestOperatorNorm:
    def test_values(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
        assert operator_norm(np.diag([2.0, 3.0])) == pytest.approx(3.0, abs=1e-12)
        assert operator_norm(PROJ) == pytest.approx(1.0, abs=1e-10)
        assert operator_norm(np.zeros((0, 3))) == 0.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 4, 4)
        u = random_isometry(4, 4, 1)
        v = random_isometry(4, 4, 2)
        assert operator_norm(u @ m @ v) == pytest.approx(operator_norm(m), rel=1e-9)

    # the dense norm of the parent implementation is the oracle
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9))
    def test_bit_equal_to_dense_norm_without_zero_lines(self, seed, rows, cols):
        m = random_matrix(np.random.default_rng(seed), rows, cols)
        assert operator_norm(m) == np.linalg.norm(m, 2)
        assert operator_norm(m.conj().T) == np.linalg.norm(m.conj().T, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_zero_padded_block_within_rounding(self, seed, rows, cols):
        # the dense reference rounds differently on the padded input: up
        # to 8 ulps apart was seen on 12-wide blocks, inside LAPACK's
        # O(n eps) relative bound, so allow 4 ulps per block dimension
        rng = np.random.default_rng(seed)
        big = np.zeros((rows + 7, cols + 5), dtype=np.complex128)
        keep_rows = np.sort(rng.choice(rows + 7, rows, replace=False))
        keep_cols = np.sort(rng.choice(cols + 5, cols, replace=False))
        big[np.ix_(keep_rows, keep_cols)] = random_matrix(rng, rows, cols)
        want = np.linalg.norm(big, 2)
        assert abs(operator_norm(big) - want) <= 4 * max(rows, cols) * np.spacing(want)

    def test_empty_and_zero(self):
        for shape in [(0, 0), (0, 3), (3, 0), (4, 5)]:
            assert operator_norm(np.zeros(shape, dtype=complex)) == 0.0

    def test_nonfinite_entries_are_kept(self):
        m = np.ones((3, 4), dtype=complex)
        m[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            operator_norm(m)
        m[1, 2] = np.inf
        assert np.isnan(operator_norm(m))

    def test_vector_input_rejected(self):
        with pytest.raises(DimensionError):
            operator_norm(np.ones(3))


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_singular_diagonal(self):
        p = pseudo_inverse(np.diag([2.0, 0.0]).astype(complex))
        assert np.allclose(p, np.diag([0.5, 0.0]), atol=1e-12)

    def test_projection(self):
        assert np.allclose(pseudo_inverse(PROJ), PROJ, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    def test_penrose_identities(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, rows, cols)
        p = pseudo_inverse(m)
        scale = 1e-10 * max(1.0, operator_norm(m) * operator_norm(p))
        assert operator_norm(m @ p @ m - m) < scale
        assert operator_norm(p @ m @ p - p) < scale
        assert operator_norm((m @ p).conj().T - m @ p) < scale
        assert operator_norm((p @ m).conj().T - p @ m) < scale


class TestPrincipalAngles:
    def test_same_space(self):
        q = random_isometry(6, 2, 9)
        assert np.max(principal_angles(q, q)) < 1e-12

    def test_orthogonal_spaces(self):
        q1 = np.eye(4)[:, :2].astype(complex)
        q2 = np.eye(4)[:, 2:].astype(complex)
        assert np.min(principal_angles(q1, q2)) > np.pi / 2 - 1e-12

    def test_rotated_basis_same_span(self):
        q = random_isometry(6, 3, 4)
        u = random_isometry(3, 3, 5)
        assert np.max(principal_angles(q, q @ u)) < 1e-12
