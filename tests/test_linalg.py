import math

import numpy as np
import pytest
from conftest import RT2, SWEEP_SHAPES, dense_letter, table_letter
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncscatter import linalg
from ncscatter.lifting import generate
from ncscatter.linalg import (
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


def dense_complement(q):
    """Oracle: eigenvectors of eigenvalue > 1/2 of the full projector I - q q*."""
    p = np.eye(q.shape[0]) - q @ q.conj().T
    w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
    return v[:, w > 0.5]


class TestHermitianSqrt:
    def test_identity(self):
        assert np.allclose(hermitian_sqrt(np.eye(3))[0], np.eye(3), atol=1e-14)

    def test_diagonal(self):
        s = hermitian_sqrt(np.diag([4.0, 9.0]).astype(complex))[0]
        assert np.allclose(s, np.diag([2.0, 3.0]), atol=1e-14)

    def test_projection_is_own_root(self):
        # oracle: PROJ is idempotent, so it equals its own square root
        assert np.allclose(PROJ @ PROJ, PROJ, atol=1e-15)
        assert np.allclose(hermitian_sqrt(PROJ)[0], PROJ, atol=1e-12)

    def test_small_negative_eigenvalues_clamped(self):
        m = np.diag([1.0, -1e-14]).astype(complex)
        s = hermitian_sqrt(m)[0]
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-7)

    def test_floor_scale_zeroes_noise(self):
        noise = np.array([[1e-16, 2e-17], [2e-17, -1e-16]], dtype=complex)
        s = hermitian_sqrt(noise)[0]
        assert np.all(s == 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_square_recovers_psd_input(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n, n)
        m = a.conj().T @ a
        s = hermitian_sqrt(m)[0]
        assert operator_norm(s - s.conj().T) < 1e-12 * max(1.0, operator_norm(m))
        assert operator_norm(s @ s - m) < 1e-10 * max(1.0, operator_norm(m))

    def test_empty(self):
        assert hermitian_sqrt(np.zeros((0, 0)))[0].shape == (0, 0)

    def test_spectrum_is_read_before_the_cut(self):
        # the eigenvalues of the Hermitian part come back ascending, the
        # ones the root zeroes included
        q = random_isometry(3, 3, 7)
        m = q @ np.diag([0.5, 4e-9, -1e-3]) @ q.conj().T
        s, w = hermitian_sqrt(m)
        assert np.allclose(w, [-1e-3, 4e-9, 0.5], rtol=0, atol=1e-15)
        assert np.linalg.matrix_rank(s, tol=1e-6) == 2


class TestClampedSqrt:
    # hermitian_sqrt zeroes every eigenvalue at or below TOL_RANK and
    # refuses nothing

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_checked_root_on_psd_input(self, seed):
        # the root squares back to m, and the zero eigenvalue of m stays
        # exactly zero instead of a sqrt(eps)-sized one
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, 4, 3)
        m = a @ a.conj().T / operator_norm(a) ** 2  # rank 3, scale 1
        s = hermitian_sqrt(m)[0]
        assert np.array_equal(s, s.conj().T)
        assert operator_norm(s @ s - m) < 1e-14
        assert np.linalg.matrix_rank(s, tol=1e-12) == 3

    def test_zeroes_negative_eigenvalues(self):
        q = random_isometry(3, 3, 4)
        m = q @ np.diag([0.25, -0.5, -1e-3]) @ q.conj().T
        s = hermitian_sqrt(m)[0]
        assert operator_norm(s - 0.5 * np.outer(q[:, 0], q[:, 0].conj())) < 1e-14

    def test_root_of_the_hermitian_part(self):
        # the Hermitian part [[1, 1], [1, 1]] is 2 P, P the projector on (1, 1)
        m = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        assert np.allclose(hermitian_sqrt(m)[0], np.full((2, 2), RT2), atol=1e-15)


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
        dense = dense_complement(q)
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


class TestUnitSplit:
    # a dilation letter splits into its stage block on the base columns
    # and unit columns elsewhere, as do the isometries complement_onb takes

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 4))
    def test_complement_matches_dense(self, seed, dense_cols, units):
        # an isometry with planted unit columns on rows it does not use
        rng = np.random.default_rng(seed)
        rows = dense_cols + units + int(rng.integers(0, 3))
        q = np.zeros((rows, dense_cols + units), dtype=np.complex128)
        order = rng.permutation(rows)
        q[order[:dense_cols], :dense_cols] = random_isometry(dense_cols, dense_cols, rng)
        q[order[dense_cols : dense_cols + units], np.arange(dense_cols, q.shape[1])] = 1.0
        q = q[:, rng.permutation(q.shape[1])]
        got, want = linalg.complement_onb(q), dense_complement(q)
        assert got.shape == want.shape
        assert operator_norm(got @ got.conj().T - want @ want.conj().T) < 1e-14

    @pytest.mark.parametrize("shape", SWEEP_SHAPES + ((3, 2, 2),))
    def test_letters_of_a_dilation_row_match_single_letter_splits(self, shape):
        # every letter rebuilt from the stage block and the row table is
        # V_j on the identity, entry for entry; (1, 2, 0) has rank 0 and an
        # empty table, (2, 2, 0) has dimA = 0, and at a_scale 0 the lifted
        # letters have exact unit base columns, which stay in the stage
        # block.  The table entries are distinct and miss the n + r base
        # and vacuum rows, so the row's residuals are those of the stage block
        for a_scale in (0.0, 0.9, 1.0):
            inst = generate(*shape, seed=2, a_scale=a_scale)
            for dil in (inst.dilation_c, inst.dilation_e):
                for depth in range(5):
                    table = dil.matrix(depth)
                    assert table.shape == (dil.d, dil.space(depth).dim - dil.t.dim)
                    assert np.unique(table).size == table.size
                    assert np.all(table >= dil.stage.shape[0])
                    for j in range(1, dil.d + 1):
                        want = dense_letter(dil, j, depth)
                        assert np.array_equal(table_letter(dil, j, depth), want)


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

    def test_zero_columns(self):
        assert random_isometry(3, 0, 0).shape == (3, 0)


class TestWorst:
    def test_nan_is_the_worst_anywhere(self):
        assert math.isnan(linalg.worst([0.1, math.nan, 0.2]))
        assert math.isnan(linalg.worst(iter([math.nan, 0.3])))

    def test_finite_values_as_max_gives_them(self):
        values = [np.float64(3e-16), 1e-12, 2.5e-13]
        assert linalg.worst(values) == max(values) and linalg.worst([]) == 0.0
        assert linalg.worst([math.inf, 1.0]) == math.inf


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

    # the dense norm of the tall orientation is the oracle
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9))
    def test_bit_equal_to_dense_norm_without_zero_lines(self, seed, rows, cols):
        m = random_matrix(np.random.default_rng(seed), rows, cols)
        for a in (m, m.conj().T):
            tall = a if a.shape[0] >= a.shape[1] else a.T
            assert operator_norm(a) == np.linalg.norm(tall, 2)

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


def hermitian_matrix(rng, n):
    a = random_matrix(rng, n, n)
    return a + a.conj().T


def zero_padded(rng, block, rows, cols):
    """``block`` scattered into a zero matrix on sorted random lines."""
    big = np.zeros((rows, cols), dtype=np.complex128)
    keep_rows = np.sort(rng.choice(rows, block.shape[0], replace=False))
    keep_cols = np.sort(rng.choice(cols, block.shape[1], replace=False))
    big[np.ix_(keep_rows, keep_cols)] = block
    return big, keep_rows, keep_cols


class TestHermitianNorm:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9))
    def test_bit_equal_to_largest_absolute_eigenvalue(self, seed, n):
        m = hermitian_matrix(np.random.default_rng(seed), n)
        assert np.array_equal(m, m.conj().T)
        assert linalg.hermitian_norm(m) == np.abs(np.linalg.eigvalsh(m)).max()
        assert linalg.hermitian_norm(-m) == np.abs(np.linalg.eigvalsh(-m)).max()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_operator_norm_of_the_mirrored_matrix(self, seed, n):
        # independent definition: the largest singular value of the whole matrix
        m = hermitian_matrix(np.random.default_rng(seed), n)
        want = operator_norm(m)
        bound = 4 * n * np.finfo(float).eps * want
        assert abs(linalg.hermitian_norm(np.tril(m)) - want) <= bound

    @pytest.mark.parametrize("seed", range(5))
    def test_strict_upper_triangle_never_read(self, seed):
        # zero lines in the lower triangle, garbage (NaN and inf too) above it
        rng = np.random.default_rng(seed)
        block = hermitian_matrix(rng, 4)
        mirrored = np.zeros((9, 9), dtype=np.complex128)
        keep = np.sort(rng.choice(9, 4, replace=False))
        mirrored[np.ix_(keep, keep)] = block
        garbage = np.tril(mirrored) + np.triu(random_matrix(rng, 9, 9), 1)
        garbage[0, -1], garbage[1, -2] = np.nan, np.inf
        want = np.abs(np.linalg.eigvalsh(mirrored)).max()
        assert linalg.hermitian_norm(garbage) == linalg.hermitian_norm(mirrored) == want

    def test_nonfinite_entries(self):
        # eigvalsh alone returns [0, -0, 1] for a NaN at (0, 0) and NaNs for one at (2, 1)
        for entry in [(0, 0), (2, 1)]:
            m = np.eye(3, dtype=complex)
            m[entry] = np.nan
            with pytest.raises(np.linalg.LinAlgError):
                linalg.hermitian_norm(m)

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_lines_add_nothing(self, seed):
        # no support cut: the zero lines reach eigvalsh and move only rounding
        rng = np.random.default_rng(seed)
        block = hermitian_matrix(rng, 4)
        big = np.zeros((9, 9), dtype=np.complex128)
        keep = np.sort(rng.choice(9, 4, replace=False))
        big[np.ix_(keep, keep)] = block
        want = np.abs(np.linalg.eigvalsh(block)).max()
        assert abs(linalg.hermitian_norm(big) - want) <= 36 * np.finfo(float).eps * want

    def test_empty_and_zero(self):
        for n in (0, 3):
            assert linalg.hermitian_norm(np.zeros((n, n), dtype=complex)) == 0.0


class TestStackNorm:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4), st.integers(1, 4))
    def test_bit_equal_to_dense_without_zero_matrices(self, seed, k, rows, cols):
        stack = random_matrix(np.random.default_rng(seed), k * rows, cols).reshape(k, rows, cols)
        want = np.linalg.svd(stack, compute_uv=False).max()
        assert linalg.stack_norm(stack) == want

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2), (3, 2, 2)])
    def test_all_zero_stack(self, shape):
        assert linalg.stack_norm(np.zeros(shape, dtype=complex)) == 0.0

    def test_zero_matrices_skipped(self):
        rng = np.random.default_rng(8)
        stack = np.zeros((6, 3, 2), dtype=np.complex128)
        stack[[1, 4]] = random_matrix(rng, 6, 2).reshape(2, 3, 2)
        want = np.linalg.svd(stack[[1, 4]], compute_uv=False).max()
        assert linalg.stack_norm(stack) == want

    @settings(max_examples=200, deadline=None)
    # SVDs round subnormal norms onto a coarse grid: a cut there keeps the wrong copy
    @example(seed=15, shape=(1, 4), kinds=["subnormal", "tie"], bad=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (4, 4)]),
        st.lists(
            st.sampled_from(["plain", "zero", "copy", "tie", "tiny", "huge", "vast", "subnormal"]),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    def test_frobenius_cut_keeps_the_batched_max(self, seed, shape, kinds, bad):
        # the uncut oracle: one batched SVD of the whole stack, as hex
        def bits(norm, stack):
            try:
                return float(norm(stack)).hex()
            except np.linalg.LinAlgError:
                return "LinAlgError"

        rng = np.random.default_rng(seed)
        stack = np.zeros((len(kinds), *shape), dtype=np.complex128)
        scale = {"plain": 1.0, "zero": 0.0, "tiny": 1e-300, "huge": 1e160, "vast": 1e300,
                 "subnormal": 1e-320}  # fmt: skip
        for k, kind in enumerate(kinds):
            if kind == "copy":  # an earlier matrix, or zero
                stack[k] = stack[rng.integers(k + 1)]
            elif kind == "tie":  # a phase times an earlier matrix: the same norms to rounding
                stack[k] = np.exp(1j * rng.uniform(0, 2 * np.pi)) * stack[rng.integers(k + 1)]
            else:
                stack[k] = scale[kind] * random_matrix(rng, *shape)
        if bad is not None:
            stack[rng.integers(len(kinds)), 0, -1] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            want = bits(lambda m: np.linalg.svd(m, compute_uv=False).max(), stack)
            assert bits(linalg.stack_norm, stack) == want

    def test_frobenius_cut_decomposes_few_matrices(self, monkeypatch):
        # ||B|| >= ||B||_F / sqrt(2) on 2 x 2 blocks: one block of norm 1
        # against many of Frobenius norm 0.5 leaves just that block
        stack = np.zeros((50, 2, 2), dtype=np.complex128)
        stack[:, 0, 0] = 0.5
        stack[7] = np.diag([1.0, 0.25])
        sizes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: sizes.append(len(m)) or svd(m, **kw))
        assert linalg.stack_norm(stack) == 1.0
        assert sizes == [1]

    def test_tiny_and_nan_entries_keep_their_matrix(self):
        stack = np.zeros((3, 2, 2), dtype=np.complex128)
        stack[1, 0, 1] = 1e-300
        assert linalg.stack_norm(stack) == np.linalg.norm(stack[1], 2) > 0.0
        stack[2, 1, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            linalg.stack_norm(stack)


@st.composite
def arrow(draw):
    """A sparse arrow: most rows on a few shared columns, some dense rows,
    some on their own columns, and zero rows, shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = draw(st.integers(1, 8))
    shared = rng.choice(cols, draw(st.integers(1, cols)), replace=False)
    pieces = [np.zeros((draw(st.integers(0, 3)), cols), dtype=np.complex128)]
    for support in (shared, np.arange(cols), rng.choice(cols, 1)):
        block = np.zeros((draw(st.integers(0, 12)), cols), dtype=np.complex128)
        block[:, support] = random_matrix(rng, block.shape[0], support.size)
        pieces.append(block)
    m = np.vstack(pieces)
    return m[rng.permutation(m.shape[0])]


class TestFoldRows:
    @settings(max_examples=60, deadline=None)
    @given(arrow())
    def test_norm_within_rounding(self, m):
        # R* R equals the class Gram only up to rounding, so allow 4 ulps
        # per dimension as for the zero-padded blocks
        folded = linalg.fold_rows(m)
        assert folded.shape[1] == m.shape[1] and folded.shape[0] <= m.shape[0]
        want = np.linalg.norm(m, 2)
        assert abs(operator_norm(folded) - want) <= 4 * max(m.shape) * np.spacing(want)

    def test_classes_fold_to_their_triangular_factor(self):
        rng = np.random.default_rng(3)
        m = np.zeros((9, 4), dtype=np.complex128)
        m[[0, 2, 3, 5, 8], 1:3] = random_matrix(rng, 5, 2)  # a class of 5 rows on 2 columns
        m[6] = random_matrix(rng, 1, 4)  # a class of its own
        folded = linalg.fold_rows(m)
        assert folded.shape == (3, 4)
        gram = folded.conj().T @ folded
        assert np.allclose(gram, m.conj().T @ m, rtol=1e-14, atol=1e-14)
        assert np.count_nonzero(folded[:, [0, 3]]) == 2

    def test_nonfinite_entries_are_kept(self):
        m = np.zeros((5, 2), dtype=np.complex128)
        m[:, 0] = 1.0
        m[3, 0] = np.nan
        assert np.isnan(linalg.fold_rows(m)).any()

    def test_empty_and_zero(self):
        for shape in [(0, 0), (0, 3), (3, 0), (4, 5)]:
            folded = linalg.fold_rows(np.zeros(shape, dtype=complex))
            assert folded.shape == (0, shape[1])
            assert operator_norm(folded) == 0.0


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
