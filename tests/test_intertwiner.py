import numpy as np
import pytest
from conftest import RT2, SWEEP_SHAPES, balanced_pair_tuple, defect_block, dense_letter
from hypothesis import given, settings
from hypothesis import strategies as st

from ncscatter.dilation import Dilation
from ncscatter.intertwiner import (
    BLOCK,
    apply_intertwiner,
    apply_intertwiner_adjoint,
    intertwiner_matrix,
    stabilization_violation,
    stage_backward,
    stage_forward,
)
from ncscatter.lifting import generate
from ncscatter.linalg import operator_norm
from ncscatter.words import enumerate_words


def balanced_side():
    return Dilation(balanced_pair_tuple())


def random_block(rng, words, dim, width=1):
    """Stage coefficients or a Fock level: one (dim, width) block per word."""
    shape = (words, dim, width)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def norm_sq(*blocks):
    return sum(float(np.sum(np.abs(b) ** 2)) for b in blocks)


def loop_forward(dil, g, x):
    """Oracle: g_uj = T_j* g_u + d_j* x_u, two products per letter."""
    t = dil.t
    out = np.empty((g.shape[0], t.d) + g.shape[1:], dtype=np.complex128)
    for j in range(1, t.d + 1):
        out[:, j - 1] = t.op(j).conj().T @ g + defect_block(t, j).conj().T @ x
    return out.reshape((g.shape[0] * t.d,) + g.shape[1:])


def loop_backward(dil, g):
    """Oracle: sum_j T_j g_uj and sum_j d_j g_uj, two products per letter."""
    t = dil.t
    children = g.reshape((g.shape[0] // t.d, t.d) + g.shape[1:])
    top = sum(t.op(j) @ children[:, j - 1] for j in range(1, t.d + 1))
    low = sum(defect_block(t, j) @ children[:, j - 1] for j in range(1, t.d + 1))
    return top, low


def full_pipeline(inst, x, depth, adjoint=False):
    """Oracle: the stage pipeline run over every word and every column."""
    first, second = inst.dilation_e, inst.dilation_c
    if adjoint:
        first, second = second, first
    dom, cod = first.space(depth), second.space(depth)
    width = x.shape[1]
    g = x[: dom.base_dim].reshape((1, dom.base_dim, width))
    for n in range(1, depth + 2):
        g = stage_forward(first, g, dom.blocks(x, n - 1))
    if adjoint:
        padded = np.zeros((g.shape[0], cod.base_dim, width), dtype=np.complex128)
        padded[:, : dom.base_dim] = g
        g = padded
    else:
        g = g[:, : cod.base_dim]
    out = np.zeros((cod.dim, width), dtype=np.complex128)
    for n in range(depth + 1, 0, -1):
        g, low = stage_backward(second, g)
        cod.blocks(out, n - 1)[...] = low
    out[: cod.base_dim] = g[0]
    return out


def full_width_matrix(inst, depth):
    eye = np.eye(inst.dilation_e.space(depth).dim, dtype=np.complex128)
    return full_pipeline(inst, eye, depth)


def adjoint_matrix(inst, depth):
    """Flat matrix of the adjoint intertwiner: the apply path on the identity."""
    eye = np.eye(inst.dilation_c.space(depth).dim, dtype=np.complex128)
    return apply_intertwiner_adjoint(inst, eye, depth)


class TestStageVector:
    # stage-n form of a flat vector: the coefficients of the length-n
    # dilation words plus the levels n..depth not yet consumed

    def test_norm_sq(self, plain_instance):
        # images of distinct words of equal length are orthogonal, so for
        # a coisometric tuple the stage form carries the norm
        dil = plain_instance.dilation_e
        sp = dil.space(2)
        x = np.random.default_rng(7).standard_normal((sp.dim, 2)) + 0j
        g = x[: sp.base_dim].reshape((1, sp.base_dim, 2))
        for n in range(1, 5):
            level = sp.blocks(x, n - 1) if n <= 3 else np.zeros((g.shape[0], sp.inner_dim, 2))
            g = stage_forward(dil, g, level)
            unconsumed = x[sp.level(n).start :] if n <= 2 else x[:0]
            assert norm_sq(g, unconsumed) == pytest.approx(norm_sq(x))


class TestStageMaps:
    def test_forward_hand_values(self):
        # base coefficient splits as T_j* h + d_j* x with d = (1/rt2, -1/rt2)
        out = stage_forward(balanced_side(), np.ones((1, 1, 1)), np.ones((1, 1, 1)))
        assert out.shape == (2, 1, 1)
        assert out[0, 0, 0] == pytest.approx(2 * RT2)
        assert out[1, 0, 0] == pytest.approx(0.0)

    def test_forward_without_tail_entry(self):
        # a zero level adds nothing: g_uj = T_j* g_u, stored at index
        # u*d + j-1
        dil = generate(2, 2, 1, seed=3).dilation_e
        g = random_block(np.random.default_rng(1), 2, dil.t.dim, width=2)
        out = stage_forward(dil, g, np.zeros((2, dil.t.defect.rank, 2)))
        for u in range(2):
            for j in (1, 2):
                assert np.array_equal(out[2 * u + j - 1], dil.t.op(j).conj().T @ g[u])

    def test_stage_beyond_depth_consumes_zeros(self):
        # stages past the truncation consume zero levels and keep the norm
        dil = balanced_side()
        g = stage_forward(dil, np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
        g = stage_forward(dil, g, np.zeros((2, 1, 1)))
        assert g.shape == (4, 1, 1)
        assert norm_sq(g) == pytest.approx(1.0)

    @pytest.mark.parametrize("a_scale", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("shape", SWEEP_SHAPES + ((3, 2, 2),))
    def test_one_product_stages_match_letter_loops(self, shape, a_scale):
        # stages 1 to 3 of both dilations, zero defect rank and dimA = 0 included
        inst = generate(*shape, seed=0, a_scale=a_scale)
        rng = np.random.default_rng(3)
        for dil in (inst.dilation_c, inst.dilation_e):
            n, r, d = dil.t.dim, dil.t.defect.rank, dil.d
            for stage in range(1, 4):
                words = d ** (stage - 1)
                g, x = random_block(rng, words, n, 3), random_block(rng, words, r, 3)
                got, want = stage_forward(dil, g, x), loop_forward(dil, g, x)
                assert got.shape == want.shape
                assert np.abs(got - want).max(initial=0.0) <= 1e-14
                children = random_block(rng, d**stage, n, 3)
                for got, want in zip(stage_backward(dil, children), loop_backward(dil, children)):
                    assert got.shape == want.shape
                    assert np.abs(got - want).max(initial=0.0) <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_forward_preserves_norm_for_coisometric(self, seed):
        dil = balanced_side()
        rng = np.random.default_rng(seed)
        g, x = random_block(rng, 1, dil.t.dim), random_block(rng, 1, dil.t.defect.rank)
        out = stage_forward(dil, g, x)
        assert norm_sq(out) == pytest.approx(norm_sq(g, x))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_backward_inverts_forward(self, seed):
        dil = generate(2, 2, 1, seed=3).dilation_e
        rng = np.random.default_rng(seed)
        g, x = random_block(rng, 2, dil.t.dim), random_block(rng, 2, dil.t.defect.rank)
        back, level = stage_backward(dil, stage_forward(dil, g, x))
        assert np.allclose(back, g, atol=1e-12)
        assert np.allclose(level, x, atol=1e-12)

    def test_stage_rep_matches_dilation_words(self):
        # the stage form is sum_u V_u g_u + untouched tail levels;
        # rebuild that sum with the independently tested dilation maps
        dil = generate(2, 2, 2, seed=19).dilation_e
        depth = 2
        sp = dil.space(depth)
        rng = np.random.default_rng(5)
        g, tail = random_block(rng, 4, sp.base_dim), random_block(rng, 4, sp.inner_dim)
        want = np.zeros((sp.dim, 1), dtype=np.complex128)
        for u, w in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
            v = dil.space(0).pad(g[u])
            for level, letter in enumerate(reversed(w)):
                v = dil.apply(letter, v, level)
            want += sp.pad(v)
        sp.blocks(want, 2)[...] += tail
        g1, level1 = stage_backward(dil, g)
        g0, level0 = stage_backward(dil, g1)
        got = np.zeros_like(want)
        got[: sp.base_dim] = g0[0]
        for m, level in enumerate((level0, level1, tail)):
            sp.blocks(got, m)[...] = level
        assert np.allclose(got, want, atol=1e-12)


class TestIntertwiner:
    def test_identity_when_no_corner(self, no_corner_instance):
        m = intertwiner_matrix(no_corner_instance, 2)
        assert m.shape[0] == m.shape[1]
        assert operator_norm(m - np.eye(m.shape[0])) < 1e-12

    def test_fixes_base_subspace(self, plain_instance):
        # base vectors sit inside the lifted space and must come back
        # unchanged, so the leading column block is the embedding
        m = intertwiner_matrix(plain_instance, 2)
        cod = plain_instance.dilation_c.space(2)
        nc = plain_instance.dim_c
        want = np.zeros((cod.dim, nc))
        want[:nc, :nc] = np.eye(nc)
        assert operator_norm(m[:, :nc] - want) < 1e-12

    def test_hand_corner_column(self, hand_instance):
        # the corner basis vector maps to the vacuum defect direction
        m = intertwiner_matrix(hand_instance, 1)
        cod = hand_instance.dilation_c.space(1)
        col = m[:, 1]
        want = np.zeros(cod.dim, dtype=np.complex128)
        want[cod.slot(())] = 1.0
        assert np.allclose(col, want, atol=1e-12)

    def test_coisometry(self, plain_instance):
        m = intertwiner_matrix(plain_instance, 2)
        assert operator_norm(m @ m.conj().T - np.eye(m.shape[0])) < 1e-12

    def test_adjoint_matrix_is_conjugate_transpose(self, plain_instance):
        m = intertwiner_matrix(plain_instance, 2)
        mstar = adjoint_matrix(plain_instance, 2)
        assert operator_norm(mstar - m.conj().T) < 1e-12

    def test_adjoint_is_isometry(self, zero_a_instance):
        mstar = adjoint_matrix(zero_a_instance, 2)
        assert operator_norm(mstar.conj().T @ mstar - np.eye(mstar.shape[1])) < 1e-12

    def test_adjoint_never_raises_grade(self, plain_instance):
        # output Fock level of the adjoint never exceeds the input level
        inst = plain_instance
        depth = 2
        dom = inst.dilation_c.space(depth)
        cod = inst.dilation_e.space(depth)
        mstar = adjoint_matrix(inst, depth)
        for w_in in enumerate_words(dom.d, dom.depth):
            for w_out in enumerate_words(cod.d, cod.depth):
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
        dil_lift, dil_base = inst.dilation_e, inst.dilation_c
        w_deep = intertwiner_matrix(inst, depth + 1)
        w_flat = intertwiner_matrix(inst, depth)
        for j in (1, 2):
            lhs = w_deep @ dense_letter(dil_lift, j, depth)
            rhs = dense_letter(dil_base, j, depth) @ w_flat
            assert operator_norm(lhs - rhs) < 1e-10

    def test_stabilization(self, plain_instance):
        # the depth-1 block of W at depth 2 is the depth-1 truncation
        # run with one extra stage
        deep = intertwiner_matrix(plain_instance, 2)
        flat = intertwiner_matrix(plain_instance, 1)
        assert stabilization_violation(deep, flat) < 1e-12

    def test_apply_matches_matrix(self, plain_instance):
        inst = plain_instance
        dom = inst.dilation_e.space(2)
        cod = inst.dilation_c.space(2)
        rng = np.random.default_rng(4)
        vec = rng.standard_normal((dom.dim, 2)) + 1j * rng.standard_normal((dom.dim, 2))
        out = apply_intertwiner(inst, vec, 2)
        assert out.shape == (cod.dim, 2)
        assert np.allclose(out, intertwiner_matrix(inst, 2) @ vec, atol=1e-12)

    def test_adjoint_apply_on_vacuum_defect_batch(self, plain_instance):
        # columns through the apply path agree with the adjoint matrix
        inst = plain_instance
        depth = 2
        dom = inst.dilation_c.space(depth)
        cod = inst.dilation_e.space(depth)
        batch = np.zeros((dom.dim, inst.rank_c), dtype=np.complex128)
        batch[dom.slot(())] = np.eye(inst.rank_c)
        got = apply_intertwiner_adjoint(inst, batch, depth)
        assert got.shape == (cod.dim, inst.rank_c)
        mstar = adjoint_matrix(inst, depth)
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


# d = 1 with dimA = 0 lifts to dimC columns at every depth: one past a
# multiple of BLOCK, a run of that lone column would go to gemv
LONE_SHAPES = ((1, BLOCK + 1, 0), (1, 2 * BLOCK + 1, 0))


class TestBlockedBuild:
    # the W build runs BLOCK identity columns at a time, each stage over
    # the words its columns reach; the full-width pipeline is the oracle,
    # bit for bit

    @pytest.mark.parametrize("shape", SWEEP_SHAPES + LONE_SHAPES)
    def test_sweep_shapes_bit_for_bit(self, shape):
        # at d = 3 the full-width oracle needs 2.5 GB for depth 6, so it
        # stops at depth 5 (731 columns)
        for seed in range(4):
            inst = generate(*shape, seed=seed)
            for depth in range(1, 7 if shape[0] < 3 else 6):
                got = intertwiner_matrix(inst, depth)
                assert np.array_equal(got, full_width_matrix(inst, depth)), (seed, depth)

    def test_blocks_cover_short_last_block(self):
        # several blocks, and a last one shorter than BLOCK
        dims = [generate(*shape, seed=0).dilation_e.space(6).dim for shape in SWEEP_SHAPES]
        assert any(dim > BLOCK and dim % BLOCK for dim in dims)
        # and a lone last column
        for shape in LONE_SHAPES:
            inst = generate(*shape, seed=0)
            assert all(inst.dilation_e.space(n).dim % BLOCK == 1 for n in range(1, 7))

    def test_three_letters_bit_for_bit(self):
        inst = generate(3, 2, 2, seed=1)
        for depth in range(1, 5):
            assert np.array_equal(intertwiner_matrix(inst, depth), full_width_matrix(inst, depth))

    def test_deep_bit_for_bit(self):
        inst = generate(2, 2, 2, seed=1)
        assert np.array_equal(intertwiner_matrix(inst, 8), full_width_matrix(inst, 8))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1), (2, 2, 0)])
    def test_apply_paths_unchanged(self, shape):
        # a random probe batch and the vacuum defect batch, both directions
        inst = generate(*shape, seed=2)
        depth = 3
        rng = np.random.default_rng(8)
        for adjoint, dil in ((False, inst.dilation_e), (True, inst.dilation_c)):
            dom = dil.space(depth)
            apply = apply_intertwiner_adjoint if adjoint else apply_intertwiner
            probes = random_block(rng, 1, dom.dim, width=3)[0]
            vacuum = np.zeros((dom.dim, dom.inner_dim), dtype=np.complex128)
            vacuum[dom.slot(())] = np.eye(dom.inner_dim)
            for x in (probes, vacuum):
                assert np.array_equal(apply(inst, x, depth), full_pipeline(inst, x, depth, adjoint))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1), (2, 2, 0), (2, 1, 1)])
    def test_reach_read_off_the_nonzero_rows(self, shape):
        # the stages run from the first to the last row holding an entry
        # != 0, so batches that start late, end early, hold nothing or
        # carry a NaN past their last finite row must give the oracle's bits
        inst = generate(*shape, seed=1)
        depth = 3
        rng = np.random.default_rng(11)
        for adjoint, dil in ((False, inst.dilation_e), (True, inst.dilation_c)):
            dom = dil.space(depth)
            apply = apply_intertwiner_adjoint if adjoint else apply_intertwiner
            probes = random_block(rng, 1, dom.dim, width=3)[0]
            late, early, nan = probes.copy(), probes.copy(), np.zeros_like(probes)
            late[: dom.level(1).start + 1] = 0
            early[dom.level(depth).start - 1 :] = 0
            nan[dom.level(1)] = probes[dom.level(1)]
            nan[dom.level(2).start + 1] = np.nan
            batches = (late, early, np.zeros_like(probes), np.zeros((dom.dim, 0)), nan)
            for x in batches:
                want = full_pipeline(inst, x, depth, adjoint)
                assert np.array_equal(apply(inst, x, depth), want, equal_nan=True)


class TestZeroRank:
    # d = 1 with dimA = 0 has base and lifted defect rank 0: zero-rank
    # levels and zero-width batches keep explicit shapes

    @pytest.mark.parametrize("d", [1, 2])
    def test_stage_maps_and_matrices(self, d):
        inst = generate(d, 2, 0, seed=0)
        dil = inst.dilation_c
        n, r = dil.t.dim, dil.t.defect.rank
        for width in (0, 3):
            g = np.zeros((d, n, width))
            x = np.zeros((d, r, width))
            assert stage_forward(dil, g, x).shape == (d * d, n, width)
            top, low = stage_backward(dil, g)
            assert top.shape == (1, n, width)
            assert low.shape == (1, r, width)
        for depth in range(3):
            dom, cod = inst.dilation_e.space(depth), inst.dilation_c.space(depth)
            assert intertwiner_matrix(inst, depth).shape == (cod.dim, dom.dim)
            assert adjoint_matrix(inst, depth).shape == (dom.dim, cod.dim)
            empty = np.zeros((cod.dim, 0))
            assert apply_intertwiner_adjoint(inst, empty, depth).shape == (dom.dim, 0)
