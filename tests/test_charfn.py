"""Characteristic function: closed form, factorization, identities."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncscatter import lifting
from ncscatter.charfn import (
    IllDefined,
    _suffix_adjoints,
    charfn_series,
    coincidence_violation,
    fock_action_violation,
    restriction_probes,
    symbol_blocks,
    vacuum_restriction_violation,
)
from ncscatter.intertwiner import intertwiner_matrix
from ncscatter.transfer import build_colligation, random_series, series_multiply, transfer_series
from ncscatter.words import enumerate_words, reverse

SWEEP = [
    lifting.generate(2, 2, 2, seed=42),
    lifting.generate(2, 1, 1, seed=3),
    lifting.generate(3, 2, 1, seed=8),
    lifting.generate(2, 2, 0, seed=7),
    lifting.generate(2, 2, 2, seed=11, a_scale=0.0),
]


class TestSuffixAdjoints:
    def test_letter_order(self, plain_instance):
        adj = _suffix_adjoints(plain_instance, 2)
        a1, a2 = plain_instance.a.ops
        assert [level.shape[0] for level in adj] == [1, 2, 4]
        # graded-lex level 2 is (1,1), (1,2), (2,1), (2,2)
        want = a2.conj().T @ a1.conj().T
        assert np.allclose(adj[2][1], want, atol=1e-14)
        assert np.allclose(adj[1][1], a2.conj().T, atol=1e-14)

    def test_identity_at_empty_word(self, plain_instance):
        adj = _suffix_adjoints(plain_instance, 0)
        assert len(adj) == 1 and adj[0].shape[0] == 1
        assert np.allclose(adj[0][0], np.eye(plain_instance.dim_a))


class TestSymbolStack:
    def test_graded_lex_layout(self, plain_instance):
        inst = plain_instance
        blocks = symbol_blocks(inst, 3)
        assert blocks.shape == (1 + 2 + 4 + 8, inst.rank_c, 2 * inst.dim_e)
        star = inst.a.star_defect
        gs = inst.gamma @ (star.basis.conj().T @ star.operator)
        a1, a2 = inst.a.ops
        # word (2, 1) has graded-lex index 5; its slot-1 base columns
        # carry -gamma dstar (A_1* A_2*) B_1
        want = -gs @ a1.conj().T @ a2.conj().T @ inst.b[0]
        assert np.allclose(blocks[5][:, : inst.dim_c], want, atol=1e-14)


class TestHandValues:
    """The balanced rank-one corner: every block is computable by hand."""

    def test_base_input_columns_vanish(self, hand_instance):
        # the base tuple here is its own lifting datum: base inputs
        # produce no output at any word
        blocks = symbol_blocks(hand_instance, 3)
        for w, m in zip(enumerate_words(2, 3), blocks, strict=True):
            assert np.linalg.norm(m[:, 0:1]) < 1e-14, w
            assert np.linalg.norm(m[:, 2:3]) < 1e-14, w

    def test_corner_input_is_single_letter(self, hand_instance):
        # slot-1 corner input responds exactly at the word (1,) with
        # the coupling isometry (here the 1x1 identity)
        blocks = symbol_blocks(hand_instance, 3)
        col = {w: m[:, 1:2] for w, m in zip(enumerate_words(2, 3), blocks, strict=True)}
        assert abs(col[(1,)][0, 0] - 1.0) < 1e-12
        for w, m in col.items():
            if w != (1,):
                assert np.linalg.norm(m) < 1e-14, w

    def test_vacuum_coefficient_vanishes(self, hand_instance):
        series = charfn_series(hand_instance, 2)
        assert np.linalg.norm(series.coeff(())) < 1e-14

    def test_deep_coefficients_vanish(self, hand_instance):
        series = charfn_series(hand_instance, 3)
        for w, m in series.items():
            if len(w) >= 2:
                assert np.linalg.norm(m) < 1e-14, w

    def test_letter_blocks_stack_to_unitary(self, hand_instance):
        series = charfn_series(hand_instance, 2)
        stack = np.vstack([series.coeff((1,)), series.coeff((2,))])
        assert np.linalg.norm(
            stack.conj().T @ stack - np.eye(2)
        ) < 1e-12


class TestSeries:
    def test_shape_metadata(self, plain_instance):
        series = charfn_series(plain_instance, 2)
        assert series.out_dim == plain_instance.rank_c
        assert series.in_dim == plain_instance.rank_e
        assert series.depth == 2
        assert series.coeff((1, 2)).shape == (
            plain_instance.rank_c,
            plain_instance.rank_e,
        )

    def test_no_corner_is_constant_identity(self, no_corner_instance):
        series = charfn_series(no_corner_instance, 2)
        r = no_corner_instance.rank_c
        assert np.linalg.norm(series.coeff(()) - np.eye(r)) < 1e-10
        for w, m in series.items():
            if w:
                assert np.linalg.norm(m) < 1e-12, w


def coincidence(inst, depth):
    theta = transfer_series(build_colligation(inst), depth)
    return coincidence_violation(charfn_series(inst, depth), theta)


def vacuum_restriction(inst, depth):
    # the vacuum columns read off the full matrix, not the probe pass
    cols = intertwiner_matrix(inst, depth)[:, inst.dilation_e.space(depth).slot(())]
    return vacuum_restriction_violation(inst, charfn_series(inst, depth), cols)


def fock_action(inst, depth, seed):
    theta = transfer_series(build_colligation(inst), depth)
    signal = random_series(inst.rank_e, 1, inst.d, depth, seed)
    got = restriction_probes(inst, signal)[:, inst.rank_e :]
    return fock_action_violation(inst, got, series_multiply(theta, signal))


class TestCoincidence:
    @pytest.mark.parametrize("idx", range(len(SWEEP)))
    def test_blocks_match_reversed_transfer(self, idx):
        assert coincidence(SWEEP[idx], 3) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_instances(self, seed):
        inst = lifting.generate(2, 2, 1, seed=seed)
        assert coincidence(inst, 2) < 1e-10


class TestIntertwinerRestriction:
    @pytest.mark.parametrize("idx", range(len(SWEEP)))
    def test_vacuum_columns(self, idx):
        assert vacuum_restriction(SWEEP[idx], 3) < 1e-10

    @pytest.mark.parametrize("idx", range(len(SWEEP)))
    def test_fock_action_is_reversed_convolution(self, idx):
        assert fock_action(SWEEP[idx], 3, seed=idx) < 1e-10

    def test_hand_vacuum_column_is_single_letter(self, hand_instance):
        assert vacuum_restriction(hand_instance, 2) < 1e-12

    @pytest.mark.parametrize("idx", range(len(SWEEP)))
    def test_probes_are_matrix_columns(self, idx):
        # oracle: the full matrix on the vacuum identity and on the
        # signal loaded word by word through reversal
        inst, depth = SWEEP[idx], 3
        signal = random_series(inst.rank_e, 1, inst.d, depth, seed=idx)
        dom = inst.dilation_e.space(depth)
        load = np.zeros((dom.dim, inst.rank_e + 1), dtype=np.complex128)
        load[dom.slot(()), : inst.rank_e] = np.eye(inst.rank_e)
        for w in enumerate_words(dom.d, dom.depth):
            load[dom.slot(w), inst.rank_e :] = signal.coeff(reverse(w))
        want = intertwiner_matrix(inst, depth) @ load
        got = restriction_probes(inst, signal)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-13)


class TestIllDefined:
    def test_perturbed_coupling_raises(self, plain_instance):
        g = plain_instance.gamma + 0.3 * np.ones_like(plain_instance.gamma)
        broken = dataclasses.replace(plain_instance, gamma=g)
        with pytest.raises(IllDefined):
            charfn_series(broken, 2)
