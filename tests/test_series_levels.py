"""Level-array series code against per-word oracles.

The oracles keep series as ``dict[word, matrix]`` and loop word by
word, the way the package computed them before it stored one
graded-lex stack per series.  Copies (Toeplitz blocks, translates,
the transfer and state recursions, reversal) must agree exactly;
products, whose summation runs through batched kernels, within 16
ulps of the largest term.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncscatter.lifting import generate
from ncscatter.ncsystem import simulate
from ncscatter.transfer import (
    build_colligation,
    random_series,
    right_translate,
    series_multiply,
    toeplitz_matrix,
    transfer_series,
)
from ncscatter.words import enumerate_words, reversal, reverse, splits

EPS = np.finfo(float).eps


def as_dict(series):
    return {w: series.coeff(w) for w in enumerate_words(series.d, series.depth)}


def prepend_dict(root, d, depth, step):
    """Values on every word: out[()] = root, out[(j,) + w] = step(j, w, out[w])."""
    out = {(): root}
    for w in enumerate_words(d, depth)[1:]:
        out[w] = step(w[0], w[1:], out[w[1:]])
    return out


def oracle_random(out_dim, in_dim, d, depth, seed):
    rng = np.random.default_rng(seed)
    return {
        w: rng.standard_normal((out_dim, in_dim)) + 1j * rng.standard_normal((out_dim, in_dim))
        for w in enumerate_words(d, depth)
    }


def oracle_transfer(coll, depth):
    suffix = prepend_dict(
        None,
        coll.d,
        depth,
        lambda j, w, s: coll.state_ops[j - 1] @ s if w else coll.input_ops[j - 1],
    )
    return {
        w: coll.output_map @ s if w else coll.feedthrough.copy() for w, s in suffix.items()
    }


def oracle_simulate(coll, u, depth):
    x = prepend_dict(
        np.zeros((coll.state_dim, 1), dtype=np.complex128),
        coll.d,
        depth,
        lambda j, w, xw: coll.state_ops[j - 1] @ xw + coll.input_ops[j - 1] @ u[w],
    )
    y = {w: coll.output_map @ x[w] + coll.feedthrough @ u[w] for w in x}
    return x, y


def oracle_multiply(left, right, d, cap):
    """Per word, the terms left(a) right(b) over its splits, by ascending len(a)."""
    return {
        g: [left[a] @ right[b] for a, b in splits(g)] for g in enumerate_words(d, cap)
    }


def oracle_translate(values, letter):
    return {w + (letter,): m for w, m in values.items()}


def oracle_toeplitz(values, d, depth, p, m):
    words = enumerate_words(d, depth)
    out = np.zeros((len(words) * p, len(words) * m), dtype=np.complex128)
    for gi, g in enumerate(words):
        for bi, b in enumerate(words):
            k = len(g) - len(b)
            if k >= 0 and g[k:] == b:
                out[gi * p : (gi + 1) * p, bi * m : (bi + 1) * m] = values[g[:k]]
    return out


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(float), b.view(float))


LETTERS = st.integers(1, 3)
DEPTHS = st.integers(0, 4)
DIMS = st.integers(0, 2)
SEEDS = st.integers(0, 2**32 - 1)
# (d, dimC, dimA) shapes for colligations; generate(1, 2, 0) has rank_c == 0
SHAPES = st.sampled_from(
    [(1, 2, 0), (1, 1, 0), (2, 2, 1), (2, 1, 0), (2, 2, 2), (3, 2, 1), (3, 1, 0)]
)


class TestCopies:
    @settings(max_examples=40, deadline=None)
    @given(d=LETTERS, depth=DEPTHS, p=DIMS, m=DIMS, seed=SEEDS)
    def test_random_series_draw_order(self, d, depth, p, m, seed):
        got = random_series(p, m, d, depth, seed)
        want = oracle_random(p, m, d, depth, seed)
        assert list(got) == list(want)
        assert all(same(got[w], want[w]) for w in want)

    @settings(max_examples=40, deadline=None)
    @given(d=LETTERS, depth=DEPTHS, p=DIMS, m=DIMS, seed=SEEDS, data=st.data())
    def test_right_translate(self, d, depth, p, m, seed, data):
        letter = data.draw(st.integers(1, d))
        series = random_series(p, m, d, depth, seed)
        got = right_translate(series, letter)
        want = oracle_translate(as_dict(series), letter)
        assert got.depth == depth + 1
        for w in got:
            assert same(got[w], want.get(w, np.zeros((p, m), dtype=np.complex128)))

    @settings(max_examples=40, deadline=None)
    @given(d=LETTERS, depth=DEPTHS, p=DIMS, m=DIMS, seed=SEEDS, data=st.data())
    def test_toeplitz_blocks(self, d, depth, p, m, seed, data):
        series = random_series(p, m, d, depth, seed)
        cut = data.draw(st.integers(0, depth))
        got = toeplitz_matrix(series.prefix(cut))
        assert same(got, oracle_toeplitz(as_dict(series), d, cut, p, m))

    @settings(max_examples=40, deadline=None)
    @given(d=LETTERS, depth=DEPTHS, p=DIMS, seed=SEEDS)
    def test_reversal(self, d, depth, p, seed):
        series = random_series(p, 1, d, depth, seed)
        got = series.coeffs[reversal(d, depth)]
        for w, block in zip(series, got):
            assert same(block, series[reverse(w)])

    @settings(max_examples=25, deadline=None)
    @given(shape=SHAPES, depth=DEPTHS, seed=st.integers(0, 50))
    def test_transfer_series(self, shape, depth, seed):
        coll = build_colligation(generate(*shape, seed=seed))
        got = transfer_series(coll, depth)
        want = oracle_transfer(coll, depth)
        assert list(got) == list(want)
        assert all(same(got[w], want[w]) for w in want)

    @settings(max_examples=25, deadline=None)
    @given(shape=SHAPES, depth=DEPTHS, seed=st.integers(0, 50), data=st.data())
    def test_simulate(self, shape, depth, seed, data):
        coll = build_colligation(generate(*shape, seed=seed))
        signal = random_series(coll.in_dim, 1, coll.d, depth, seed)
        cut = data.draw(st.integers(0, depth))
        traj = simulate(coll, signal, cut)
        u = {w: signal[w] for w in enumerate_words(coll.d, cut)}
        x, y = oracle_simulate(coll, u, cut)
        for got, want in ((traj.u, u), (traj.x, x), (traj.y, y)):
            assert list(got) == list(want)
            assert all(same(got[w], want[w]) for w in want)


class TestProducts:
    @settings(max_examples=40, deadline=None)
    @given(
        d=LETTERS, depth=st.integers(1, 4), dims=st.tuples(DIMS, DIMS), seeds=st.tuples(SEEDS, SEEDS)
    )
    def test_prefixes_are_the_shallower_draw_and_product(self, d, depth, dims, seeds):
        # verify's multi_analyticity row reads these prefixes of the signal
        # and of theta * s in place of a second draw and product
        p, q = dims
        theta = random_series(p, q, d, depth, seeds[0])
        signal = random_series(q, 1, d, depth, seeds[1])
        shallow = random_series(q, 1, d, depth - 1, seeds[1])
        assert same(signal.prefix(depth - 1).coeffs, shallow.coeffs)
        got = series_multiply(theta, signal).prefix(depth - 1)
        assert got.depth == depth - 1
        assert same(got.coeffs, series_multiply(theta, shallow).coeffs)

    @settings(max_examples=100, deadline=None)
    @example(d=2, depths=(2, 3), dims=(1, 2, 1), seeds=(1, 2))
    @example(d=3, depths=(4, 3), dims=(2, 1, 2), seeds=(3, 4))
    @example(d=1, depths=(4, 4), dims=(0, 2, 1), seeds=(5, 6))
    @given(
        d=LETTERS,
        depths=st.tuples(DEPTHS, DEPTHS),
        dims=st.tuples(DIMS, DIMS, DIMS),
        seeds=st.tuples(SEEDS, SEEDS),
    )
    def test_series_multiply(self, d, depths, dims, seeds):
        p, q, r = dims
        left = random_series(p, q, d, depths[0], seeds[0])
        right = random_series(q, r, d, depths[1], seeds[1])
        got = series_multiply(left, right)
        terms = oracle_multiply(as_dict(left), as_dict(right), d, min(depths))
        assert list(got) == list(terms)
        for g, ts in terms.items():
            want = sum(ts)
            scale = max(np.abs(t).max(initial=0.0) for t in ts)
            assert np.abs(got[g] - want).max(initial=0.0) <= 16 * EPS * scale, g
