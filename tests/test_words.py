import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncscatter.words import (
    enumerate_words,
    level_start,
    position,
    prepend_levels,
    reversal,
    reverse,
    splits,
)

word_st = st.lists(st.integers(1, 3), max_size=6).map(tuple)


def test_reverse_examples():
    assert reverse(()) == ()
    assert reverse((1, 2, 1)) == (1, 2, 1)
    assert reverse((1, 2, 2)) == (2, 2, 1)


def test_splits_examples():
    assert splits(()) == [((), ())]
    assert splits((1, 2)) == [((), (1, 2)), ((1,), (2,)), ((1, 2), ())]


@given(word_st)
def test_splits_count_and_order(w):
    s = splits(w)
    assert len(s) == len(w) + 1
    assert [len(a) for a, _ in s] == list(range(len(w) + 1))
    assert all(a + b == w for a, b in s)


@given(word_st, word_st)
def test_reverse_antihomomorphism(a, b):
    assert reverse(a + b) == reverse(b) + reverse(a)


@given(word_st)
def test_reverse_involution(w):
    assert reverse(reverse(w)) == w


def test_enumerate_depth_zero():
    assert enumerate_words(2, 0) == ((),)


def test_enumerate_graded_lex():
    assert enumerate_words(2, 2) == ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))


def test_enumerate_size():
    assert len(enumerate_words(3, 2)) == 1 + 3 + 9


def test_index_word_bijection():
    ws = enumerate_words(3, 3)
    assert [position(3, 3, w) for w in ws] == list(range(len(ws)))
    assert position(3, 3, ()) == 0


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 5), (2, 0), (2, 4), (3, 3)])
def test_level_starts(d, depth):
    ws = enumerate_words(d, depth)
    for m in range(depth + 2):
        assert level_start(d, m) == sum(1 for w in ws if len(w) < m)


def test_index_unknown_word():
    with pytest.raises(KeyError):
        position(2, 1, (1, 1))
    with pytest.raises(KeyError):
        position(2, 2, (3,))
    with pytest.raises(KeyError):
        position(2, 2, (0, 1))
    assert position(2, 1, (2,)) == 2


def test_words_of_length():
    ws = enumerate_words(2, 2)
    assert ws[level_start(2, 0) : level_start(2, 1)] == ((),)
    assert ws[level_start(2, 2) : level_start(2, 3)] == ((1, 1), (1, 2), (2, 1), (2, 2))


def encode(w, d):
    """A word as the integer with base-(d+1) digits w, first letter most significant."""
    return sum(a * (d + 1) ** k for k, a in enumerate(reversed(w)))


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 4), (2, 0), (2, 3), (3, 2)])
def test_prepend_levels_graded_lex_keys(d, depth):
    levels = prepend_levels(np.zeros(1), d, depth, lambda j, m, level: level + 1)
    assert [len(level) for level in levels] == [d**m for m in range(depth + 1)]
    assert all((level == m).all() for m, level in enumerate(levels))


def test_prepend_levels_step_arguments():
    # prepending j to an m-letter word puts digit j in front of its code
    calls = []

    def step(j, m, level):
        calls.append((j, m, len(level)))
        return j * 3**m + level

    levels = prepend_levels(np.zeros(1, dtype=int), 2, 3, step)
    assert np.concatenate(levels).tolist() == [encode(w, 2) for w in enumerate_words(2, 3)]
    assert calls == [(j, m, 2**m) for m in range(3) for j in (1, 2)]


def test_prepend_levels_depth_zero_and_one_letter():
    root = np.array(["root"])
    assert prepend_levels(root, 3, 0, lambda j, m, level: 1 / 0) == [root]
    levels = prepend_levels(np.ones(1), 1, 3, lambda j, m, level: 2 * level)
    assert np.concatenate(levels).tolist() == [1, 2, 4, 8]


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 4), (2, 0), (2, 4), (3, 3), (4, 4)])
def test_reversal_map(d, depth):
    ws = enumerate_words(d, depth)
    assert [ws[i] for i in reversal(d, depth)] == [reverse(w) for w in ws]


@given(st.integers(1, 3), word_st, word_st)
def test_concatenation_index(d, a, b):
    # idx(a.b) = idx(a) d**len(b) + idx(b) inside the levels
    a = tuple(min(x, d) for x in a)
    b = tuple(min(x, d) for x in b)
    n = len(a) + len(b)

    def idx(w):
        return position(d, n, w) - level_start(d, len(w))

    assert idx(a + b) == idx(a) * d ** len(b) + idx(b)
    assert position(d, n + 1, a + (d,)) == d * position(d, n, a) + d
