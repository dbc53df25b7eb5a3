import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncscatter import words
from ncscatter.words import enumerate_words, prepend_levels, reverse, splits

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
    idx = enumerate_words(2, 0)
    assert idx.words == ((),)
    assert idx.size == 1


def test_enumerate_graded_lex():
    idx = enumerate_words(2, 2)
    assert idx.words == ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))


def test_enumerate_size():
    assert enumerate_words(3, 2).size == 1 + 3 + 9


def test_index_word_bijection():
    idx = enumerate_words(3, 3)
    for i, w in enumerate(idx.words):
        assert idx.index(w) == i
        assert idx.word(i) == w
    assert idx.index(()) == 0


def test_index_unknown_word():
    idx = enumerate_words(2, 1)
    with pytest.raises(KeyError):
        idx.index((1, 1))
    assert (1, 1) not in idx
    assert (2,) in idx


def test_words_of_length():
    assert words.words_of_length(2, 0) == [()]
    assert words.words_of_length(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 4), (2, 0), (2, 3), (3, 2)])
def test_prepend_levels_graded_lex_keys(d, depth):
    out = prepend_levels(0, d, depth, lambda j, w, parent: parent + 1)
    assert tuple(out) == enumerate_words(d, depth).words
    assert all(value == len(w) for w, value in out.items())


def test_prepend_levels_step_arguments():
    calls = []

    def step(j, w, parent):
        calls.append((j, w, parent))
        return (j,) + parent

    out = prepend_levels((), 2, 2, step)
    # each value is its own word, so the parent value names the parent word
    assert all(value == w for w, value in out.items())
    assert sorted(calls) == sorted(
        (w[0], w[1:], w[1:]) for w in enumerate_words(2, 2).words if w
    )


def test_prepend_levels_depth_zero_and_one_letter():
    assert prepend_levels("root", 3, 0, lambda j, w, p: 1 / 0) == {(): "root"}
    out = prepend_levels(1, 1, 3, lambda j, w, parent: 2 * parent)
    assert out == {(): 1, (1,): 2, (1, 1): 4, (1, 1, 1): 8}
