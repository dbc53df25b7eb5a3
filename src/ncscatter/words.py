"""Finite words over the alphabet {1, ..., d}.

Words index the tensor levels of the truncated Fock space and the
coefficients of noncommutative power series.  A word is a plain tuple
of integers read left to right; the empty tuple is the unit.  The
canonical enumeration is graded lexicographic: all words of length 0,
then length 1, ... with 1 < 2 < ... < d inside each grade.

Graded-lex positions are index arithmetic.  Level m starts at
:func:`level_start` ``(d, m)``, and inside it a word's letters, less
one, are the base-d digits of its index.  So prepending letter j to
the level-m word at index u gives index ``(j-1)·d**m + u`` of level
m+1, appending j to the word at position i gives position ``d·i + j``,
and concatenating a and b gives index ``idx(a)·d**len(b) + idx(b)``.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

Word = tuple[int, ...]


def reverse(word: Word) -> Word:
    return tuple(word)[::-1]


def splits(word: Word) -> list[tuple[Word, Word]]:
    """All factorizations ``word == a + b``, ordered by ``len(a)`` ascending.

    A word of length n has exactly n + 1 splits, counting the two
    trivial ones.
    """
    w = tuple(word)
    return [(w[:k], w[k:]) for k in range(len(w) + 1)]


def enumerate_words(d: int, depth: int) -> tuple[Word, ...]:
    """All words of length <= depth in graded-lex order."""
    letters = range(1, d + 1)
    return tuple(w for m in range(depth + 1) for w in itertools.product(letters, repeat=m))


def level_start(d: int, m: int) -> int:
    """Graded-lex position of the first word of length m: the count of shorter words.

    ``level_start(d, depth + 1)`` is the number of words of length <= depth.
    """
    return m if d == 1 else (d**m - 1) // (d - 1)


def position(d: int, depth: int, word: Word) -> int:
    """Graded-lex position of ``word`` among the words of length <= depth.

    Raises KeyError for a longer word or a letter outside 1..d.
    """
    if len(word) > depth or word and (min(word) < 1 or max(word) > d):
        raise KeyError(f"word {word!r} is not enumerated at depth {depth}")
    u = 0
    for a in word:
        u = u * d + a - 1
    return level_start(d, len(word)) + u


def prepend_levels(
    root: np.ndarray, d: int, depth: int, step: Callable[[int, int, np.ndarray], np.ndarray]
) -> list[np.ndarray]:
    """Value stacks built level by level by prepending letters.

    ``levels[0]`` is ``root``, and ``levels[m+1]`` concatenates
    ``step(j, m, levels[m])`` for j = 1..d.  When ``root`` holds the
    values at the words of one length in graded-lex order and ``step``
    gives the values at the words (j,)+w in the order of the words w,
    every level comes out in graded-lex order.
    """
    levels = [root]
    for m in range(depth):
        levels.append(np.concatenate([step(j, m, levels[-1]) for j in range(1, d + 1)]))
    return levels


def reversal(d: int, depth: int) -> np.ndarray:
    """Entry i is the graded-lex position of the reverse of word i.

    The reverse of (j,)+w is the reverse of w with j appended, at index
    ``d·rev(w) + j-1`` of its level.
    """
    levels = prepend_levels(np.zeros(1, dtype=int), d, depth, lambda j, m, u: u * d + j - 1)
    return np.concatenate([level_start(d, m) + u for m, u in enumerate(levels)])
