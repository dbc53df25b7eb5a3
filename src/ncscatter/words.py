"""Finite words over the alphabet {1, ..., d}.

Words index the tensor levels of the truncated Fock space and the
coefficients of noncommutative power series.  A word is a plain tuple
of integers read left to right; the empty tuple is the unit.  The
canonical enumeration is graded lexicographic: all words of length 0,
then length 1, ... with 1 < 2 < ... < d inside each grade.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, TypeVar

Word = tuple[int, ...]
T = TypeVar("T")

EMPTY: Word = ()


def reverse(word: Word) -> Word:
    return tuple(word)[::-1]


def splits(word: Word) -> list[tuple[Word, Word]]:
    """All factorizations ``word == a + b``, ordered by ``len(a)`` ascending.

    A word of length n has exactly n + 1 splits, counting the two
    trivial ones.
    """
    w = tuple(word)
    return [(w[:k], w[k:]) for k in range(len(w) + 1)]


def words_of_length(d: int, length: int) -> list[Word]:
    return [tuple(w) for w in itertools.product(range(1, d + 1), repeat=length)]


@dataclass(frozen=True)
class WordIndex:
    """Graded-lexicographic enumeration of all words of length <= depth.

    Maps between words and their flat indices;  index 0 is always the
    empty word.  The total count is sum(d**m for m <= depth).
    """

    d: int
    depth: int
    words: tuple[Word, ...] = field(init=False)
    _lookup: dict[Word, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("alphabet size must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        ws = []
        for m in range(self.depth + 1):
            ws.extend(words_of_length(self.d, m))
        object.__setattr__(self, "words", tuple(ws))
        object.__setattr__(self, "_lookup", {w: i for i, w in enumerate(ws)})

    @property
    def size(self) -> int:
        return len(self.words)

    def index(self, word: Word) -> int:
        try:
            return self._lookup[tuple(word)]
        except KeyError:
            raise KeyError(f"word {word!r} is not enumerated at depth {self.depth}") from None

    def word(self, i: int) -> Word:
        return self.words[i]

    def __contains__(self, word) -> bool:
        return tuple(word) in self._lookup


def enumerate_words(d: int, depth: int) -> WordIndex:
    return WordIndex(d, depth)


def prepend_levels(
    root: T, d: int, depth: int, step: Callable[[int, Word, T], T]
) -> dict[Word, T]:
    """Values on all words of length <= depth, built by prepending letters.

    ``out[()] = root`` and ``out[(j,) + w] = step(j, w, out[w])``; each
    level is filled from the one below, and the keys come in the
    graded-lexicographic order of ``enumerate_words(d, depth).words``.
    """
    out: dict[Word, T] = {EMPTY: root}
    for m in range(1, depth + 1):
        for w in words_of_length(d, m):
            out[w] = step(w[0], w[1:], out[w[1:]])
    return out
