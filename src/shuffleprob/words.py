"""Basis monomials: letters, words over an algebra, and bar words.

A word ``a1...an`` is a basis element of the (non-unital) tensor algebra over
the span of the declared letters; a bar word ``w1|...|wm`` is a basis element
of the double tensor algebra built on top of it.  The empty word and the
empty bar word are the respective units and both print as ``"1"``.

Every value here is immutable and hashable; they are used as dictionary keys
throughout the package.  A word is the tuple of its letters, so it hashes and
compares as that tuple, in C.  A bar word is canonical: constructing one
returns the one live object for its sequence of words, so bar words compare
and hash by identity, in C, and every memo or coproduct lookup keyed by one is
an identity hit.  A bar product caches its one-word components in ``parts``
for the character nodes, and :func:`word_bars_up_to` keeps the one-word bar
words of the recent word sweeps, so a warm sweep or bar product builds no bar
word.  The one rule for a declared letter set, :func:`_letters`, and the
one rule for a max_degree, :func:`_degree`, are here.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, ValidationError


class Letter(NamedTuple):
    """A generator of the base algebra.

    ``tag`` distinguishes the two algebras of a free-product context (1/2);
    plain single-algebra computations use the default tag 0.  Letters compare
    equal exactly when both name and tag agree.
    """

    name: str
    tag: int = 0

    def __str__(self):
        return self.name if self.tag == 0 else f"{self.name}#{self.tag}"


class Word(tuple):
    """An ordered sequence of letters; degree = number of letters.

    A word is the tuple of its letters: it hashes, compares and measures
    its length as that tuple does, in C, and compares equal to it."""

    __slots__ = ()

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The letters as a plain tuple."""
        return tuple(self)

    @property
    def degree(self) -> int:
        return len(self)

    def concat(self, other: "Word") -> "Word":
        return Word(self + other)

    def subword(self, positions: Iterable[int]) -> "Word":
        """The letters at the given 1-based positions, in natural order.

        The empty position set yields the empty word.  Positions outside
        1..degree raise :class:`DomainError`.
        """
        pos = sorted(set(positions))
        n = len(self)
        if pos and (pos[0] < 1 or pos[-1] > n):
            raise DomainError(f"subset {pos} out of range for a word of degree {n}")
        return Word(self[p - 1] for p in pos)

    def sort_key(self):
        # a Letter is the tuple (name, tag), so this is graded lexicographic
        # order by name, then tag
        return (len(self), self)

    def __repr__(self):
        if not self:
            return "1"
        return ".".join(str(l) for l in self)


EMPTY_WORD = Word()

# the canonical bar words, keyed by their tuple of words
_live_bars: "weakref.WeakValueDictionary[tuple, BarWord]" = weakref.WeakValueDictionary()
_create_lock = threading.Lock()


class BarWord:
    """An ordered sequence of nonempty words, written ``w1|w2|...|wm``.

    Empty component words are silently dropped at construction, which
    realises the identification of ``w1|1|w2`` with ``w1|w2``; any other
    component that is not a :class:`Word` raises ``TypeError``.

    Bar words are canonical: ``BarWord(words)`` returns the one live object
    for its sequence of words, so equal bar words are the same object and
    equality and hashing are object identity.  The table of live bar words
    is keyed by each one's own ``words`` tuple, and it is weak, so it keeps
    none alive by itself and dropping the last reference (the caches
    included) frees the entry.  A bar word is created under a module lock,
    checked again inside it, so two threads never make twins, which would
    compare unequal; finding a live one takes no lock.
    Copies and unpickled bar words go through the constructor, so they are
    the canonical object too.

    ``parts`` is None until a character node first misses its memo on a bar
    product; it then holds the one-word bar words ``w1``, ..., ``wm`` of its
    components, which every character node reads its value from.  A one-word
    bar word never fills it, so the slot makes no reference cycle.
    """

    __slots__ = ("words", "degree", "parts", "__weakref__")

    def __new__(cls, words: Iterable[Word] = ()):
        words = tuple(filter(None, words))
        if not all(map(isinstance, words, itertools.repeat(Word))):
            raise TypeError(f"bar word components must be words, got {words!r}")
        self = _live_bars.get(words)
        if self is None:
            with _create_lock:
                self = _live_bars.get(words)
                if self is None:
                    self = object.__new__(cls)
                    self.words = words
                    self.degree = sum(map(len, words))
                    self.parts = None
                    _live_bars[words] = self
        return self

    @classmethod
    def _of(cls, key: tuple) -> "BarWord":
        """The bar word of key, a tuple of letter tuples: the live one,
        found without the lock, or on a miss the constructor's, of the
        words of key.  No live key holds an empty tuple, so one that does
        misses, and the constructor drops it."""
        self = _live_bars.get(key)
        return cls(map(Word, key)) if self is None else self

    def __reduce__(self):
        return (BarWord, (self.words,))

    @classmethod
    def from_word(cls, w: Word) -> "BarWord":
        # anything but a Word goes to the constructor, which refuses it
        return cls._of((w,)) if type(w) is Word else cls((w,))

    @property
    def bar_length(self) -> int:
        return len(self.words)

    def __bool__(self):
        return bool(self.words)

    def concat(self, other: "BarWord") -> "BarWord":
        return BarWord(self.words + other.words)

    def sort_key(self):
        return (self.degree, len(self.words), tuple(w.sort_key() for w in self.words))

    def __repr__(self):
        if not self.words:
            return "1"
        return "|".join(repr(w) for w in self.words)


EMPTY_BAR = BarWord()


def as_barword(x) -> BarWord:
    """Coerce a Word (single bar component) or BarWord to a BarWord."""
    if isinstance(x, BarWord):
        return x
    if isinstance(x, Word):
        return BarWord.from_word(x)
    raise TypeError(f"expected Word or BarWord, got {type(x).__name__}")


def words_of_degree(letters: Iterable[Letter], degree: int) -> Iterator[Word]:
    """All words of the exact degree over the given letters, in product order."""
    return map(Word, itertools.product(tuple(letters), repeat=degree))


def _degree(n) -> int:
    """n, the one rule for a max_degree: a positive int, not a bool."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError("max_degree must be a positive integer")
    return n


def _letters(letters) -> tuple[Letter, ...]:
    """letters as a tuple, the one rule for a declared letter set: at least
    one letter, each a :class:`Letter`, no two alike."""
    letters = tuple(letters)
    if not letters:
        raise ValidationError("at least one letter is needed")
    if not all(isinstance(l, Letter) for l in letters):
        raise ValidationError("letters must be Letters")
    if len(set(letters)) != len(letters):
        raise ValidationError("duplicate letters")
    return letters


def words_up_to(letters: Iterable[Letter], max_degree: int) -> Iterator[Word]:
    letters = tuple(letters)
    for d in range(1, max_degree + 1):
        yield from words_of_degree(letters, d)


def barwords_of_degree(letters: Iterable[Letter], degree: int) -> Iterator[BarWord]:
    """All bar words of the exact total degree: one block per composition part."""
    letters = tuple(letters)
    for comp in _compositions(degree):
        pools = [words_of_degree(letters, part) for part in comp]
        for combo in itertools.product(*pools):
            yield BarWord(combo)


def barwords_up_to(letters: Iterable[Letter], max_degree: int) -> Iterator[BarWord]:
    for d in range(1, max_degree + 1):
        yield from barwords_of_degree(letters, d)


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@lru_cache(maxsize=16)
def all_barwords(letters: tuple[Letter, ...], max_degree: int) -> tuple[BarWord, ...]:
    """Materialized nonempty bar words of degree <= max_degree.

    Bar words are canonical, so every sweep gets the same objects anyway;
    the bounded cache only saves the enumeration, which the nested sweeps of
    :mod:`verify` repeat.  With :func:`word_bars_up_to` it is one of the two
    bounded strong holders of enumerated bar words outside the memos."""
    return tuple(barwords_up_to(tuple(letters), max_degree))


@lru_cache(maxsize=16)
def word_bars_up_to(letters: tuple[Letter, ...], max_degree: int) -> tuple[BarWord, ...]:
    """The one-word bar words ``BarWord((w,))`` of the nonempty words of
    degree <= max_degree, in the order of :func:`words_up_to`.

    The distribution API sweeps these to read a functional on every word;
    the bounded cache saves building a word and finding its canonical bar
    word for every word of every call."""
    return tuple(BarWord((w,)) for w in words_up_to(tuple(letters), max_degree))
