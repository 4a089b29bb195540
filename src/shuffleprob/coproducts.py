"""Unshuffling coproduct and its left/right half-coproducts.

On a word ``a1...an`` the full coproduct sums over all subsets S of [n],
sending ``a_S`` to the left leg and the bar word of maximal runs of [n]-S to
the right leg; the empty word maps to ``1 (x) 1``.  The left half keeps the
subsets containing position 1, the right half the proper subsets avoiding it,
so the two halves add up to the full coproduct on every nonempty word and
both vanish on the empty word.  On a bar word the maps extend
multiplicatively, the chosen half acting on the first component only.

One enumeration builds every term on a word w: it fixes a term by the first
run w[i:j] of the complement.  The letters before i are picked, and so
is w[j]; the letters after j split by their own full coproduct, read
from the memo.  The side fixes i: any i on the full side, i >= 1 on the
left, i = 0 on the right.  It is the only enumeration of position subsets
in the engine; the two others are references that checks compare it with:
the free product's closed form in :mod:`verify`, and the expansion of a
half-coproduct on a bar product in :mod:`axioms`.

:func:`single_run_terms` gives the terms of one side on a one-word bar word
whose right leg is one nonempty word: the subsets whose complement is one
interval, n(n+1)/2 of them on the full side instead of 2^n, n(n-1)/2 on the
left and n on the right.  They are all that a pairing against an
infinitesimal character on the right leg can see.  The same enumeration
gives them, with the letters after the run picked whole.

Everything is memoized in one dict, keyed by (bar word, side, reduced), or
by (bar word, side, "run") for the single-run terms; the same small words
recur constantly inside the fixed-point recursions of the functional
layer.  The enumeration builds the entries of the empty and the
one-component bar words, and caches the full coproducts of the suffixes it
reads; a bar word of two or more components multiplies cached entries, and
is cached too, because the evaluation loops look it up again far more often
than it is built.  Bar words are canonical (see
:mod:`.words`), so a memo key's bar word matches by identity, and the legs
built here are the same objects that key the functional memos.  The memo is
a plain dict: confine it to one thread or guard it externally.
"""

from __future__ import annotations

import enum

from . import mutations
from .errors import DomainError
from .tensors import TensorSum
from .words import BarWord, EMPTY_BAR, EMPTY_WORD, Word, as_barword


class Side(enum.Enum):
    LEFT = "left"     # subsets containing position 1
    RIGHT = "right"   # proper subsets avoiding position 1
    FULL = "full"     # all subsets

    def __repr__(self):
        return f"Side.{self.name}"

    # by identity, in C: every coproduct memo key hashes a side, and Enum's
    # own __hash__ is a Python-level call
    __hash__ = object.__hash__


_cache: dict = {}


def clear_caches():
    _cache.clear()


def _by_first_run(w: Word, side: Side, single_run: bool) -> TensorSum:
    """The terms of one side on the word w, by the first run w[i:j] of the
    complement (see the module docstring), or only those whose right leg is
    that run.  The empty run i = j = n is the term that picks every
    letter."""
    n = len(w)
    stop = n if single_run else n + 1
    if side is Side.FULL:
        starts = range(stop)
    elif side is Side.LEFT:
        starts = range(1, stop)
    else:
        starts = range(min(n, 1))  # i = 0, none on the empty word
    drop_singleton = side is Side.LEFT and mutations.is_active("drop-left-singleton")
    data: dict = {}
    for i in starts:
        for j in range(i + 1, n + 1) or (n,):  # i = n: only the empty run
            if drop_singleton and i == 1 and j == n:  # the term of S = {1}
                continue
            run = Word(w[i:j])
            if single_run or j == n:
                pair = (BarWord((Word(w[:i] + w[j:]),)), BarWord((run,)))
                data[pair] = data.get(pair, 0) + 1
                continue
            head = w[:i] + w[j:j + 1]
            rest = unshuffle_bar(Word(w[j + 1:])).terms
            for (x, y), c in rest.items():
                picked = head + x.words[0] if x.words else head
                pair = (BarWord((Word(picked),)), BarWord((run,) + y.words))
                data[pair] = data.get(pair, 0) + c
    return TensorSum._raw(data)


def unshuffle(w: Word) -> TensorSum:
    """Full coproduct of a word (subset expansion)."""
    return unshuffle_bar(BarWord.from_word(w))


def half_unshuffle(w: Word, side: Side, reduced: bool = False) -> TensorSum:
    """Left/right half-coproduct of a word; ``Side.FULL`` delegates.

    The unreduced halves sum to the full coproduct.  ``reduced=True``
    subtracts the deconcatenation-trivial term (``w (x) 1`` on the left,
    ``1 (x) w`` on the right; both on the full side), and is only defined on
    nonempty words.
    """
    return unshuffle_bar(BarWord.from_word(w), side, reduced)


def unshuffle_bar(b, side: Side = Side.FULL, reduced: bool = False) -> TensorSum:
    """Coproduct of a bar word: the chosen half on the first component,
    the full coproduct on the rest, multiplied componentwise."""
    b = b if type(b) is BarWord else as_barword(b)
    key = (b, side, reduced)
    out = _cache.get(key)
    if out is not None:
        return out
    words = b.words
    if reduced:
        if not words:
            raise DomainError("reduced coproducts are undefined on the empty bar word")
        out = unshuffle_bar(b, side)
        if side is Side.LEFT:
            out = out - TensorSum._raw({(b, EMPTY_BAR): 1})
        elif side is Side.RIGHT:
            out = out - TensorSum._raw({(EMPTY_BAR, b): 1})
        else:
            out = out - TensorSum._raw({(b, EMPTY_BAR): 1, (EMPTY_BAR, b): 1})
    elif len(words) > 1:
        out = unshuffle_bar(words[0], side)
        for w in words[1:]:
            out = out.bar_mul(unshuffle_bar(w))
    else:
        out = _by_first_run(words[0] if words else EMPTY_WORD, side, False)
    _cache[key] = out
    return out


def single_run_terms(b, side: Side = Side.FULL) -> TensorSum:
    """The terms of ``unshuffle_bar(b, side)`` whose right leg is one
    nonempty word, on a one-word bar word b: the subsets whose complement is
    one interval [i..j].  Every interval on the full side; i >= 2 on the
    left side, with [2..n] dropped under the ``drop-left-singleton`` defect;
    i = 1 on the right side."""
    b = b if type(b) is BarWord else as_barword(b)
    key = (b, side, "run")
    out = _cache.get(key)
    if out is not None:
        return out
    if len(b.words) != 1:
        raise DomainError("single-run terms are taken on one-word bar words")
    out = _cache[key] = _by_first_run(b.words[0], side, True)
    return out
