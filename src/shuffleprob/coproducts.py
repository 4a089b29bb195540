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

Everything is memoized in one dict, keyed by (bar word, side, mode), with
mode "all", "reduced" or "run" (the single-run terms); the same small words
recur constantly inside the fixed-point recursions of the functional
layer.  An entry is a flat tuple of (x, y, c) triples, the terms c x (x) y
with no pair twice and no zero c, which the pairing loops of
:mod:`.functionals` iterate as they are.  :func:`_terms` is the one
function that reads and fills the memo; every lookup goes through it.  The
enumeration builds the entries of the empty and the
one-component bar words, and caches the full coproducts of the suffixes it
reads; a bar word of two or more components multiplies cached entries, and
is cached too, because the evaluation loops look it up again far more often
than it is built.  Bar words are canonical (see :mod:`.words`), so a memo
key's bar word matches by identity, and the legs built here are the same
objects that key the functional memos; the enumeration and the bar
product find each leg from its tuple of letter tuples (``BarWord._of``),
and only a leg not yet live goes through the constructor.

An entry keeps its terms in the order first built.  The enumeration runs
i upward and a bar product multiplies in order, so every left and full
"all" entry on a nonempty bar word ends with b (x) 1, its one term whose
left leg is b, or is empty (the left entry on a first word of one letter,
under ``drop-left-singleton``); right and "run" entries hold no such term.
A pairing that is its own left leg drops that last term.  The public
functions refuse a side that is not a :class:`Side`, and return a fresh
:class:`TensorSum` of an entry's terms, which the caller may change.  The
memo is a plain dict: confine it to one thread or guard it externally.
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


def _terms(b: BarWord, side: Side, mode: str) -> tuple:
    """The terms of one side on the canonical bar word b, as flat (x, y, c)
    triples.  mode "all" gives every term of the side, "reduced" subtracts
    the deconcatenation-trivial ones, and "run" gives the single-run terms
    of a one-word bar word.  The one get, build and store on the memo."""
    key = (b, side, mode)
    out = _cache.get(key)
    if out is not None:
        return out
    words = b.words
    if mode == "run":
        if len(words) != 1:
            raise DomainError("single-run terms are taken on one-word bar words")
        out = _by_first_run(words[0], side, True)
    elif mode == "reduced":
        if not words:
            raise DomainError("reduced coproducts are undefined on the empty bar word")
        data = {(x, y): c for x, y, c in _terms(b, side, "all")}
        trivial = {Side.LEFT: ((b, EMPTY_BAR),), Side.RIGHT: ((EMPTY_BAR, b),),
                   Side.FULL: ((b, EMPTY_BAR), (EMPTY_BAR, b))}[side]
        for pair in trivial:
            c = data.get(pair, 0) - 1
            if c:
                data[pair] = c
            else:
                del data[pair]
        out = _flat(data)
    elif len(words) > 1:
        # the bar product of TensorSum.bar_mul, with the legs found from their
        # words; every coefficient of a side is positive, so none cancels
        of = BarWord._of
        out = _terms(of(words[:1]), side, "all")
        for w in words[1:]:
            later, data = _terms(of((w,)), Side.FULL, "all"), {}
            for x, y, c in out:
                for x2, y2, c2 in later:
                    pair = (of(x.words + x2.words), of(y.words + y2.words))
                    data[pair] = data.get(pair, 0) + c * c2
            out = _flat(data)
    else:
        out = _by_first_run(words[0] if words else EMPTY_WORD, side, False)
    _cache[key] = out
    return out


def _flat(data: dict) -> tuple:
    return tuple([(x, y, c) for (x, y), c in data.items()])


def _by_first_run(w: Word, side: Side, single_run: bool) -> tuple:
    """The terms of one side on the word w, by the first run w[i:j] of the
    complement (see the module docstring), or only those whose right leg is
    that run.  The empty run i = j = n is the term that picks every
    letter.  The legs are found from their letter tuples."""
    n = len(w)
    stop = n if single_run else n + 1
    if side is Side.FULL:
        starts = range(stop)
    elif side is Side.LEFT:
        starts = range(1, stop)
    else:
        starts = range(min(n, 1))  # i = 0, none on the empty word
    drop_singleton = side is Side.LEFT and mutations.is_active("drop-left-singleton")
    of = BarWord._of
    data: dict = {}
    for i in starts:
        for j in range(i + 1, n + 1) or (n,):  # i = n: only the empty run
            if drop_singleton and i == 1 and j == n:  # the term of S = {1}
                continue
            run = w[i:j]
            if single_run or j == n:
                pair = (of((w[:i] + w[j:],)), of((run,)))
                data[pair] = data.get(pair, 0) + 1
                continue
            head = w[:i] + w[j:j + 1]
            for x, y, c in _terms(of((w[j + 1:],)), Side.FULL, "all"):
                pair = (of((head + x.words[0],) if x.words else (head,)), of((run,) + y.words))
                data[pair] = data.get(pair, 0) + c
    return _flat(data)


def _public(b, side: Side, mode: str) -> TensorSum:
    """A fresh TensorSum of the terms of mode on one side of b.  The side is
    checked here, not in :func:`_terms`, which every pairing calls."""
    if type(side) is not Side:
        raise DomainError(f"a coproduct side is Side.LEFT, Side.RIGHT or Side.FULL, got {side!r}")
    b = b if type(b) is BarWord else as_barword(b)
    return TensorSum._raw({(x, y): c for x, y, c in _terms(b, side, mode)})


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
    return _public(b, side, "reduced" if reduced else "all")


def single_run_terms(b, side: Side = Side.FULL) -> TensorSum:
    """The terms of ``unshuffle_bar(b, side)`` whose right leg is one
    nonempty word, on a one-word bar word b: the subsets whose complement is
    one interval [i..j].  Every interval on the full side; i >= 2 on the
    left side, with [2..n] dropped under the ``drop-left-singleton`` defect;
    i = 1 on the right side."""
    return _public(b, side, "run")
