"""Unshuffling coproduct and its left/right half-coproducts.

On a word ``a1...an`` the full coproduct sums over all subsets S of [n],
sending ``a_S`` to the left leg and the bar word of maximal runs of [n]-S to
the right leg; the empty word maps to ``1 (x) 1``.  The left half keeps the
subsets containing position 1, the right half the proper subsets avoiding it,
so the two halves add up to the full coproduct on every nonempty word.  On a
bar word the maps extend multiplicatively, the chosen half acting on the
first component only.

Everything is memoized; the same small words recur constantly inside the
fixed-point recursions of the functional layer.  The module-level caches are
plain dicts: confine them to one thread or guard them externally.
"""

from __future__ import annotations

import enum

from . import mutations
from .errors import DomainError
from .tensors import TensorSum
from .words import BarWord, EMPTY_BAR, Word, as_barword


class Side(enum.Enum):
    LEFT = "left"     # subsets containing position 1
    RIGHT = "right"   # proper subsets avoiding position 1
    FULL = "full"     # all subsets

    def __repr__(self):
        return f"Side.{self.name}"


_word_cache: dict = {}
_bar_cache: dict = {}


def clear_caches():
    _word_cache.clear()
    _bar_cache.clear()


def _word_coproduct(w: Word, side: Side) -> TensorSum:
    key = (w, side)
    cached = _word_cache.get(key)
    if cached is not None:
        return cached
    n = len(w.letters)
    if n == 0:
        # By the subset formulas both halves vanish on the empty word; the
        # full coproduct is 1 (x) 1 by definition.
        out = TensorSum.unit() if side is Side.FULL else TensorSum._raw({})
        _word_cache[key] = out
        return out
    drop_singleton = side is Side.LEFT and mutations.is_active("drop-left-singleton")
    if side is Side.FULL:
        masks = range(1 << n)
    elif side is Side.LEFT:
        masks = range(1, 1 << n, 2)
    else:
        masks = range(0, 1 << n, 2)
    data: dict = {}
    letters = w.letters
    for mask in masks:
        if drop_singleton and mask == 1:
            continue
        picked = []
        runs = []
        current = []
        m = mask
        for i in range(n):
            if m & 1:
                picked.append(letters[i])
                if current:
                    runs.append(Word(current))
                    current = []
            else:
                current.append(letters[i])
            m >>= 1
        if current:
            runs.append(Word(current))
        left = BarWord((Word(picked),)) if picked else EMPTY_BAR
        pair = (left, BarWord(runs))
        data[pair] = data.get(pair, 0) + 1
    out = TensorSum._raw(data)
    _word_cache[key] = out
    return out


def unshuffle(w: Word) -> TensorSum:
    """Full coproduct of a word (subset expansion)."""
    return _word_coproduct(w, Side.FULL)


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
    b = as_barword(b)
    key = (b, side, reduced)
    out = _bar_cache.get(key)
    if out is not None:
        return out
    if reduced:
        if not b.words:
            raise DomainError("reduced coproducts are undefined on the empty bar word")
        out = unshuffle_bar(b, side)
        if side is Side.LEFT:
            out = out - TensorSum._raw({(b, EMPTY_BAR): 1})
        elif side is Side.RIGHT:
            out = out - TensorSum._raw({(EMPTY_BAR, b): 1})
        else:
            out = out - TensorSum._raw({(b, EMPTY_BAR): 1, (EMPTY_BAR, b): 1})
    elif not b.words:
        out = TensorSum.unit() if side is Side.FULL else TensorSum._raw({})
    else:
        out = _word_coproduct(b.words[0], side)
        for w in b.words[1:]:
            out = out.bar_mul(_word_coproduct(w, Side.FULL))
    _bar_cache[key] = out
    return out
