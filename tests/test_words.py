import copy
import gc
import pickle
import sys
import threading

import pytest

from shuffleprob import (BarWord, DomainError, EMPTY_BAR, EMPTY_WORD, Letter, Side, Word,
                         as_barword, character, exp_star, infinitesimal, unshuffle,
                         unshuffle_bar)
from shuffleprob import words as words_module
from shuffleprob.coproducts import clear_caches
from shuffleprob.words import (all_barwords, barwords_of_degree, barwords_up_to,
                               word_bars_up_to, words_of_degree, words_up_to)

A, B, C = Letter("a"), Letter("b"), Letter("c")


def test_letter_identity():
    assert Letter("a") == Letter("a", 0)
    assert Letter("a", 1) != Letter("a", 2)
    assert str(Letter("a", 1)) == "a#1"


def test_subword_examples():
    w = Word((A, B, C))
    assert w.subword({1, 3}) == Word((A, C))
    assert Word((A, B)).subword(set()) == EMPTY_WORD
    w4 = Word((A, B, C, A))
    assert w4.subword({2, 3, 4}) == Word((B, C, A))


def test_subword_out_of_range():
    with pytest.raises(DomainError):
        Word((A, B)).subword({0, 1})
    with pytest.raises(DomainError):
        Word((A, B)).subword({3})


def test_barword_drops_empty_components():
    assert BarWord((EMPTY_WORD, Word((A,)), EMPTY_WORD)) == BarWord((Word((A,)),))
    assert BarWord((EMPTY_WORD,)) == EMPTY_BAR


def test_rendering():
    assert repr(EMPTY_WORD) == "1"
    assert repr(EMPTY_BAR) == "1"
    assert repr(Word((A, B, A))) == "a.b.a"
    assert repr(BarWord((Word((A, B)), Word((C,))))) == "a.b|c"


def test_enumeration_counts():
    # words: k^n; bar words of total degree n: k^n * 2^(n-1)
    for n in range(1, 5):
        assert len(list(words_of_degree((A, B), n))) == 2 ** n
        assert len(list(barwords_of_degree((A, B), n))) == 2 ** n * 2 ** (n - 1)
    assert len(list(barwords_up_to((A,), 4))) == 1 + 2 + 4 + 8
    assert all_barwords((A, B), 3) == tuple(barwords_up_to((A, B), 3))


def test_word_sweep_is_the_one_word_bar_words_in_word_order():
    sweep = word_bars_up_to((A, B), 3)
    assert sweep == tuple(BarWord((w,)) for w in words_up_to((A, B), 3))
    assert all(b.bar_length == 1 for b in sweep)
    assert word_bars_up_to((A, B), 3) is sweep  # cached, not built again


def test_bar_product_parts_are_its_canonical_one_word_bar_words():
    # letters no other test sweeps, so no earlier read has filled the slot
    p, q = Letter("p", 7), Letter("q", 7)
    u, v = Word((p,)), Word((q, p))
    b = BarWord((u, v, u))
    assert b.parts is None
    phi = character({u: 2, v: 3})
    assert phi(b) == 12
    assert b.parts == (BarWord((u,)), BarWord((v,)), BarWord((u,)))
    assert all(part is BarWord((w,)) for part, w in zip(b.parts, b.words))
    assert all(part.parts is None for part in b.parts)  # one word fills none
    # a second character reads the slot, which stays the same tuple
    parts = b.parts
    assert character({u: 5, v: 7})(b) == 175 and b.parts is parts


def test_concat_degree_and_bar_length():
    b = BarWord((Word((A,)), Word((B, C))))
    assert b.degree == 3 and b.bar_length == 2
    assert b.concat(BarWord((Word((A,)),))).bar_length == 3


# Canonical bar words: one live object per bar word, compared by identity.

def _rebuilt(b):
    """The bar word of b's letters, built from fresh Word objects."""
    return BarWord(tuple(Word(w.letters) for w in b.words))


def test_equal_bar_words_are_one_object():
    ab, c = Word((A, B)), Word((C,))
    b = BarWord((ab, c))
    assert b is BarWord((Word((A, B)), EMPTY_WORD, Word((C,))))
    assert BarWord.from_word(ab) is BarWord((Word((A, B)),))
    assert as_barword(ab) is BarWord.from_word(Word((A, B)))
    assert as_barword(b) is b
    assert BarWord.from_word(ab).concat(BarWord.from_word(c)) is b
    assert EMPTY_BAR is BarWord() is BarWord((EMPTY_WORD,)) is EMPTY_BAR.concat(EMPTY_BAR)
    for x in all_barwords((A, B), 3):
        assert _rebuilt(x) is x
    # identity equality still tells bar words from other values
    assert BarWord.from_word(ab) != ab
    assert b != (ab, c) and b != ((A, B), (C,))
    assert EMPTY_BAR != EMPTY_WORD and EMPTY_BAR != ()


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("reduced", [False, True])
def test_coproduct_legs_and_bar_products_are_canonical(side, reduced):
    for x in all_barwords((A, B, C), 3):
        terms = unshuffle_bar(x, side, reduced)
        for left, right in terms.terms:
            assert _rebuilt(left) is left and _rebuilt(right) is right
        for left, right in terms.bar_mul(unshuffle_bar(x)).terms:
            assert _rebuilt(left) is left and _rebuilt(right) is right


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda b: pickle.loads(pickle.dumps(b))])
def test_copies_are_the_canonical_object(copier):
    b = BarWord((Word((A,)), Word((B, C))))
    for x in (b, EMPTY_BAR, BarWord.from_word(Word((A,)))):
        assert copier(x) is x
    pair = copier((b, {b: 1}))
    assert pair[0] is b and pair[1] == {b: 1}
    assert not EMPTY_BAR.words and EMPTY_BAR.degree == 0 and repr(EMPTY_BAR) == "1"


def test_threads_constructing_the_same_bar_words_share_the_objects():
    n_threads = 4
    previous = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for trial in range(3):
            # letters no other test uses, so every bar word here is new
            letters = tuple(Letter(name, 1000 + trial) for name in "abc")
            words = list(words_up_to(letters, 5))
            barrier = threading.Barrier(n_threads)
            results = [None] * n_threads

            def build(i):
                barrier.wait(timeout=30)
                results[i] = [BarWord.from_word(w) for w in words]

            threads = [threading.Thread(target=build, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(len(got) == len(words) for got in results)
            for got in results[1:]:
                assert all(x is y for x, y in zip(got, results[0]))
    finally:
        sys.setswitchinterval(previous)


def test_dropped_bar_words_leave_the_table():
    letters = (Letter("a", 2000), Letter("b", 2000))

    def mine():
        return [k for k in list(words_module._live_bars.keys())
                if any(l.tag == 2000 for w in k for l in w)]

    f = exp_star(infinitesimal({w: 1 for w in words_up_to(letters, 4)}))
    for w in words_up_to(letters, 4):
        f(w)
        unshuffle_bar(BarWord.from_word(w), Side.LEFT, True).bar_mul(unshuffle(w))
    assert mine()
    del f, w
    clear_caches()
    gc.collect()
    assert mine() == []
