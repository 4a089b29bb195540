import pytest

from shuffleprob import BarWord, DomainError, EMPTY_BAR, EMPTY_WORD, Letter, Word
from shuffleprob.words import (all_barwords, barwords_of_degree, barwords_up_to,
                               words_of_degree)

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


def test_concat_degree_and_bar_length():
    b = BarWord((Word((A,)), Word((B, C))))
    assert b.degree == 3 and b.bar_length == 2
    assert b.concat(BarWord((Word((A,)),))).bar_length == 3
