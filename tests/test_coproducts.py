import itertools
from contextlib import nullcontext

import pytest

from shuffleprob import (BarWord, DomainError, EMPTY_BAR, Letter, Side,
                         TensorSum, Word, half_unshuffle, unshuffle, unshuffle_bar)
from shuffleprob.coproducts import single_run_terms
from shuffleprob.mutations import inject_defect
from shuffleprob.words import all_barwords, words_up_to

A, B, C = Letter("a"), Letter("b"), Letter("c")


def bw(*words):
    return BarWord(tuple(Word(w) for w in words))


def test_unshuffle_single_letter():
    got = unshuffle(Word((A,)))
    assert got == TensorSum({(bw((A,)), EMPTY_BAR): 1, (EMPTY_BAR, bw((A,))): 1})


def test_unshuffle_two_letters():
    got = unshuffle(Word((A, B)))
    expect = TensorSum({
        (bw((A, B)), EMPTY_BAR): 1,
        (EMPTY_BAR, bw((A, B))): 1,
        (bw((A,)), bw((B,))): 1,
        (bw((B,)), bw((A,))): 1,
    })
    assert got == expect


def test_unshuffle_middle_subset_splits_bars():
    got = unshuffle(Word((A, B, C)))
    assert got.coefficient(bw((B,)), bw((A,), (C,))) == 1


def test_unshuffle_empty_word():
    assert unshuffle(Word()) == TensorSum.unit()


def test_half_left_full():
    got = half_unshuffle(Word((A, B)), Side.LEFT)
    assert got == TensorSum({(bw((A, B)), EMPTY_BAR): 1, (bw((A,)), bw((B,))): 1})


def test_half_right_full():
    got = half_unshuffle(Word((A, B)), Side.RIGHT)
    assert got == TensorSum({(EMPTY_BAR, bw((A, B))): 1, (bw((B,)), bw((A,))): 1})


def test_half_left_reduced_degree_one_vanishes():
    assert not half_unshuffle(Word((A,)), Side.LEFT, reduced=True)


def test_reduced_on_empty_word_raises():
    with pytest.raises(DomainError):
        half_unshuffle(Word(), Side.LEFT, reduced=True)
    with pytest.raises(DomainError):
        unshuffle_bar(EMPTY_BAR, Side.FULL, reduced=True)


def test_full_equals_half_sum_words_degree_8():
    for letters in ((A,), (A, B)):
        for w in words_up_to(letters, 8):
            full = unshuffle(w)
            halves = half_unshuffle(w, Side.LEFT) + half_unshuffle(w, Side.RIGHT)
            assert full == halves, w


def test_bar_extension_top_coefficient():
    b = bw((A,), (B,))
    got = unshuffle_bar(b, Side.FULL)
    assert got.coefficient(b, EMPTY_BAR) == 1


def test_bar_left_leg_never_empty_on_left_half():
    b = bw((A,), (B,))
    for (x, _y), _c in unshuffle_bar(b, Side.LEFT):
        assert x.words, "left leg of the left half always keeps the first letter"


def test_bar_single_component_matches_word_case():
    w = Word((A,))
    assert unshuffle_bar(BarWord((w,)), Side.FULL) == unshuffle(w)


def test_counit_both_sides():
    for b in all_barwords((A, B), 4):
        full = unshuffle_bar(b, Side.FULL)
        left = {}
        right = {}
        for (x, y), c in full:
            if not x.words:
                left[y] = left.get(y, 0) + c
            if not y.words:
                right[x] = right.get(x, 0) + c
        assert left == {b: 1}
        assert right == {b: 1}


def test_multiplicative_extension():
    # coproduct of a bar product is the product of coproducts
    bars = all_barwords((A, B), 3)
    for x, y in itertools.product(bars, bars):
        if x.degree + y.degree > 4:
            continue
        assert unshuffle_bar(x.concat(y)) == unshuffle_bar(x).bar_mul(unshuffle_bar(y))


def _one_word_right_legs(terms):
    return TensorSum({(x, y): c for (x, y), c in terms if len(y.words) == 1})


@pytest.mark.parametrize("defect", [None, "drop-left-singleton"])
def test_single_run_terms_are_the_one_word_right_legs(defect):
    with inject_defect(defect) if defect else nullcontext():
        for letters, degree in (((A, B), 6), ((A, B, C), 4)):
            for w in words_up_to(letters, degree):
                for side in Side:
                    assert single_run_terms(w, side) == _one_word_right_legs(
                        unshuffle_bar(w, side)), (w, side)


def test_single_run_term_counts():
    n = 6
    w = Word(Letter(f"x{i}") for i in range(n))
    counts = {side: len(single_run_terms(w, side)) for side in Side}
    assert counts == {Side.FULL: n * (n + 1) // 2, Side.LEFT: n * (n - 1) // 2,
                      Side.RIGHT: n}
    with pytest.raises(DomainError):
        single_run_terms(bw((A,), (B,)))
