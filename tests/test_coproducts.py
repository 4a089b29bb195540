import ast
import gc
import itertools
from contextlib import nullcontext

import pytest

from conftest import ROOT
from shuffleprob import (BarWord, DomainError, EMPTY_BAR, Letter, Side,
                         TensorSum, Word, coproducts, half_unshuffle, unshuffle,
                         unshuffle_bar, words)
from shuffleprob.coproducts import _terms, clear_caches, single_run_terms
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


def test_the_public_maps_refuse_a_side_that_is_not_a_side():
    # Not the string values of the sides nor anything else: each is refused
    # before the memo, which keys every entry by a Side.
    clear_caches()
    w = Word((A, B, A))
    calls = (half_unshuffle, lambda w, side: half_unshuffle(w, side, True),
             unshuffle_bar, single_run_terms)
    for side in ("left", "full", "right", None, 0):
        for call in calls:
            with pytest.raises(DomainError):
                call(w, side)
    assert all(type(key[1]) is Side for key in coproducts._cache)


@pytest.mark.parametrize("defect", [None, "drop-left-singleton"])
def test_b_x_1_is_the_last_term_of_every_left_and_full_entry(defect):
    # A pairing that is its own left leg drops the last term of its entry
    # when that term's left leg is b, so on every nonempty bar word the one
    # such term must come last on the left and full sides, and no right or
    # single-run entry may hold one.  The defect drops S = {1}, which on a
    # first word of one letter is that whole left entry.
    empty_left = 0
    with inject_defect(defect) if defect else nullcontext():
        for letters, degree in (((A, B), 5), ((A, B, C), 4)):
            for b in all_barwords(letters, degree):
                for side in Side:
                    modes = ("all", "run") if len(b.words) == 1 else ("all",)
                    for mode in modes:
                        terms = _terms(b, side, mode)
                        at_b = [i for i, (x, _, _) in enumerate(terms) if x is b]
                        if side is Side.RIGHT or mode == "run":
                            assert not at_b, (b, side, mode)
                        elif side is Side.LEFT and defect and len(b.words[0]) == 1:
                            assert terms == (), b
                            empty_left += len(letters) == 2
                        else:
                            assert at_b == [len(terms) - 1], (b, side)
                            assert terms[-1] == (b, EMPTY_BAR, 1), (b, side)
    assert empty_left == (342 if defect else 0)


def _subset_terms(w: Word, side: Side, drop_singleton: bool) -> TensorSum:
    """One side on the word w, summed over position subsets S: w_S (x) the
    runs of the rest; the defect drops the left side's S = {1}."""
    n, out = len(w), {}
    for mask in range(1 << n):
        first = bool(mask & 1)
        if (side is Side.LEFT and (not first or drop_singleton and mask == 1)
                or side is Side.RIGHT and (first or mask == (1 << n) - 1)):
            continue
        picked = Word(w[i] for i in range(n) if mask >> i & 1)
        runs = [Word(w[i] for i in run) for kept, run in
                itertools.groupby(range(n), key=lambda i: mask >> i & 1) if not kept]
        key = (BarWord((picked,)), BarWord(runs))
        out[key] = out.get(key, 0) + 1
    return TensorSum(out)


def _expected(b: BarWord, side: Side, mode: str, drop_singleton: bool) -> TensorSum:
    """The terms of mode, from the subset sums on b's words, multiplied."""
    out = TensorSum.unit()
    for k, w in enumerate(b.words):
        out = out.bar_mul(_subset_terms(w, side if k == 0 else Side.FULL, drop_singleton))
    if mode == "reduced":
        trivial = {Side.LEFT: {(b, EMPTY_BAR): 1}, Side.RIGHT: {(EMPTY_BAR, b): 1},
                   Side.FULL: {(b, EMPTY_BAR): 1, (EMPTY_BAR, b): 1}}[side]
        out = out - TensorSum(trivial)
    elif mode == "run":
        out = TensorSum({(x, y): c for (x, y), c in out if len(y.words) == 1})
    return out


_PUBLIC = {"all": lambda b, side: unshuffle_bar(b, side),
           "reduced": lambda b, side: unshuffle_bar(b, side, True),
           "run": single_run_terms}


@pytest.mark.parametrize("defect", [None, "drop-left-singleton"])
def test_flat_terms_equal_the_subset_sums_and_the_public_maps(defect):
    # The memo's flat (x, y, c) triples: no pair twice, no zero, canonical
    # legs, equal to the sums over position subsets; every public map
    # returns a fresh TensorSum of them.
    bars = [BarWord((w,)) for letters, degree in (((A, B), 6), ((A, B, C), 4))
            for w in words_up_to(letters, degree)]
    bars += [b for b in all_barwords((A, B), 5) if len(b.words) > 1]
    with inject_defect(defect) if defect else nullcontext():
        for b in bars:
            for side, mode in itertools.product(Side, ("all", "reduced", "run")):
                if mode == "run" and len(b.words) != 1:
                    continue
                flat = _terms(b, side, mode)
                assert type(flat) is tuple and _terms(b, side, mode) is flat
                pairs = [(x, y) for x, y, _ in flat]
                assert len(set(pairs)) == len(pairs) and all(c for _, _, c in flat)
                assert all(BarWord(x.words) is x and BarWord(y.words) is y
                           for x, y in pairs)
                expect = _expected(b, side, mode, defect is not None)
                assert TensorSum({(x, y): c for x, y, c in flat}) == expect, (b, side, mode)
                got = _PUBLIC[mode](b, side)
                assert got == expect and got is not _PUBLIC[mode](b, side)
                got.terms.clear()
                assert _PUBLIC[mode](b, side) == expect


def test_a_bar_word_found_from_slices_is_the_constructors():
    for w in words_up_to((A, B, C), 4):
        for i in range(len(w) + 1):
            key = (w[:i], w[i:])
            assert type(key[0]) is tuple
            assert BarWord._of(key) is BarWord((Word(key[0]), Word(key[1])))
            assert BarWord._of((w[:i] + w[i:],)) is BarWord.from_word(w)


class _CountingLock:
    def __init__(self, lock):
        self.lock, self.entered = lock, 0

    def __enter__(self):
        self.entered += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_a_miss_in_of_goes_through_the_locked_constructor(monkeypatch):
    x, y = Letter("x", 3000), Letter("y", 3000)  # letters no other test uses
    lock = _CountingLock(words._create_lock)
    monkeypatch.setattr(words, "_create_lock", lock)
    key = ((x, y), (y,))
    b = BarWord._of(key)
    assert lock.entered == 1
    assert b.words == key and all(type(w) is Word for w in b.words)
    assert words._live_bars[key] is b and BarWord._of(key) is b and lock.entered == 1
    unshuffle_bar(b)
    del b
    clear_caches()
    gc.collect()
    assert words._live_bars.get(key) is None
    entered = lock.entered
    again = BarWord._of(key)
    assert lock.entered == entered + 1 and again is BarWord(map(Word, key))
    assert words._live_bars[key] is again


def test_only_terms_gets_builds_and_stores_the_coproduct_memo():
    # One entry point reads and fills the memo, so every coproduct lookup
    # goes through it; clear_caches only empties it.
    uses = {}
    for path in sorted((ROOT / "src" / "shuffleprob").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "_cache"
                    or isinstance(node, ast.Attribute) and node.attr == "_cache"):
                owner = [name for name, f in scopes
                         if f.lineno <= node.lineno <= f.end_lineno]
                uses.setdefault((path.name, owner[-1] if owner else None), []).append(node)
    assert set(uses) == {("coproducts.py", None), ("coproducts.py", "clear_caches"),
                         ("coproducts.py", "_terms")}
    assert len(uses[("coproducts.py", None)]) == 1  # _cache: dict = {}
    assert len(uses[("coproducts.py", "_terms")]) == 2  # one get, one store
