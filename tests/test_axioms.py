import itertools
from contextlib import nullcontext

import pytest

from shuffleprob import (BarWord, Letter, Side, Word, coproducts, half_unshuffle,
                         unshuffle_bar)
from shuffleprob.axioms import check_axioms
from shuffleprob.mutations import inject_defect
from shuffleprob.words import words_up_to


def test_one_letter_degree_four_passes():
    report = check_axioms((Letter("a"),), 4)
    assert report.passed, report.failures


def test_two_letters_degree_five_passes():
    report = check_axioms((Letter("a"), Letter("b")), 5)
    assert report.passed, report.failures


def test_corrupted_left_half_is_caught_at_low_degree():
    with inject_defect("drop-left-singleton"):
        report = check_axioms((Letter("a"), Letter("b")), 2)
    assert not report.passed
    names = {r.name for r in report.failures}
    # the mixed coassociativity axiom must notice, along with the splitting
    assert "half-unshuffle-coassoc-mixed" in names
    assert "coproduct-splits-into-halves" in names
    for r in report.failures:
        element = r.witness["element"]
        degree = len([t for t in element.replace("|", ".").split(".") if t != "1"])
        assert degree <= 2


def test_product_compat_checks_catch_a_wrong_word_coproduct(monkeypatch):
    # Each change to the degree-2 word coproducts changes the bar products
    # built from them; both compat checks compare those with an expansion
    # of their own, so both must notice.  Doubling one coefficient tests the
    # coefficients; moving the term with right leg ab to a|b, coefficient
    # kept, tests that the checks compare the legs themselves.
    def doubled(w, terms):
        (x, y, c), *rest = terms
        return ((x, y, 2 * c), *rest)

    def split_leg(w, terms):
        whole, split = BarWord.from_word(w), BarWord((Word(w[:1]), Word(w[1:])))
        return tuple((x, split if y is whole else y, c) for x, y, c in terms)

    by_first_run = coproducts._by_first_run
    for change in (doubled, split_leg):
        def changed(w, side, single_run):
            out = by_first_run(w, side, single_run)
            return change(w, out) if len(w) == 2 else out

        coproducts.clear_caches()
        monkeypatch.setattr(coproducts, "_by_first_run", changed)
        try:
            report = check_axioms((Letter("a"), Letter("b")), 3)
        finally:
            monkeypatch.undo()
            coproducts.clear_caches()
        names = {r.name for r in report.failures}
        assert {"product-compat-left", "product-compat-right"} <= names, change.__name__


def test_the_expansion_builds_no_bar_word(monkeypatch):
    # the expansion keys its terms by tuples of words; the engine's side is
    # read first, and then no bar word may be made
    from shuffleprob import words
    from shuffleprob.axioms import _expansion, _tensor

    a, b = Letter("a"), Letter("b")
    bars = [BarWord((Word((a, b)), Word((b,)), Word((a, a)))), BarWord((Word((b,)), Word((a, b, a))))]
    expected = {(bar, side): _tensor(coproducts._terms(bar, side, "all"))
                for bar in bars for side in (Side.LEFT, Side.RIGHT)}

    def refuse(*args, **kwargs):
        raise AssertionError("a bar word was built")

    monkeypatch.setattr(words.BarWord, "__new__", refuse)
    for (bar, side), terms in expected.items():
        assert _expansion(bar, side, {}) == terms


def test_checker_recovers_after_mutation():
    report = check_axioms((Letter("a"),), 3)
    assert report.passed


# ---------------------------------------------------------------------------
# Classical fixture: collapsing the run structure of the right legs turns the
# engine's half-coproducts into the plain unshuffling of a single tensor
# algebra (left leg the chosen subword, right leg the complementary subword
# as ONE word).  That collapsed structure must satisfy the same three
# half-coproduct coassociativity axioms.

def _collapsed_half(w: Word, side: Side) -> dict:
    out = {}
    for (x, y), c in half_unshuffle(w, side, reduced=True):
        key = (Word(l for v in x.words for l in v.letters),
               Word(l for v in y.words for l in v.letters))
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def _collapsed_bar(w: Word) -> dict:
    left = _collapsed_half(w, Side.LEFT)
    for k, v in _collapsed_half(w, Side.RIGHT).items():
        left[k] = left.get(k, 0) + v
    return {k: v for k, v in left.items() if v}


def _triple(first, then, on_left):
    out = {}
    for (x, y), c in first.items():
        inner = then(x) if on_left else then(y)
        for (u, v), c2 in inner.items():
            key = (u, v, y) if on_left else (x, u, v)
            out[key] = out.get(key, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def test_classical_tensor_algebra_fixture():
    letters = (Letter("a"), Letter("b"))
    for w in words_up_to(letters, 5):
        if len(w) < 2:
            continue
        # collapsed unshuffle is the plain subset/complement pairing
        expect = {}
        n = len(w)
        for r in range(n + 1):
            for S in itertools.combinations(range(1, n + 1), r):
                key = (w.subword(S), w.subword(set(range(1, n + 1)) - set(S)))
                expect[key] = expect.get(key, 0) + 1
        expect.pop((w, Word()), None)
        expect.pop((Word(), w), None)
        got = dict(_collapsed_bar(w))
        assert got == {k: v for k, v in expect.items() if v}, w
        # the three axioms for the collapsed reduced halves
        prec, succ = _collapsed_half(w, Side.LEFT), _collapsed_half(w, Side.RIGHT)
        lhalf = lambda x: _collapsed_half(x, Side.LEFT)
        rhalf = lambda x: _collapsed_half(x, Side.RIGHT)
        assert _triple(prec, lhalf, True) == _triple(prec, _collapsed_bar, False), w
        assert _triple(prec, rhalf, True) == _triple(succ, lhalf, False), w
        assert _triple(succ, _collapsed_bar, True) == _triple(succ, rhalf, False), w


@pytest.mark.parametrize("defect", [None, "drop-left-singleton"])
def test_unshuffle_bar_against_brute_force(defect):
    # the sum over S of w_S (x) runs([n]-S): LEFT takes the subsets holding
    # position 1, RIGHT the proper subsets avoiding it, FULL all subsets;
    # the defect drops LEFT's S = {1} term and nothing else
    a, b, c = Letter("a"), Letter("b"), Letter("c")
    with inject_defect(defect) if defect else nullcontext():
        for letters, degree in (((a, b, c), 4), ((a,), 10), ((a, b), 7)):
            for w in (Word(), *words_up_to(letters, degree)):
                _check_against_brute_force(w, defect is not None)


def _check_against_brute_force(w: Word, drop_singleton: bool):
    n = len(w)
    everything = set(range(1, n + 1))
    subsets = [set(S) for r in range(n + 1)
               for S in itertools.combinations(range(1, n + 1), r)]
    chosen = {Side.LEFT: [S for S in subsets if 1 in S and not (drop_singleton and S == {1})],
              Side.RIGHT: [S for S in subsets if 1 not in S and S != everything],
              Side.FULL: subsets}
    for side, picks in chosen.items():
        expect = {}
        for S in picks:
            rest = sorted(everything - S)
            runs = [tuple(g) for _, g in itertools.groupby(
                rest, key=lambda i, c=itertools.count(): i - next(c))]
            key = (BarWord.from_word(w.subword(S)),
                   BarWord(w.subword(run) for run in runs))
            expect[key] = expect.get(key, 0) + 1
        assert unshuffle_bar(w, side).terms == expect, (w, side)
