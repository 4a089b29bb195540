import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest

import shuffleprob as sp
from shuffleprob import Distribution, ValidationError, Word, cumulants
from shuffleprob.cumulants import CumulantKind, TruncatedSeries, series
from shuffleprob.mutations import inject_defect
from shuffleprob.words import word_bars_up_to, words_up_to

from conftest import AB, random_fraction

A, B = AB


def uw(letter, k):
    return Word((letter,) * k)


def random_distribution(seed, letters=AB, max_degree=5):
    rng = random.Random(seed)
    values = {}
    for w in words_up_to(letters, max_degree):
        v = random_fraction(rng)
        if v:
            values[w] = v
    phi = sp.exp_left(sp.infinitesimal(values))
    moments = {w: phi(w) for w in words_up_to(letters, max_degree) if phi(w)}
    return Distribution(tuple(letters), max_degree, moments)


def test_distribution_validation():
    with pytest.raises(ValidationError):
        Distribution((), 3, {})
    with pytest.raises(ValidationError):
        Distribution((A,), 0, {})
    with pytest.raises(ValidationError):
        Distribution((A,), 2, {uw(A, 3): F(1)})
    with pytest.raises(ValidationError):
        Distribution((A,), 2, {uw(B, 1): F(1)})
    with pytest.raises(ValidationError):
        Distribution((A,), 2, {Word(): F(2)})


def test_distribution_is_an_immutable_value():
    d = Distribution((A,), 2, {Word(): 1, uw(A, 2): F(1)})
    same = Distribution([A], 2, {uw(A, 2): 1})
    assert d == same and d.moments == {uw(A, 2): 1} and d.letters == (A,)
    assert d != Distribution((A,), 3, {uw(A, 2): 1})
    assert d != Distribution((A, B), 2, {uw(A, 2): 1})
    for field in ("letters", "max_degree", "moments"):
        with pytest.raises(AttributeError):
            setattr(d, field, getattr(d, field))
        with pytest.raises(AttributeError):
            delattr(d, field)
    with pytest.raises(AttributeError):
        d.extra = 1
    with pytest.raises(TypeError):
        hash(d)
    assert repr(d) == ("Distribution(letters=(Letter(name='a', tag=0),), max_degree=2, "
                       "moments={a.a: Fraction(1, 1)})")
    for copied in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert copied == d
    # protocol 0 too, for the marked maps of the constructor and the engine
    assert pickle.loads(pickle.dumps(d, 0)) == d
    c = sp.to_cumulants(d, "free")
    assert pickle.loads(pickle.dumps(c, 0)) == c


def test_distribution_moments_are_a_read_only_view():
    # a store through d.moments would change a value that compares equal
    # by its moments, and put a float where the engine reads a Fraction
    d = sp.semicircle(4)
    a = d.letters[0]
    free = sp.to_cumulants(d, "free")
    with pytest.raises(TypeError):
        d.moments[uw(a, 2)] = 0.5
    with pytest.raises(TypeError):
        del d.moments[uw(a, 2)]
    assert d == sp.semicircle(4) and d.moment(uw(a, 2)) == 1
    assert sp.to_cumulants(d, "free") == free


def test_semicircle_fixed_vectors():
    sem = sp.semicircle(6)
    a = sem.letters[0]
    assert [sem.moment(uw(a, k)) for k in range(1, 7)] == [0, 1, 0, 2, 0, 5]
    free = sp.to_cumulants(sem, "free")
    boolean = sp.to_cumulants(sem, "boolean")
    mono = sp.to_cumulants(sem, "monotone")
    assert free == {uw(a, 2): 1}
    assert boolean == {uw(a, 2): 1, uw(a, 4): 1, uw(a, 6): 2}
    assert mono[uw(a, 4)] == F(1, 2)


def test_from_cumulants_catalan_and_interval():
    sem = sp.semicircle(6)
    a = sem.letters[0]
    pair = {uw(a, 2): F(1)}
    free_d = sp.from_cumulants(pair, "free", sem.letters, 6)
    assert [free_d.moment(uw(a, k)) for k in range(1, 7)] == [0, 1, 0, 2, 0, 5]
    bool_d = sp.from_cumulants(pair, "boolean", sem.letters, 6)
    assert [bool_d.moment(uw(a, k)) for k in range(1, 7)] == [0, 1, 0, 1, 0, 1]
    zero_d = sp.from_cumulants({}, "monotone", sem.letters, 4)
    assert zero_d.moments == {}


def test_round_trips_all_kinds():
    d = random_distribution(50)
    for kind in CumulantKind:
        back = sp.from_cumulants(sp.to_cumulants(d, kind), kind, d.letters, d.max_degree)
        assert back.moments == d.moments, kind


def test_oracle_equivalence_random():
    for seed in (51, 52, 53):
        d = random_distribution(seed, max_degree=4)
        for kind in CumulantKind:
            cums = sp.to_cumulants(d, kind)
            for w in d.words():
                assert sp.oracle_moments(cums, kind, w) == d.moment(w), (kind, w)


def test_convert_examples():
    a = A
    pair = {uw(a, 2): F(1)}
    boolean = sp.convert(pair, "free", "boolean", 4, (a,))
    assert boolean == {uw(a, 2): 1, uw(a, 4): 1}
    mono = sp.convert(pair, "boolean", "monotone", 4, (a,))
    assert mono == {uw(a, 2): 1, uw(a, 4): F(-1, 2)}
    same = sp.convert(pair, "free", "free", 4, (a,))
    assert same == pair


def test_convert_round_trips_and_detour():
    d = random_distribution(54, max_degree=4)
    base = sp.to_cumulants(d, "free")
    for src in CumulantKind:
        start = sp.convert(base, "free", src, 4, d.letters)
        for dst in CumulantKind:
            there = sp.convert(start, src, dst, 4, d.letters)
            detour = sp.to_cumulants(sp.from_cumulants(start, src, d.letters, 4), dst)
            assert there == detour, (src, dst)
            back = sp.convert(there, dst, src, 4, d.letters)
            assert back == start, (src, dst)


def test_convert_infers_letters():
    pair = {uw(A, 2): F(1)}
    assert sp.convert(pair, "free", "boolean", 4) == {uw(A, 2): 1, uw(A, 4): 1}
    with pytest.raises(ValidationError):
        sp.convert({}, "free", "boolean", 4)


def test_convert_infers_letters_from_the_kept_keys_only(monkeypatch):
    # a key above max_degree is dropped, so its letters are no letters of
    # the sweep: z^9 adds no word over z
    z = sp.Letter("z")
    expected = sp.convert({uw(A, 2): 1}, "free", "boolean", 8)
    swept = []

    def spy(letters, max_degree):
        swept.append(tuple(letters))
        return word_bars_up_to(letters, max_degree)

    monkeypatch.setattr(cumulants, "word_bars_up_to", spy)
    assert sp.convert({uw(A, 2): 1, uw(z, 9): 1}, "free", "boolean", 8) == expected
    assert swept == [(A,)]
    with pytest.raises(ValidationError, match="no key up to max_degree"):
        sp.convert({uw(z, 9): 1}, "free", "boolean", 8)


def test_degree_one_two_cumulants_agree():
    d = random_distribution(55, max_degree=3)
    maps = [sp.to_cumulants(d, kind) for kind in CumulantKind]
    for w in words_up_to(d.letters, 2):
        vals = {F(m.get(w, 0)) for m in maps}
        assert len(vals) == 1, w
    # and the one-letter degree-2 value is the variance
    a = d.letters[0]
    assert maps[0].get(uw(a, 2), F(0)) == d.moment(uw(a, 2)) - d.moment(uw(a, 1)) ** 2


def test_moment_series_fixed_point():
    d = random_distribution(56, max_degree=4)
    M = series(d, "M")
    eta = series(d, "eta")
    assert M == eta + M * eta


def test_series_fixed_examples():
    sem = sp.semicircle(6)
    a = sem.letters[0]
    R = series(sem, "R")
    assert R.coefficients == {uw(a, 2): 1}
    pm = sp.point_mass(F(5, 2), 4)
    eta = series(pm, "eta")
    assert eta.coefficients == {uw(pm.letters[0], 1): F(5, 2)}
    with pytest.raises(ValidationError):
        series(sem, "Q")


def test_series_arithmetic_does_not_depend_on_operand_order():
    s = TruncatedSeries((A,), 3, {uw(A, 1): 1})
    t = TruncatedSeries((A,), 5, {uw(A, 1): 2, uw(A, 4): 1})
    assert s + t == t + s == TruncatedSeries((A,), 3, {uw(A, 1): 3})
    assert s * t == t * s == TruncatedSeries((A,), 3, {uw(A, 2): 2})
    assert (t * s).max_degree == 3


@pytest.mark.parametrize("combine", [lambda s: s * 2, lambda s: 2 * s,
                                     lambda s: s + 1, lambda s: 1 + s],
                         ids=["s*2", "2*s", "s+1", "1+s"])
def test_series_arithmetic_with_a_number_raises_type_error(combine):
    # a series combines only with a series; the other operand gets its turn
    # through NotImplemented, and Python raises TypeError
    s = TruncatedSeries((A,), 3, {uw(A, 1): 1})
    with pytest.raises(TypeError):
        combine(s)


def test_series_letters_are_checked_and_compared():
    over_a, over_b = TruncatedSeries((A,), 2, {}), TruncatedSeries((B,), 2, {})
    assert over_a != over_b
    assert over_a == TruncatedSeries((A,), 2, {})
    for combine in (lambda s, t: s + t, lambda s, t: s * t):
        with pytest.raises(ValidationError):
            combine(over_a, over_b)
    with pytest.raises(ValidationError):
        TruncatedSeries("ab", 2, {})


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        sp.to_cumulants(sp.semicircle(2), "classical")


def test_convert_rejects_keys_that_are_not_words():
    with pytest.raises(ValidationError):
        sp.convert({5: F(1)}, "free", "boolean", 3)
    with pytest.raises(ValidationError):
        sp.convert({Word(): F(0)}, "free", "boolean", 3, (A,))


def test_cumulant_maps_reject_undeclared_letters():
    stray = {uw(B, 1): F(1)}
    with pytest.raises(ValidationError):
        sp.from_cumulants(stray, "free", (A,), 2)
    with pytest.raises(ValidationError):
        sp.convert(stray, "free", "boolean", 2, (A,))
    # keys above max_degree still truncate
    pair = {uw(A, 2): F(1), uw(A, 5): F(7)}
    assert sp.convert(pair, "free", "boolean", 4, (A,)) == {uw(A, 2): 1, uw(A, 4): 1}
    assert sp.from_cumulants(pair, "free", (A,), 2).moments == {uw(A, 2): 1}


def random_cumulant_map(seed, letters=AB, max_degree=6):
    rng = random.Random(seed)
    return {w: F(rng.randint(-3, 3), rng.randint(1, 12))
            for w in words_up_to(letters, max_degree)}


ORACLE_PAIRS = (("free", "boolean"), ("boolean", "free"), ("monotone", "boolean"))


def test_convert_matches_the_partition_oracle():
    for seed, (src, dst) in enumerate(ORACLE_PAIRS, 57):
        c = random_cumulant_map(seed)
        got = sp.convert(c, src, dst, 6, AB)
        for w in words_up_to(AB, 6):
            assert got.get(w, 0) == sp.oracle_convert(c, src, dst, w), (src, dst, w)


def test_partition_oracle_catches_a_wrong_magnus_coefficient():
    c = random_cumulant_map(57)
    with inject_defect("skip-bernoulli-2"):
        # below degree 9 free and boolean convert through moments, and monotone
        # to boolean reads W alone; free to monotone reads O, whose boolean
        # cumulants by the oracle then miss those of c
        h = sp.convert(c, "free", "monotone", 6, AB)
    assert any(sp.oracle_convert(h, "monotone", "boolean", w)
               != sp.oracle_convert(c, "free", "boolean", w) for w in words_up_to(AB, 6))


def _catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def test_univariate_degree_40_closed_forms():
    """Every family reaches degree 40 in one variable, both ways, with no
    RecursionError at the default recursion limit: boolean by the pruned
    pairings, free and monotone through the boolean logarithm."""
    n = 40
    a = sp.semicircle(1).letters[0]
    evens = range(1, n // 2 + 1)
    catalans = {uw(a, 2 * k): _catalan(k - 1) for k in evens}
    c = F(-2, 3)
    # the arcsine law, m_2k = C(2k, k) / 2^k, is the monotone central limit
    arcsine = Distribution.univariate("a", [
        F(math.comb(k, k // 2), 2 ** (k // 2)) if k % 2 == 0 else F(0)
        for k in range(1, n + 1)], n)
    closed_forms = [
        (sp.semicircle(n), {"free": {uw(a, 2): 1}, "boolean": catalans}),
        (arcsine, {"monotone": {uw(a, 2): 1}}),
        (sp.bernoulli_symmetric(n), {
            "boolean": {uw(a, 2): 1},
            "free": {uw(a, 2 * k): (-1) ** (k - 1) * _catalan(k - 1) for k in evens}}),
        (sp.point_mass(c, n), {kind.value: {uw(a, 1): c} for kind in CumulantKind}),
    ]
    for d, families in closed_forms:
        for kind, cumulants in families.items():
            assert sp.to_cumulants(d, kind) == cumulants, kind
            assert sp.from_cumulants(cumulants, kind, (a,), n).moments == d.moments, kind
        monotone = sp.to_cumulants(d, "monotone")
        assert sp.from_cumulants(monotone, "monotone", (a,), n).moments == d.moments
    assert sp.convert({uw(a, 2): 1}, "free", "boolean", n, (a,)) == catalans
    assert sp.from_cumulants({uw(a, 2): 1}, "boolean", (a,), n).moments == {
        uw(a, 2 * k): 1 for k in evens}


@pytest.mark.parametrize("letters", [(A, A), (A, "b"), ()])
def test_declared_letters_follow_one_rule(letters, monkeypatch):
    with pytest.raises(ValidationError):
        Distribution(letters, 2, {})
    with pytest.raises(ValidationError):
        TruncatedSeries(letters, 2, {})
    with pytest.raises(ValidationError):
        sp.convert({uw(A, 2): F(1)}, "free", "boolean", 4, letters)
    # from_cumulants refuses the letters before it evaluates anything
    def no_evaluation(*args):
        raise AssertionError("evaluated before the letters were checked")
    monkeypatch.setattr(cumulants, "_route", no_evaluation)
    with pytest.raises(ValidationError):
        sp.from_cumulants({uw(A, 2): F(1)}, "free", letters, 4)
