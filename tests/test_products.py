import random
from fractions import Fraction as F

import pytest

import shuffleprob as sp
from shuffleprob import (DomainError, Distribution, LabeledContext, Side,
                         ValidationError, Word)
from shuffleprob.verify import (_closed_antimonotone, _closed_boolean, _closed_free,
                                _closed_monotone)

from conftest import AB, random_fraction, random_inf

A, B = AB


def univariate(seed, name, max_degree=5):
    rng = random.Random(seed)
    return Distribution.univariate(
        name, [random_fraction(rng) for _ in range(max_degree)], max_degree)


def context(seed=60, max_degree=5):
    return LabeledContext.from_distributions(univariate(seed, "x", max_degree),
                                             univariate(seed + 1, "y", max_degree))


def test_context_requires_disjoint_names():
    with pytest.raises(ValidationError):
        LabeledContext.from_distributions(univariate(1, "x"), univariate(2, "x"))


def test_context_refuses_non_distributions():
    d = univariate(1, "x").retag(1)
    for args in ((1, 2), (d, None), ({"x": 1}, d)):
        with pytest.raises(ValidationError, match="embeds two Distributions"):
            LabeledContext(*args)
        with pytest.raises(ValidationError, match="embeds two Distributions"):
            LabeledContext.from_distributions(*args)


def test_monotone_closed_form_examples():
    ctx = context()
    x = ctx.d1.letters[0]
    y = ctx.d2.letters[0]
    phi1, phi2 = ctx.characters()
    mono = sp.monotone_conv(phi1, phi2)
    anti = sp.antimonotone_conv(phi1, phi2)
    # x y x': inner product on the first algebra, scalar factor on the second
    wxyx = Word((x, y, x))
    assert mono(wxyx) == ctx.d1.moment(Word((x, x))) * ctx.d2.moment(Word((y,)))
    assert mono(Word((x,))) == ctx.d1.moment(Word((x,)))
    # y x y': the swapped product groups the y letters instead
    wyxy = Word((y, x, y))
    assert anti(wyxy) == ctx.d2.moment(Word((y, y))) * ctx.d1.moment(Word((x,)))
    assert mono(wyxy) == (ctx.d1.moment(Word((x,)))
                          * ctx.d2.moment(Word((y,))) ** 2)


def test_universal_products_on_all_alternating_words():
    ctx = context(61)
    phi1, phi2 = ctx.characters()
    mono = sp.monotone_conv(phi1, phi2)
    anti = sp.antimonotone_conv(phi1, phi2)
    free = sp.free_conv(phi1, phi2)
    boole = sp.boolean_conv(phi1, phi2)
    for w in ctx.alternating_words(5):
        assert mono(w) == _closed_monotone(ctx, mono, w), ("monotone", w)
        assert anti(w) == _closed_antimonotone(ctx, anti, w), ("antimonotone", w)
        assert free(w) == _closed_free(ctx, free, w), ("free", w)
        assert boole(w) == _closed_boolean(ctx, boole, w), ("boolean", w)


def test_free_product_mixed_pair_moment():
    ctx = context(62)
    x, y = ctx.d1.letters[0], ctx.d2.letters[0]
    free = sp.free_conv(*ctx.characters())
    assert free(Word((x, y))) == ctx.d1.moment(Word((x,))) * ctx.d2.moment(Word((y,)))


def test_free_product_recursion_path():
    ctx = context(63)
    free = sp.free_conv(*ctx.characters())
    rec = sp.hs_left(free, sp.functionals.positive_part(sp.neumann_inverse(free)))
    for w in ctx.alternating_words(5):
        if len(w) >= 2:
            assert free(w) == -rec(w), w


def test_convolutions_group_laws():
    p = sp.exp_left(random_inf(64))
    q = sp.exp_left(random_inf(65))
    r = sp.exp_left(random_inf(66))
    for op in (sp.free_conv, sp.boolean_conv):
        assert sp.agree_up_to(op(p, q), op(q, p), AB, 4) is None
        assert sp.agree_up_to(op(op(p, q), r), op(p, op(q, r)), AB, 4) is None
        assert sp.agree_up_to(op(p, sp.e), p, AB, 5) is None


def test_linearisation():
    g1, g2 = random_inf(67), random_inf(68)
    assert sp.agree_up_to(
        sp.log_left(sp.free_conv(sp.exp_left(g1), sp.exp_left(g2))),
        g1 + g2, AB, 5) is None
    assert sp.agree_up_to(
        sp.log_right(sp.boolean_conv(sp.exp_right(g1), sp.exp_right(g2))),
        g1 + g2, AB, 5) is None


def test_factorize():
    g1, g2 = random_inf(69), random_inf(70)
    zero = sp.infinitesimal({})
    f1, f2 = sp.factorize(g1, g2, Side.LEFT)
    assert sp.agree_up_to(sp.conv(f1, f2), sp.exp_left(g1 + g2), AB, 4) is None
    r1, r2 = sp.factorize(g1, g2, Side.RIGHT)
    assert sp.agree_up_to(sp.conv(r1, r2), sp.exp_right(g1 + g2), AB, 4) is None
    _, trivial = sp.factorize(g1, zero, Side.LEFT)
    assert sp.agree_up_to(trivial, sp.e, AB, 4) is None


def test_subordination_identities():
    P1 = sp.exp_left(random_inf(71))
    P2 = sp.exp_left(random_inf(72))
    P3 = sp.exp_left(random_inf(73))
    left = lambda a, b: sp.subordinate(a, b, Side.LEFT)
    assert sp.agree_up_to(left(P1, sp.e), P1, AB, 4) is None
    assert sp.agree_up_to(sp.free_conv(P1, P2),
                          sp.conv(P1, left(P2, P1)), AB, 4) is None
    assert sp.agree_up_to(sp.free_conv(P1, P2),
                          sp.conv(P2, left(P1, P2)), AB, 4) is None
    assert sp.agree_up_to(
        left(sp.free_conv(P1, P2), P3),
        sp.free_conv(left(P1, P3), left(P2, P3)), AB, 4) is None
    assert sp.agree_up_to(
        sp.free_conv(P1, P2),
        sp.boolean_conv(left(P1, P2), left(P2, P1)), AB, 4) is None
    assert sp.agree_up_to(
        sp.log_right(sp.free_conv(P1, P2)),
        sp.log_right(left(P1, P2)) + sp.log_right(left(P2, P1)), AB, 4) is None
    # right-sided decomposition
    assert sp.agree_up_to(
        sp.boolean_conv(P1, P2),
        sp.conv(sp.subordinate(P2, P1, Side.RIGHT), P2), AB, 4) is None


def test_bp_fixed_points_and_semigroup():
    phi = sp.exp_left(random_inf(74))
    assert sp.agree_up_to(sp.bp(phi), sp.subordinate(phi, phi, Side.LEFT), AB, 5) is None
    assert sp.agree_up_to(sp.bp_t(phi, 0), phi, AB, 5) is None
    assert sp.agree_up_to(sp.bp_t(phi, 1), sp.bp(phi), AB, 5) is None
    assert sp.agree_up_to(sp.bp_t(sp.bp_t(phi, F(1, 3)), F(2, 3)),
                          sp.bp(phi), AB, 4) is None
    assert sp.agree_up_to(sp.bp_inverse(sp.bp(phi)), phi, AB, 5) is None
    with pytest.raises(DomainError):
        sp.bp_t(phi, F(-1, 2))


def test_bp_boolean_power_closed_form():
    phi = sp.exp_left(random_inf(75))
    t = F(1, 2)
    gamma = sp.log_right(phi)
    closed = sp.hs_power(sp.exp_left(t * gamma), 1 / t, Side.RIGHT)
    assert sp.agree_up_to(sp.bp_t(phi, t), closed, AB, 4) is None


def test_bernoulli_to_semicircle():
    bern = sp.bernoulli_symmetric(6)
    image = sp.bp_distribution(bern)
    assert image.moments == sp.semicircle(6).moments


def test_semicircle_free_convolution_moments():
    sem = sp.semicircle(6)
    total = sp.convolve_distributions(sem, sem, "free")
    a = sem.letters[0]
    got = [total.moment(Word((a,) * k)) for k in range(1, 7)]
    assert got == [0, 2, 0, 8, 0, 40]


def test_convolve_validation():
    sem = sp.semicircle(4)
    other = sp.semicircle(4, name="b")
    with pytest.raises(ValidationError):
        sp.convolve_distributions(sem, other, "free")
    with pytest.raises(ValidationError):
        sp.convolve_distributions(sem, sem, "classical")


def test_alternating_word_validation():
    ctx = context(76)
    x = ctx.d1.letters[0]
    with pytest.raises(DomainError):
        _closed_monotone(ctx, None, Word((x, x)))
    with pytest.raises(DomainError):
        _closed_boolean(ctx, None, Word((A,)))
