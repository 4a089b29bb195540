"""Property tests of the scaled entry points: on random maps, every route
of :func:`to_cumulants`, :func:`from_cumulants` and :func:`convert`, scaled
by theta_D or, with a Magnus node, by theta_{D L}, and every
distribution-level product, equals ``tabulate`` of the same tree built on
unscaled leaves, and returns Fractions only, keyed by Words.  On one letter
at degrees 8 to 11, both sides of the free threshold, the routes also equal
the defining logarithms and exponentials, and each conversion its Magnus
composition through monotone."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import shuffleprob as sp  # noqa: E402
from shuffleprob import Distribution, Letter, Word, cumulants, functionals as fn  # noqa: E402
from shuffleprob import products as pr  # noqa: E402
from shuffleprob.coproducts import Side  # noqa: E402
from shuffleprob.cumulants import CumulantKind, tabulate  # noqa: E402
from shuffleprob.words import words_up_to  # noqa: E402

#: no example database in the checkout, and no deadline on a shared machine
SETTINGS = settings(max_examples=30, deadline=None, database=None)

PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
LETTERS = tuple(Letter(n) for n in "abc")


@st.composite
def value_maps(draw, letters, n):
    """{word: value} on some words over letters up to degree n, each value a
    signed p/q with q 1 or a prime up to 199."""
    words = list(words_up_to(letters, n))
    keys = draw(st.lists(st.sampled_from(words), min_size=1, max_size=len(words), unique=True))
    return {w: F(draw(st.integers(-9, 9)), draw(st.sampled_from([1] + PRIMES))) for w in keys}


@st.composite
def cumulant_maps(draw, degrees=None):
    """(letters, max_degree, value map) on 1 or 2 letters up to degree 5 or
    3 letters up to degree 4, or, when degrees is given, on one letter at
    one of those degrees."""
    if degrees is None:
        k = draw(st.integers(1, 3))
        n = draw(st.integers(1, 5 if k < 3 else 4))
    else:
        k, n = 1, draw(st.sampled_from(degrees))
    letters = LETTERS[:k]
    return letters, n, draw(value_maps(letters, n))


@st.composite
def distribution_pairs(draw):
    """Two distributions over the same letters and max_degree."""
    letters, n, moments = draw(cumulant_maps())
    return (Distribution(letters, n, moments),
            Distribution(letters, n, draw(value_maps(letters, n))))


def same(got, tree, letters, n):
    want = tabulate(tree, letters, n)
    assert got == want
    assert all(type(v) is F for v in got.values())
    # a word equals the tuple of its letters, so == alone would pass tuple keys
    assert all(type(w) is Word for w in got) and all(type(w) is Word for w in want)


@SETTINGS
@given(cumulant_maps())
def test_scaled_routes_equal_unscaled_trees(drawn):
    letters, n, c = drawn
    d = Distribution(letters, n, c)
    for kind in CumulantKind:
        same(sp.to_cumulants(d, kind), cumulants.cumulant_functional(d, kind), letters, n)
        same(sp.from_cumulants(c, kind, letters, n).moments,
             cumulants._route(kind, cumulants._MOMENTS, n)(fn.infinitesimal(c)), letters, n)
        for dst in CumulantKind:
            same(sp.convert(c, kind, dst, n, letters),
                 cumulants._route(kind, dst, n)(fn.infinitesimal(c)), letters, n)


#: Each family's defining logarithm and exponential.
DEFINING = {CumulantKind.FREE: (fn.log_left, fn.exp_left),
            CumulantKind.BOOLEAN: (fn.log_right, fn.exp_right),
            CumulantKind.MONOTONE: (fn.log_star, fn.exp_star)}


@SETTINGS
@given(cumulant_maps(degrees=range(8, 12)))
def test_routes_across_the_free_threshold(drawn):
    # cumulants._FREE_VIA_BOOLEAN_DEGREE is 9: the free routes change there
    letters, n, c = drawn
    d = Distribution(letters, n, c)
    phi, alpha = d.character(), fn.infinitesimal(c)
    for kind in CumulantKind:
        log, exp = DEFINING[kind]
        got = sp.to_cumulants(d, kind)
        same(got, cumulants._route(cumulants._MOMENTS, kind, n)(phi), letters, n)
        same(got, log(phi), letters, n)
        got = sp.from_cumulants(c, kind, letters, n).moments
        same(got, cumulants._route(kind, cumulants._MOMENTS, n)(alpha), letters, n)
        same(got, exp(alpha), letters, n)
        for dst in CumulantKind:
            got = sp.convert(c, kind, dst, n, letters)
            same(got, cumulants._route(kind, dst, n)(alpha), letters, n)
            same(got, DEFINING[dst][0](exp(alpha)), letters, n)
            # below 9, free and boolean convert through moments, which is
            # the line above; the Magnus composition reads O and W
            via = cumulants._VIA_MONOTONE
            same(got, via[dst][1](via[kind][0](alpha)), letters, n)


@SETTINGS
@given(distribution_pairs())
def test_scaled_products_equal_unscaled_trees(pair):
    d1, d2 = pair
    letters, n = d1.letters, d1.max_degree
    phi1, phi2 = d1.character(), d2.character()
    convolutions = {"free": pr.free_conv, "boolean": pr.boolean_conv,
                    "monotone-left": pr.monotone_conv, "monotone-right": pr.antimonotone_conv}
    for kind, op in convolutions.items():
        same(pr.convolve_distributions(d1, d2, kind).moments, op(phi1, phi2), letters, n)
    for side, side_enum in (("left", Side.LEFT), ("right", Side.RIGHT)):
        same(pr.subordinate_distributions(d1, d2, side).moments,
             pr.subordinate(phi1, phi2, side_enum), letters, n)
    for t in (F(0), F(1, 2), F(1), F(2)):
        same(pr.bp_distribution(d1, t).moments, pr.bp_t(phi1, t), letters, n)
