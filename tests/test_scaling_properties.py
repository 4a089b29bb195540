"""Property tests of the scaled entry points: on random cumulant maps, every
route of :func:`to_cumulants`, :func:`from_cumulants` and :func:`convert`,
scaled by theta_D or, with a Magnus node, by theta_{D L}, equals
``tabulate`` of the same tree built on unscaled leaves, and returns
Fractions only."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import shuffleprob as sp  # noqa: E402
from shuffleprob import Distribution, Letter, cumulants, functionals as fn  # noqa: E402
from shuffleprob.cumulants import CumulantKind, tabulate  # noqa: E402
from shuffleprob.words import words_up_to  # noqa: E402

#: no example database in the checkout, and no deadline on a shared machine
SETTINGS = settings(max_examples=30, deadline=None, database=None)

PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
LETTERS = tuple(Letter(n) for n in "abc")


@st.composite
def cumulant_maps(draw):
    """(letters, max_degree, {word: value}) on 1 or 2 letters up to degree 5
    or 3 letters up to degree 4, each value a signed p/q with q 1 or a prime
    up to 199."""
    k = draw(st.integers(1, 3))
    letters = LETTERS[:k]
    n = draw(st.integers(1, 5 if k < 3 else 4))
    words = list(words_up_to(letters, n))
    keys = draw(st.lists(st.sampled_from(words), min_size=1, max_size=len(words), unique=True))
    values = {w: F(draw(st.integers(-9, 9)), draw(st.sampled_from([1] + PRIMES)))
              for w in keys}
    return letters, n, values


def same(got, tree, letters, n):
    assert got == tabulate(tree, letters, n)
    assert all(type(v) is F for v in got.values())


@SETTINGS
@given(cumulant_maps())
def test_scaled_routes_equal_unscaled_trees(drawn):
    letters, n, c = drawn
    d = Distribution(letters, n, c)
    for kind in CumulantKind:
        same(sp.to_cumulants(d, kind), cumulants.cumulant_functional(d, kind), letters, n)
        same(sp.from_cumulants(c, kind, letters, n).moments,
             cumulants._exponential(kind, n)[1](fn.infinitesimal(c)), letters, n)
        for dst in CumulantKind:
            same(sp.convert(c, kind, dst, n, letters),
                 cumulants._convert_functional(fn.infinitesimal(c), kind, dst), letters, n)
