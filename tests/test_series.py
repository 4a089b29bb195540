"""Each series node against the explicit sum of its iterates.

exp*, log*, the Magnus map O and its inverse W each evaluate all their
iterates at a bar word in one kernel.  The references here are built from
public nodes only: the iterates are ``conv`` and ``prelie`` nodes, summed
with Fraction coefficients.  O is the fixed point O = sum_m c_m L_O^m(k),
L_x(y) = x |> y, reached by repeating O <- sum_m c_m L_O^m(k) from O = k:
each round fixes one more degree, so d rounds are exact to degree d.
The reference values are read once, on every bar word, into a table;
every value of a series is read through its memo, flags included, and
past the flags by ``agree_up_to``.
"""

import random
from fractions import Fraction as F
from math import factorial

import pytest

import shuffleprob as sp
from shuffleprob import mutations
from shuffleprob.magnus import _magnus_inverse_twisted, _magnus_twisted, bernoulli
from shuffleprob.words import EMPTY_BAR, all_barwords, words_up_to

from conftest import AB

SHAPES = {"2 letters to degree 6": (AB, 6), "3 letters to degree 4": (AB + (sp.Letter("c"),), 4)}
LEAVES = ("int", "Fraction", "mixed")


def _values(seed, letters, n, leaves):
    rng = random.Random(seed)

    def draw():
        if leaves == "int" or leaves == "mixed" and rng.random() < 0.5:
            return rng.randint(-3, 3)
        return F(rng.randint(-3, 3), rng.randint(1, 4))

    return {u: draw() for u in words_up_to(letters, n)}


def _sum(terms):
    out = sp.infinitesimal({})
    for c, f in terms:
        out = out + c * f
    return out


def _powers(base, n):
    out = [base]
    while len(out) < n:
        out.append(sp.conv(out[-1], base))
    return out


def _iterates(f, first, n):
    """first, f |> first, f |> (f |> first), ...: n pre-Lie iterates."""
    out = [first]
    while len(out) < n:
        out.append(sp.prelie(f, out[-1]))
    return out


def _magnus_coeffs(n):
    skip = mutations.is_active("skip-bernoulli-2")
    return [F(0) if skip and m == 2 else bernoulli[m] / factorial(m) for m in range(n)]


def _exp_star(alpha, n):
    return sp.e + _sum((F(1, factorial(k + 1)), p) for k, p in enumerate(_powers(alpha, n)))


def _log_star(phi, n):
    return _sum((F((-1) ** k, k + 1), p) for k, p in enumerate(_powers(phi - sp.e, n)))


def _magnus(kappa, n):
    omega = kappa
    for _ in range(n):
        omega = _sum(zip(_magnus_coeffs(n), _iterates(omega, kappa, n)))
    return omega


def _magnus_inverse(rho, n):
    return _sum((F(1, factorial(k + 1)), t) for k, t in enumerate(_iterates(rho, rho, n)))


#: series name -> (engine constructor, reference, leaf constructor)
SERIES = {
    "exp_star": (sp.exp_star, _exp_star, sp.infinitesimal),
    "log_star": (sp.log_star, _log_star, sp.character),
    "magnus": (sp.magnus, _magnus, sp.infinitesimal),
    "magnus_inverse": (sp.magnus_inverse, _magnus_inverse, sp.infinitesimal),
}


def _table(g, letters, n):
    return sp.from_values({b: g(b) for b in (EMPTY_BAR, *all_barwords(letters, n))})


def _same(f, want, letters, n):
    for b in (EMPTY_BAR, *all_barwords(letters, n)):
        assert f(b) == want(b), b
    assert sp.agree_up_to(f, want, letters, n) is None


def _twin(f):
    f.is_character = f.is_infinitesimal_character = False
    return f


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("leaves", LEAVES)
@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_is_the_sum_of_its_iterates(name, leaves, shape):
    build, reference, leaf = SERIES[name]
    letters, n = SHAPES[shape]
    arg = leaf(_values(sorted(SERIES).index(name), letters, n, leaves))
    want = _table(reference(arg, n), letters, n)
    _same(build(arg), want, letters, n)
    _same(_twin(build(arg)), want, letters, n)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("name", ("magnus", "magnus_twisted"))
def test_magnus_follows_skip_bernoulli_2(name, shape):
    # the mutated series is the mutated reference, and differs from O at degree 4
    letters, n = SHAPES[shape]
    kappa = sp.infinitesimal(_values(7, letters, n, "mixed"))
    with mutations.inject_defect("skip-bernoulli-2"):
        if name == "magnus":
            got, want = sp.magnus(kappa), _magnus(kappa, n)
        else:
            got, want = _magnus_twisted(kappa), -1 * _magnus(-1 * kappa, n)
        want = _table(want, letters, n)
        _same(got, want, letters, n)
        _same(_twin(_magnus_twisted(kappa) if "twisted" in name else sp.magnus(kappa)),
              want, letters, n)
    assert sp.agree_up_to(got, -1 * sp.magnus(-1 * kappa) if "twisted" in name
                          else sp.magnus(kappa), letters, 4) is not None


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("leaves", LEAVES)
def test_sign_twisted_series_fold_the_signs(leaves, shape):
    # -O(-k) is O with B_1 = +1/2, and -W(-k) is W with (-1)^n / (n+1)!
    letters, n = SHAPES[shape]
    kappa = sp.infinitesimal(_values(8, letters, n, leaves))
    for twisted, plain in ((_magnus_twisted, sp.magnus),
                           (_magnus_inverse_twisted, sp.magnus_inverse)):
        want = _table(-1 * plain(-1 * kappa), letters, n)
        _same(twisted(kappa), want, letters, n)
        _same(_twin(twisted(kappa)), want, letters, n)
