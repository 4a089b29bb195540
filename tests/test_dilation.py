"""Every construction of the verify suites is graded: the dilation
theta_6, f(b) -> 6^|b| f(b), commutes with it.  So the suites may draw the
theta_6 images of their Fraction leaves, which are ints, and certify the
same identities.  Each construction is built here on random Fraction leaves
over a, b and again on their images, and the two must agree at every bar
word to degree 4 up to the factor 6^|b|.  The first build runs the ratio
path of the pairing and series kernels and the second their int path, so
this is also a differential test of the one against the other."""

import random
from fractions import Fraction

import pytest

from shuffleprob import functionals as fn, products as pr
from shuffleprob.coproducts import Side
from shuffleprob.magnus import bch, magnus, magnus_inverse
from shuffleprob.words import EMPTY_BAR, all_barwords, words_up_to

from conftest import AB, random_fraction

N = 4
SCALE = 6
BARS = (EMPTY_BAR, *all_barwords(AB, N))


def leaves(scale, seed=0):
    """Three infinitesimal characters, two characters and two tables, one
    of them unital, with every value v at degree k read as v * scale^k: the
    same draws for every scale, Fractions at scale 1 and ints at scale 6."""
    rng = random.Random(seed)

    def draw(degree):
        v = random_fraction(rng) * scale ** degree
        return v if scale == 1 else int(v)

    def infinitesimal():
        return fn.infinitesimal({w: v for w in words_up_to(AB, N) if (v := draw(len(w)))})

    def table():
        return fn.from_values({b: v for b in all_barwords(AB, N)
                               if b.bar_length <= 2 and (v := draw(b.degree))})

    alpha, beta, gamma = (infinitesimal() for _ in range(3))
    phi, psi = (fn.exp_left(infinitesimal()) for _ in range(2))
    f, g = table(), table() + fn.unit()
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "phi": phi, "psi": psi,
            "f": f, "g": g}


S, T = Fraction(2, 3), Fraction(1, 2)

CONSTRUCTIONS = {
    "conv": lambda L: fn.conv(L["f"], L["g"]),
    "hs_left": lambda L: fn.hs_left(L["f"], L["g"]),
    "hs_right": lambda L: fn.hs_right(L["g"], L["f"]),
    "prelie": lambda L: fn.prelie(L["alpha"], L["beta"]),
    "neumann_inverse": lambda L: fn.neumann_inverse(L["g"]),
    "exp_left": lambda L: fn.exp_left(L["alpha"]),
    "exp_right": lambda L: fn.exp_right(L["alpha"]),
    "exp_star": lambda L: fn.exp_star(L["alpha"]),
    "log_left": lambda L: fn.log_left(L["phi"]),
    "log_right": lambda L: fn.log_right(L["phi"]),
    "log_star": lambda L: fn.log_star(L["phi"]),
    "adjoint": lambda L: fn.adjoint(L["phi"], L["alpha"]),
    "ad_action": lambda L: fn.ad_action(L["alpha"], L["beta"]),
    "hs_power_left": lambda L: fn.hs_power(L["phi"], S, Side.LEFT),
    "hs_power_right": lambda L: fn.hs_power(L["phi"], S, Side.RIGHT),
    "magnus": lambda L: magnus(L["alpha"]),
    "magnus_inverse": lambda L: magnus_inverse(L["alpha"]),
    "bch": lambda L: bch(L["alpha"], L["gamma"]),
    "free_conv": lambda L: pr.free_conv(L["phi"], L["psi"]),
    "boolean_conv": lambda L: pr.boolean_conv(L["phi"], L["psi"]),
    "subordinate_left": lambda L: pr.subordinate(L["phi"], L["psi"], Side.LEFT),
    "subordinate_right": lambda L: pr.subordinate(L["phi"], L["psi"], Side.RIGHT),
    "bp_t": lambda L: pr.bp_t(L["phi"], T),
}


def test_the_leaves_are_fractions_and_their_images_ints():
    raw, scaled = leaves(1), leaves(SCALE)
    for name in raw:
        values = [(raw[name](b), scaled[name](b)) for b in BARS]
        assert any(type(r) is Fraction and r.denominator > 1 for r, _ in values), name
        if name in ("alpha", "beta", "gamma", "f", "g"):
            assert all(type(s) is int for _, s in values), name


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_dilation_commutes_with_the_construction(name):
    make = CONSTRUCTIONS[name]
    raw, scaled = make(leaves(1)), make(leaves(SCALE))
    for b in BARS:
        assert scaled(b) == SCALE ** b.degree * raw(b), (name, b)
