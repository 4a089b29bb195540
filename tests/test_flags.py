"""The structural flags decide a node's values on bar products, so each
constructor that sets one must be right to: a node agrees with a twin whose
flags are cleared, and which therefore evaluates every bar word through its
own recursion, on every bar word of degree <= 5.

A pairing whose runs leg is flagged infinitesimal reads only the coproduct
terms with a one-word runs leg.  The twins keep flagged leaves, so they are
pruned too; the pruned pairings are also compared with the same
constructors built on unflagged copies of their operands, which read the
full terms."""

import random
from fractions import Fraction as F

import pytest

import shuffleprob as sp
from shuffleprob import functionals
from shuffleprob.words import EMPTY_BAR, all_barwords, words_up_to

from conftest import AB, random_fraction, random_inf


def random_character(seed):
    rng = random.Random(seed)
    return sp.character({w: random_fraction(rng) for w in words_up_to(AB, 5)})


k1, k2 = random_inf(41), random_inf(42)
phi, psi = sp.exp_left(random_inf(43)), random_character(44)

BUILDERS = {
    "conv": lambda: sp.conv(phi, psi),
    "neumann_inverse": lambda: sp.neumann_inverse(psi),
    "exp_left": lambda: sp.exp_left(k1),
    "exp_right": lambda: sp.exp_right(k1),
    "exp_star": lambda: sp.exp_star(k1),
    "log_left": lambda: sp.log_left(psi),
    "log_right": lambda: sp.log_right(psi),
    "log_star": lambda: sp.log_star(phi),
    "prelie": lambda: sp.prelie(k1, k2),
    "adjoint": lambda: sp.adjoint(psi, k1),
    "ad_action": lambda: sp.ad_action(k1, k2),
    "ad_action_right": lambda: sp.ad_action_right(k1, k2),
    "ad_action_composed": lambda: functionals.ad_action_composed(k1, k2),
    "magnus": lambda: sp.magnus(k1),
    "magnus_inverse": lambda: sp.magnus_inverse(k1),
    "bch": lambda: sp.bch(k1, k2),
    "group_law_left": lambda: sp.group_law_left(k1, k2),
    "group_law_right": lambda: sp.group_law_right(k1, k2),
    "linear_sum": lambda: F(1, 2) * k1 - k2,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_flag_agrees_with_the_unflagged_twin(name):
    node, twin = BUILDERS[name](), BUILDERS[name]()
    assert node.is_character or node.is_infinitesimal_character
    twin.is_character = twin.is_infinitesimal_character = False
    for b in all_barwords(AB, 5):
        assert node(b) == twin(b), b


PRUNED = {
    "adjoint": (sp.adjoint, (psi, k1)),
    "exp_right": (sp.exp_right, (k1,)),
    "exp_star": (sp.exp_star, (k1,)),
    "prelie": (sp.prelie, (k1, k2)),
    "log_right": (sp.log_right, (psi,)),
    "magnus_inverse": (sp.magnus_inverse, (k1,)),
}


@pytest.mark.parametrize("name", sorted(PRUNED))
def test_pruned_pairing_agrees_with_the_full_terms(name):
    build, operands = PRUNED[name]
    bars = all_barwords(AB, 5)
    copies = [sp.from_values({b: f(b) for b in (EMPTY_BAR, *bars)}) for f in operands]
    # Flag the copies like their originals for the constructor's gate only:
    # with the flags cleared again, every pairing built on them, now or
    # lazily later, reads the full coproduct terms.
    for c, f in zip(copies, operands):
        c.is_infinitesimal_character = f.is_infinitesimal_character
    full = build(*copies)
    for c in copies:
        c.is_infinitesimal_character = False
    node = build(*operands)
    for b in bars:
        assert node(b) == full(b), b
