from fractions import Fraction as F

import pytest

import shuffleprob as sp
from shuffleprob import DomainError, Word
from shuffleprob.magnus import (bch, bernoulli, group_law_left, group_law_right,
                                magnus, magnus_inverse)
from shuffleprob.verify import _group_law_left_defining

from conftest import AB, random_inf

A, B = AB


def test_bernoulli_values():
    assert [bernoulli[m] for m in range(7)] == [
        F(1), F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)]
    assert bernoulli[12] == F(-691, 2730)
    assert all(bernoulli[m] == 0 for m in (3, 5, 7, 9, 11))
    with pytest.raises(DomainError):
        bernoulli[-1]


def test_magnus_low_order():
    alpha = random_inf(30)
    approx = alpha + F(-1, 2) * sp.prelie(alpha, alpha)
    assert sp.agree_up_to(magnus(alpha), approx, AB, 2) is None


def test_magnus_inverse_low_order():
    alpha = random_inf(31)
    approx = (alpha + F(1, 2) * sp.prelie(alpha, alpha)
              + F(1, 6) * sp.prelie(alpha, sp.prelie(alpha, alpha)))
    assert sp.agree_up_to(magnus_inverse(alpha), approx, AB, 3) is None


def test_magnus_is_star_log_of_left_exp():
    kappa = random_inf(32)
    assert sp.agree_up_to(magnus(kappa),
                          sp.log_star(sp.exp_left(kappa)), AB, 5) is None


def test_magnus_round_trips():
    kappa = random_inf(33)
    assert sp.agree_up_to(magnus_inverse(magnus(kappa)), kappa, AB, 5) is None
    assert sp.agree_up_to(magnus(magnus_inverse(kappa)), kappa, AB, 5) is None


def test_magnus_semicircle_monotone_value():
    sem = sp.semicircle(4)
    a = sem.letters[0]
    rho = magnus(sp.log_left(sem.character()))
    assert rho(Word((a,) * 4)) == F(1, 2)


def test_free_boolean_magnus_bridges():
    phi = sp.exp_left(random_inf(34))
    kappa, beta = sp.log_left(phi), sp.log_right(phi)
    assert sp.agree_up_to(-1 * magnus_inverse(-1 * magnus(kappa)), beta, AB, 5) is None
    assert sp.agree_up_to(magnus_inverse(-1 * magnus(-1 * beta)), kappa, AB, 5) is None


def test_exponential_transport():
    gamma = random_inf(35)
    assert sp.agree_up_to(sp.exp_left(magnus_inverse(gamma)),
                          sp.exp_star(gamma), AB, 5) is None
    assert sp.agree_up_to(sp.exp_right(-1 * magnus_inverse(-1 * gamma)),
                          sp.exp_star(gamma), AB, 5) is None


def test_bch_examples():
    g1, g2 = random_inf(36), random_inf(37)
    zero = sp.infinitesimal({})
    assert sp.agree_up_to(bch(g1, zero), g1, AB, 5) is None
    deg2 = g1 + g2 + F(1, 2) * (sp.conv(g1, g2) - sp.conv(g2, g1))
    assert sp.agree_up_to(bch(g1, g2), deg2, AB, 2) is None
    assert sp.agree_up_to(bch(-1 * g1, -1 * g2), -1 * bch(g2, g1), AB, 4) is None


def test_group_law_closed_form_and_transport():
    g1, g2 = random_inf(38), random_inf(39)
    assert sp.agree_up_to(group_law_left(g1, g2),
                          _group_law_left_defining(g1, g2), AB, 4) is None
    assert sp.agree_up_to(magnus(group_law_left(g1, g2)),
                          bch(magnus(g1), magnus(g2)), AB, 4) is None


def test_group_law_unit_inverse_associativity():
    g1, g2, g3 = random_inf(40), random_inf(41), random_inf(42)
    zero = sp.infinitesimal({})
    assert sp.agree_up_to(group_law_left(g1, zero), g1, AB, 5) is None
    assert sp.agree_up_to(group_law_left(zero, g1), g1, AB, 5) is None
    inv = sp.log_left(sp.neumann_inverse(sp.exp_left(g1)))
    assert sp.agree_up_to(group_law_left(g1, inv), zero, AB, 4) is None
    assert sp.agree_up_to(
        group_law_left(group_law_left(g1, g2), g3),
        group_law_left(g1, group_law_left(g2, g3)), AB, 4) is None


def test_group_law_right():
    g1, g2 = random_inf(43), random_inf(44)
    definitional = sp.log_right(sp.conv(sp.exp_right(g1), sp.exp_right(g2)))
    assert sp.agree_up_to(group_law_right(g1, g2), definitional, AB, 4) is None


def test_magnus_rejects_non_infinitesimal():
    table = sp.from_values({})
    with pytest.raises(DomainError):
        magnus(table)
    with pytest.raises(DomainError):
        magnus_inverse(table)
    with pytest.raises(DomainError):
        bch(table, table)


@pytest.mark.parametrize("g1,g2", [
    (lambda: sp.character({}), lambda: random_inf(70)),
    (lambda: random_inf(71), lambda: sp.from_values({Word((A,)): 1})),
], ids=["a character", "an unflagged form"])
def test_group_law_left_refuses_operands_that_are_not_infinitesimal(g1, g2):
    with pytest.raises(DomainError) as info:
        group_law_left(g1(), g2())
    assert str(info.value) == "the shuffle group laws act on infinitesimal characters"
