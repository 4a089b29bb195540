"""The input rules: every entry point that takes rationals reads them the way
the JSON files are read, and every max_degree is a positive int."""

import json
from decimal import Decimal
from fractions import Fraction as F

import pytest

import shuffleprob as sp
from shuffleprob import DomainError, Side, ValidationError, Word
from shuffleprob import io as sio

from conftest import AB

A, B = AB
W1, W2 = Word((A,)), Word((A, A))

#: What the rational rule refuses: an exponent literal (Fraction would build
#: a 9,965,785-bit numerator for it), decimals, floats, bools and Decimals.
REFUSED = ("1e3000000", "0.5", 0.1, True, Decimal("0.1"))
#: What it accepts, with the rational each stands for.
ACCEPTED = ((3, F(3)), (F(3, 4), F(3, 4)), (" -3/4 ", F(-3, 4)))


def _bp_fourth_moment(t):
    # bp_t of the symmetric Bernoulli law has fourth moment 1 + t
    # (Belinschi-Nica: the boolean 1/(1+t) power of the free (1+t) power)
    d = sp.bernoulli_symmetric(4)
    return sp.bp_distribution(d, t).moment(Word((A,) * 4))


#: name -> (call with the value, expected result for the rational r).
ENTRY_POINTS = {
    "Distribution": (lambda v: sp.Distribution((A,), 2, {W2: v}).moments,
                     lambda r: {W2: r}),
    "Distribution.univariate": (lambda v: sp.Distribution.univariate("a", [v]).moments,
                                lambda r: {W1: r}),
    "point_mass": (lambda v: sp.point_mass(v, 2).moments,
                   lambda r: {W1: r, W2: r * r}),
    "from_cumulants": (lambda v: sp.from_cumulants({W1: v}, "free", (A,), 2).moments,
                       lambda r: {W1: r, W2: r * r}),
    "convert": (lambda v: sp.convert({W1: v, W2: 1}, "free", "boolean", 2, (A,)),
                lambda r: {W1: r, W2: 1}),
    "character": (lambda v: sp.character({W1: v})(W1), lambda r: r),
    "infinitesimal": (lambda v: sp.infinitesimal({W1: v})(W1), lambda r: r),
    "from_values": (lambda v: sp.from_values({W1: v})(W1), lambda r: r),
    "f * s": (lambda v: (sp.infinitesimal({W1: 1}) * v)(W1), lambda r: r),
    "hs_power": (lambda v: sp.hs_power(sp.character({W1: 1}), v, Side.LEFT)(W1),
                 lambda r: r),
    "bp_distribution": (_bp_fourth_moment, lambda r: 1 + r if r >= 0 else DomainError),
    "TruncatedSeries": (lambda v: sp.TruncatedSeries((A,), 2, {W1: v}).coefficients,
                        lambda r: {W1: r}),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_reads_values_by_the_rational_rule(name):
    call, expected = ENTRY_POINTS[name]
    for bad in REFUSED:
        with pytest.raises(ValidationError):
            sio.parse_rational(bad)
        with pytest.raises(ValidationError):
            call(bad)
    for given, r in ACCEPTED:
        assert sio.parse_rational(given) == r
        want = expected(r)
        if want is DomainError:
            with pytest.raises(DomainError):
                call(given)
        else:
            assert call(given) == want, (name, given)


def test_degrees_follow_one_rule_and_survive_the_io_round_trip():
    d = sp.Distribution(AB, 3, {W1: F(1, 2), Word((A, B)): -2, Word((B, B, A)): "7/3"})
    for built in (d, sp.semicircle(5), sp.point_mass(F(-2, 3), 4)):
        text = json.dumps(sio.distribution_to_json(built))
        assert sio.parse_distribution(json.loads(text)) == built
    for n in (True, 2.5, 0):
        for build in (lambda: sp.Distribution((A,), n, {W1: 1}),
                      lambda: sp.Distribution.univariate("a", [1], n),
                      lambda: sp.point_mass(1, n), lambda: sp.semicircle(n)):
            with pytest.raises(ValidationError):
                build()
    for n in (0, -3, 2.0):
        with pytest.raises(ValidationError):
            sp.convert({W2: 1}, "free", "boolean", n, (A,))
        with pytest.raises(ValidationError):
            sp.from_cumulants({W2: 1}, "free", (A,), n)


def test_from_values_stores_exact_values():
    f = sp.from_values({W1: F(4, 2), sp.BarWord((W1, W2)): "1/3", W2: 0})
    assert type(f(W1)) is int and f(W1) == 2
    assert f(sp.BarWord((W1, W2))) == F(1, 3)
    assert type(f(W2)) is int and f(W2) == 0
    assert type(f(Word((B,)))) is int and f(Word((B,))) == 0


def test_from_values_rejects_keys_that_are_not_words():
    for key in ("a", (A,), 1):
        with pytest.raises(DomainError):
            sp.from_values({key: 1})
