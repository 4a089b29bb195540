import random
from decimal import Decimal
from fractions import Fraction

import pytest

from shuffleprob import BarWord, TensorSum, ValidationError, Word, unshuffle
from shuffleprob.words import all_barwords, EMPTY_BAR

from conftest import AB


def _random_sum(rng, max_degree=6, nterms=5):
    bars = all_barwords(AB, max_degree)
    terms = {}
    for _ in range(nterms):
        key = (rng.choice(bars), rng.choice(bars))
        terms[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return TensorSum(terms)


def test_zero_coefficients_dropped():
    b = BarWord((Word((AB[0],)),))
    ts = TensorSum({(b, b): Fraction(0)})
    assert not ts
    assert (ts + ts) == TensorSum({})
    x = TensorSum({(b, EMPTY_BAR): 1, (EMPTY_BAR, b): -1})
    assert not (0 * x).terms and not (Fraction(0) * x).terms
    # (u(x)1 - 1(x)u)(1(x)u + u(x)1): the two u(x)u terms cancel
    y = x.bar_mul(TensorSum({(EMPTY_BAR, b): 1, (b, EMPTY_BAR): 1}))
    assert (b, b) not in y.terms and y == TensorSum({(b.concat(b), EMPTY_BAR): 1,
                                                     (EMPTY_BAR, b.concat(b)): -1})
    assert not (x - x).terms
    rng = random.Random(3)
    for _ in range(20):
        u, v = _random_sum(rng), _random_sum(rng)
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        for t in (u + v, u - v, c * u, u.bar_mul(v), u + (-1) * u):
            assert all(t.terms.values())


def test_bilinearity_and_associativity():
    rng = random.Random(11)
    for _ in range(10):
        x, y, z = (_random_sum(rng) for _ in range(3))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assert (x + y).bar_mul(z) == x.bar_mul(z) + y.bar_mul(z)
        assert z.bar_mul(x + y) == z.bar_mul(x) + z.bar_mul(y)
        assert (c * x).bar_mul(y) == c * x.bar_mul(y)
        assert x.bar_mul(y.bar_mul(z)) == x.bar_mul(y).bar_mul(z)


def test_unit_tensor():
    rng = random.Random(5)
    x = _random_sum(rng)
    one = TensorSum.unit()
    assert one.bar_mul(x) == x
    assert x.bar_mul(one) == x
    assert one.coefficient(EMPTY_BAR, EMPTY_BAR) == 1


def test_subtraction_cancels():
    rng = random.Random(7)
    x = _random_sum(rng)
    assert not (x - x)
    assert x + (-x) == TensorSum({})


def test_coefficients_follow_the_rational_rule():
    # the constructor and the scalar of a multiple read each value by the
    # package's one rule: ints, Fractions and "p/q" strings, no floats
    t = unshuffle(Word((AB[0],)))
    one = (EMPTY_BAR, EMPTY_BAR)
    for bad in (0.5, Decimal("0.5"), 0.0, True):
        with pytest.raises(ValidationError):
            TensorSum({one: bad})
        with pytest.raises(ValidationError):
            bad * t
    assert TensorSum({one: "1/2"}) == TensorSum({one: Fraction(1, 2)})
    assert type(TensorSum({one: Fraction(4, 2)}).coefficient(*one)) is int
    assert Fraction(1, 2) * t + Fraction(1, 2) * t == t


@pytest.mark.parametrize("call", [
    lambda t: t + 3, lambda t: t - 3, lambda t: 3 + t, lambda t: t.bar_mul(3),
    lambda t: t + {}, lambda t: t.bar_mul({}),
], ids=["t + 3", "t - 3", "3 + t", "bar_mul(3)", "t + dict", "bar_mul(dict)"])
def test_arithmetic_refuses_an_operand_that_is_not_a_tensor(call):
    with pytest.raises(TypeError):
        call(TensorSum.unit())
