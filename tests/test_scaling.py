"""The distribution API evaluates its trees on theta_D-scaled leaves
(w -> D^|w| w, with D the lcm of the input denominators) and divides by
D^|w| once.  A tree with a Magnus node is scaled by D times L, the lcm of
the denominators of the Magnus coefficients it reads.  Each entry point
must equal ``tabulate`` of the same public tree built on unscaled leaves,
return Fractions only, and, where the tree has no series coefficients but
the Magnus map's, evaluate in int arithmetic."""

import math
from fractions import Fraction as F

import pytest

import shuffleprob as sp
from shuffleprob import Distribution, cumulants, functionals as fn, mutations, products as pr
from shuffleprob.coproducts import Side
from shuffleprob.cumulants import CumulantKind, tabulate
from shuffleprob.words import words_up_to

from conftest import AB

N = 4
PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
WORDS = list(words_up_to(AB, N))  # 30 words, fewer than the 46 primes


def integer_map(offset):
    return {w: F((3 * i + offset) % 7 - 3) for i, w in enumerate(WORDS)}


def prime_map(offset):
    """Every value has its own prime denominator up to 199."""
    return {w: F((i + offset) % 5 - 2 or 1, PRIMES[(i + offset) % len(PRIMES)])
            for i, w in enumerate(WORDS)}


MAPS = {"integer": integer_map, "primes": prime_map, "zero": lambda offset: {}}


def distribution(values, letters=AB, n=N):
    """The distribution with the given free cumulants."""
    phi = fn.exp_left(fn.infinitesimal(values))
    return Distribution(letters, n, tabulate(phi, letters, n))


@pytest.fixture
def raw(monkeypatch):
    """Records the values each entry point evaluates before it divides."""
    seen = []
    real = cumulants._unscaled

    def spy(phi, D, letters, max_degree):
        seen.append((D, [phi(w) for w in words_up_to(letters, max_degree)]))
        return real(phi, D, letters, max_degree)

    monkeypatch.setattr(cumulants, "_unscaled", spy)
    return seen


def check(raw, expected, entry, integral, D=None):
    """entry() equals expected, holds Fractions only, and (when integral)
    came from int values before the division."""
    got = entry()
    got = getattr(got, "moments", got)
    assert got == expected
    assert all(type(v) is F for v in got.values())
    scale, values = raw[-1]
    if D is not None:
        assert scale == D
    if integral:
        assert all(type(v) is int for v in values)


@pytest.mark.parametrize("shape", sorted(MAPS))
def test_cumulant_entry_points_equal_unscaled_trees(raw, shape):
    values = MAPS[shape](0)
    d = distribution(values)
    for kind in CumulantKind:
        # monotone cumulants are -O(-log>), whose coefficients the scale clears
        check(raw, tabulate(cumulants.cumulant_functional(d, kind), AB, N),
              lambda: sp.to_cumulants(d, kind), True)
        _, exp = cumulants._exponential(kind, N)
        check(raw, tabulate(exp(fn.infinitesimal(values)), AB, N),
              lambda: sp.from_cumulants(values, kind, AB, N),
              kind is not CumulantKind.MONOTONE)  # exp* has 1/n! coefficients
        for dst in CumulantKind:
            # O alone to monotone; W's 1/(n+1)! stay in every other conversion
            tree = cumulants._convert_functional(fn.infinitesimal(values), kind, dst)
            check(raw, tabulate(tree, AB, N), lambda: sp.convert(values, kind, dst, N, AB),
                  kind is dst or dst is CumulantKind.MONOTONE)


@pytest.mark.parametrize("shape", sorted(MAPS))
def test_product_entry_points_equal_unscaled_trees(raw, shape):
    d1, d2 = distribution(MAPS[shape](0)), distribution(MAPS[shape](3))
    phi1, phi2 = d1.character(), d2.character()
    convolutions = {"free": pr.free_conv, "boolean": pr.boolean_conv,
                    "monotone-left": pr.monotone_conv,
                    "monotone-right": pr.antimonotone_conv}
    for kind, op in convolutions.items():
        check(raw, tabulate(op(phi1, phi2), AB, N),
              lambda: pr.convolve_distributions(d1, d2, kind), True)
    for side, side_enum in (("left", Side.LEFT), ("right", Side.RIGHT)):
        check(raw, tabulate(pr.subordinate(phi1, phi2, side_enum), AB, N),
              lambda: pr.subordinate_distributions(d1, d2, side), True)


@pytest.mark.parametrize("shape", sorted(MAPS))
@pytest.mark.parametrize("t", [F(2, 3), F(0), F(1)])
def test_bp_scales_by_the_denominator_of_t(raw, shape, t):
    d = distribution(MAPS[shape](0))
    D = math.lcm(*(v.denominator for v in d.moments.values())) * t.denominator
    check(raw, tabulate(pr.bp_t(d.character(), t), AB, N), lambda: pr.bp_distribution(d, t),
          True, D)


def prime_by_degree(letters, n):
    """A value at every word, with one prime denominator per degree, so D is
    their product and D^n is large."""
    return {w: F(len(w) % 3 - 1 or 2, PRIMES[len(w)]) for w in words_up_to(letters, n)}


def sparse_map(letters, n):
    """Values on every word of degree <= 2 and on every 61st word above, so
    that most legs of a pairing are 0."""
    return {w: F(i % 7 - 3 or 2, 1 + i % 3) for i, w in enumerate(words_up_to(letters, n))
            if len(w) <= 2 or i % 61 == 0}


def univariate_round_trip(raw, n, integral):
    a = AB[:1]
    values = prime_by_degree(a, n)
    d = distribution(values, a, n)
    check(raw, values, lambda: sp.to_cumulants(d, "free"), integral)
    check(raw, d.moments, lambda: sp.from_cumulants(values, "free", a, n), integral)


def test_univariate_degree_eight_round_trip(raw):
    # below degree 9 the free transforms are log< and exp<, which run on ints
    univariate_round_trip(raw, 8, True)


def test_univariate_degree_twelve_round_trip(raw):
    # from degree 9 they go through log> and the Magnus maps; the scale clears
    # O's coefficients B_m/m!, but W's 1/(n+1)! bring Fractions in
    univariate_round_trip(raw, 12, False)


def test_magnus_node_of_the_free_route_holds_ints(monkeypatch):
    # free cumulants at degree 12 are W(-O(-log>)): every value O and its
    # iterates store is an int, and only the root W keeps Fractions
    trees = []
    real = cumulants._unscaled

    def spy(phi, *args):
        trees.append(phi)
        return real(phi, *args)

    monkeypatch.setattr(cumulants, "_unscaled", spy)
    a = AB[:1]
    d = distribution(prime_by_degree(a, 12), a, 12)
    trees.clear()
    sp.to_cumulants(d, "free")
    (w,) = trees
    ((_, omega),) = w._terms[0][1].parts  # W's first term is -1 * O(-1 * log>)
    assert [c for c, _ in omega._terms][:3] == [1, F(-1, 2), F(1, 12)]
    assert omega._memo
    for node in (omega, *(t for _, t in omega._terms)):
        assert all(type(v) is int for v in node._memo.values())


def test_magnus_routes_follow_the_mutated_coefficients(raw):
    # skip-bernoulli-2 sets B_2/2! to 0, so below degree 4 the Magnus
    # coefficients are 1, -1/2, 0, 0 and L is 2, not 12; each route with an O
    # node still equals its unscaled tree, in ints where O is its one series
    values = prime_map(0)
    d = distribution(values)
    a = AB[:1]
    values_9 = prime_by_degree(a, 9)
    d_9 = distribution(values_9, a, 9)
    lcm = lambda m: math.lcm(*(v.denominator for v in m.values()))
    with mutations.inject_defect("skip-bernoulli-2"):
        check(raw, tabulate(cumulants.cumulant_functional(d, "monotone"), AB, N),
              lambda: sp.to_cumulants(d, "monotone"), True, lcm(d.moments) * 2)
        for kind in (CumulantKind.FREE, CumulantKind.BOOLEAN):
            for dst in CumulantKind:
                if dst is not kind:
                    tree = cumulants._convert_functional(fn.infinitesimal(values), kind, dst)
                    check(raw, tabulate(tree, AB, N),
                          lambda: sp.convert(values, kind, dst, N, AB),
                          dst is CumulantKind.MONOTONE, lcm(values) * 2)
        # the free routes from degree 9 on read O, then W
        check(raw, tabulate(cumulants.cumulant_functional(d_9, "free"), a, 9),
              lambda: sp.to_cumulants(d_9, "free"), False)
        _, exp = cumulants._exponential(CumulantKind.FREE, 9)
        check(raw, tabulate(exp(fn.infinitesimal(values_9)), a, 9),
              lambda: sp.from_cumulants(values_9, "free", a, 9), False)


@pytest.mark.parametrize("letters,n,make", [(AB[:1], 8, prime_by_degree),
                                            (AB[:1], 9, prime_by_degree),
                                            (AB, 9, sparse_map)],
                         ids=["a-8", "a-9", "ab-9"])
def test_free_routes_agree_across_the_threshold(letters, n, make):
    # from degree 9 on, the free transforms go through log> and the monotone
    # transform always does; on both sides they must equal the defining
    # logarithms and exponential
    values = make(letters, n)
    d = Distribution(letters, n, values)
    phi = d.character()
    assert sp.to_cumulants(d, "free") == tabulate(fn.log_left(phi), letters, n)
    assert (sp.from_cumulants(values, "free", letters, n).moments
            == tabulate(fn.exp_left(fn.infinitesimal(values)), letters, n))
    if len(letters) == 1:  # log* reads 2^n terms per power, too slow on two letters
        assert sp.to_cumulants(d, "monotone") == tabulate(fn.log_star(phi), letters, n)
