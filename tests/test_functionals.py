import gc
import random
import weakref
from fractions import Fraction as F

import pytest

import shuffleprob as sp
from shuffleprob import DomainError, EMPTY_BAR, BarWord, Word, functionals
from shuffleprob.verify import _ad_closed_form, _ad_composed
from shuffleprob.words import all_barwords, words_up_to

from conftest import AB, random_fraction, random_inf

A, B = AB


def w(*letters):
    return Word(letters)


def bars(*words):
    return BarWord(words)


def test_unit_values():
    assert sp.e(EMPTY_BAR) == 1
    assert sp.e(w(A)) == 0


def test_character_multiplicativity_and_zero_default():
    phi = sp.character({w(A): F(0), w(A, A): F(1)})
    assert phi(bars(w(A), w(A))) == 0          # 0 * 0
    assert phi(bars(w(A, A), w(A, A))) == 1
    assert phi(w(B)) == 0                      # missing moments default to 0
    assert phi(EMPTY_BAR) == 1


def test_character_rejects_bad_empty_moment():
    with pytest.raises(DomainError):
        sp.character({Word(): F(2)})


def test_infinitesimal_vanishes_on_bars():
    k = sp.infinitesimal({w(A, A): F(1)})
    assert k(bars(w(A), w(A))) == 0
    assert k(w(A, A)) == 1
    assert k(EMPTY_BAR) == 0


def test_left_half_product_example():
    k = sp.infinitesimal({w(A): F(2), w(A, B): F(5)})
    phi = sp.character({w(A): F(3), w(B): F(7)})
    got = sp.hs_left(k, phi)(w(A, B))
    assert got == k(w(A, B)) + k(w(A)) * phi(w(B))


def test_right_half_product_kills_bar_term():
    beta = sp.infinitesimal({w(A): F(1), w(A, B): F(2), w(A, B, A): F(3)})
    phi = sp.character({w(A): F(1), w(B): F(2), w(B, A): F(4), w(A, B): F(5)})
    got = sp.hs_right(phi, beta)(w(A, B, A))
    # four subsets avoid position 1; the middle-letter one hits a two-bar
    # complement where beta vanishes
    expect = (beta(w(A, B, A)) + phi(w(A)) * beta(w(A, B))
              + phi(w(B, A)) * beta(w(A)))
    assert got == expect


def test_agree_up_to_reads_bar_products_past_the_flags():
    # Both nodes are flagged infinitesimal, so through their flags both read
    # 0 on every bar product; they differ by 1 at a|b.
    alpha = random_inf(3, max_degree=3)
    off = alpha + sp.from_values({bars(w(A), w(B)): 1})
    off.is_infinitesimal_character = True
    assert alpha.is_infinitesimal_character and off(bars(w(A), w(B))) == 0
    assert sp.agree_up_to(alpha, off, AB, 3) == (bars(w(A), w(B)), 0, 1)


def test_agree_up_to_reads_a_leaf_through_its_flag():
    # A leaf's flag is its definition: a character table holds no bar
    # products, and read past its flag it would be 0 on them.
    rng = random.Random(9)
    phi = sp.character({u: random_fraction(rng) for u in words_up_to(AB, 4)})
    kappa = random_inf(10, max_degree=4)
    assert sp.agree_up_to(phi, sp.exp_left(sp.log_left(phi)), AB, 4) is None
    assert sp.agree_up_to(kappa, sp.log_right(sp.exp_right(kappa)), AB, 4) is None


def test_convolution_is_half_sum():
    f, g = random_inf(1), random_inf(2)
    split = sp.hs_left(f, g) + sp.hs_right(f, g)
    assert sp.agree_up_to(sp.conv(f, g), split, AB, 5, include_empty=False) is None


def test_unit_half_products_undefined():
    with pytest.raises(DomainError):
        sp.hs_left(sp.e, sp.e)
    with pytest.raises(DomainError):
        sp.hs_right(sp.unit(), sp.unit())


def test_unit_conventions():
    f = random_inf(3)
    zero = sp.from_values({})
    assert sp.agree_up_to(sp.hs_right(sp.e, f), f, AB, 4) is None
    assert sp.agree_up_to(sp.hs_left(f, sp.e), f, AB, 4) is None
    assert sp.agree_up_to(sp.hs_left(sp.e, f), zero, AB, 4) is None
    assert sp.agree_up_to(sp.hs_right(f, sp.e), zero, AB, 4) is None


def test_prelie_requires_vanishing_at_unit():
    with pytest.raises(DomainError):
        sp.prelie(sp.e, random_inf(1))


def test_prelie_bracket_and_identity():
    f, g, h = random_inf(4), random_inf(5), random_inf(6)
    lhs = sp.prelie(f, g) - sp.prelie(g, f)
    rhs = sp.conv(f, g) - sp.conv(g, f)
    assert sp.agree_up_to(lhs, rhs, AB, 4, include_empty=False) is None
    assoc = lambda x, y, z: sp.prelie(sp.prelie(x, y), z) - sp.prelie(x, sp.prelie(y, z))
    assert sp.agree_up_to(assoc(f, g, h), assoc(g, f, h), AB, 4) is None


def test_prelie_of_infinitesimals_vanishes_at_degree_one():
    k = sp.infinitesimal({w(A): F(3)})
    assert sp.prelie(k, k)(w(A)) == 0


def test_neumann_inverse_values():
    phi = sp.character({w(A): F(2), w(B): F(3), w(A, B): F(5), w(B, A): F(-1),
                        w(A, A): F(7)})
    inv = sp.neumann_inverse(phi)
    assert inv(w(A)) == -2
    assert inv(w(A, B)) == -phi(w(A, B)) + 2 * phi(w(A)) * phi(w(B))
    assert sp.agree_up_to(sp.conv(phi, inv), sp.e, AB, 5) is None
    assert sp.agree_up_to(sp.conv(inv, phi), sp.e, AB, 5) is None


def test_inverse_of_unit_is_unit():
    assert sp.agree_up_to(sp.neumann_inverse(sp.e), sp.e, AB, 4) is None


def test_inverse_requires_unital():
    with pytest.raises(DomainError):
        sp.neumann_inverse(random_inf(1))


def test_exp_star_first_order_and_log_pair():
    alpha = random_inf(7)
    assert sp.exp_star(alpha)(w(A)) == alpha(w(A))
    assert sp.agree_up_to(sp.log_star(sp.exp_star(alpha)), alpha, AB, 5) is None
    phi = sp.exp_left(random_inf(8))
    assert sp.agree_up_to(sp.exp_star(sp.log_star(phi)), phi, AB, 5) is None


def test_log_star_degree_two():
    phi = sp.character({w(A): F(2), w(B): F(3), w(A, B): F(5)})
    assert sp.log_star(phi)(w(A, B)) == phi(w(A, B)) - phi(w(A)) * phi(w(B))


def test_exp_left_is_character_and_first_order():
    k = random_inf(9)
    E = sp.exp_left(k)
    assert E(w(A)) == k(w(A))
    assert E.is_character
    for x in all_barwords(AB, 3):
        for y in all_barwords(AB, 2):
            assert E(x.concat(y)) == E(x) * E(y)


def test_shuffle_inverse_lemma():
    k = random_inf(10)
    prod = sp.conv(sp.exp_right(-1 * k), sp.exp_left(k))
    assert sp.agree_up_to(prod, sp.e, AB, 5) is None


def test_catalan_moments_from_unit_pair_cumulant():
    k = sp.infinitesimal({w(A, A): F(1)})
    E = sp.exp_left(k)
    got = [E(Word((A,) * n)) for n in range(1, 7)]
    assert got == [0, 1, 0, 2, 0, 5]


def test_half_logs_semicircle():
    sem = sp.semicircle(4)
    a = sem.letters[0]
    phi = sem.character()
    kappa, beta = sp.log_left(phi), sp.log_right(phi)
    assert [kappa(Word((a,) * n)) for n in (2, 4)] == [1, 0]
    assert [beta(Word((a,) * n)) for n in (2, 4)] == [1, 1]
    assert sp.agree_up_to(sp.log_left(sp.e), sp.from_values({}), AB, 3) is None


def test_log_left_inverts_exp_left():
    alpha = random_inf(11)
    assert sp.agree_up_to(sp.log_left(sp.exp_left(alpha)), alpha, AB, 5) is None
    assert sp.agree_up_to(sp.log_right(sp.exp_right(alpha)), alpha, AB, 5) is None


def test_hs_power_special_values():
    phi = sp.exp_left(random_inf(12))
    assert sp.agree_up_to(sp.hs_power(phi, 1), phi, AB, 5) is None
    assert sp.agree_up_to(sp.hs_power(phi, 0), sp.e, AB, 5) is None


def test_hs_power_semicircle_doubling():
    sem = sp.semicircle(4)
    a = sem.letters[0]
    doubled = sp.hs_power(sem.character(), 2, sp.Side.LEFT)
    assert [doubled(Word((a,) * n)) for n in (1, 2, 3, 4)] == [0, 2, 0, 8]


def test_adjoint_examples():
    mu = random_inf(13)
    assert sp.agree_up_to(sp.adjoint(sp.e, mu), mu, AB, 5) is None
    phi = sp.exp_left(random_inf(14))
    assert sp.adjoint(phi, mu)(w(A)) == mu(w(A))
    kappa, beta = sp.log_left(phi), sp.log_right(phi)
    assert sp.agree_up_to(sp.adjoint(phi, kappa), beta, AB, 5) is None


def random_table(seed, unital):
    rng = random.Random(seed)
    values = {b: random_fraction(rng) for b in all_barwords(AB, 5) if b.bar_length <= 2}
    if unital:
        values[EMPTY_BAR] = 1
    return sp.from_values(values)


DIVISION_OPERANDS = {
    # a character and an infinitesimal character: the adjoint is flagged and
    # reads only the pruned terms
    "characters": lambda: (sp.exp_left(random_inf(31)), random_inf(32)),
    # unflagged tables, nonzero on bar products: every term is read
    "tables": lambda: (random_table(33, unital=True), random_table(34, unital=False)),
}


@pytest.mark.parametrize("kind", sorted(DIVISION_OPERANDS))
def test_divisions_agree_with_their_definitions(kind):
    phi, mu = DIVISION_OPERANDS[kind]()
    inv = sp.neumann_inverse(phi)
    pairs = {"log_left": (sp.log_left(phi), sp.hs_left(phi - sp.e, inv)),
             "adjoint": (sp.adjoint(phi, mu), sp.hs_left(sp.hs_right(inv, mu), phi))}
    for name, (node, definition) in pairs.items():
        for b in (EMPTY_BAR, *all_barwords(AB, 5)):
            assert node(b) == definition(b), (name, b)


def test_ad_action_examples():
    g1, g2 = random_inf(15), random_inf(16)
    assert sp.ad_action(g1, g2)(w(A, B)) == g2(w(A, B))
    zero = sp.infinitesimal({})
    assert sp.agree_up_to(sp.ad_action(zero, g2), g2, AB, 5) is None
    assert sp.agree_up_to(sp.ad_action(g1, g1),
                          sp.log_right(sp.exp_left(g1)), AB, 5) is None


def test_ad_action_matches_conjugation_with_cross_check():
    g1, g2 = random_inf(17), random_inf(18)
    ad = sp.ad_action(g1, g2)
    composed = _ad_composed(g1, g2)
    assert sp.agree_up_to(ad, composed, AB, 4) is None


def test_ad_action_matches_conjugation_on_one_letter():
    # On one letter many subsets give the same term of the inner word's
    # coproduct, so the closed form meets multiplicities above 1.
    a = sp.Letter("a")
    g1 = random_inf(24, letters=(a,), max_degree=12)
    g2 = random_inf(25, letters=(a,), max_degree=12)
    ad = sp.ad_action(g1, g2)
    composed = _ad_composed(g1, g2)
    closed = _ad_closed_form(g1, g2, (a,), 12)
    for k in range(1, 13):
        word = Word((a,) * k)
        assert ad(word) == composed(word) == closed(word), k


def test_ad_action_rejects_generic_functionals():
    table = sp.from_values({bars(w(A)): F(1)})
    with pytest.raises(DomainError):
        sp.ad_action(table, random_inf(1))


def test_ad_action_composed_rejects_generic_functionals():
    # Its infinitesimal flag is a promise: a table that is nonzero on a bar
    # product must not be accepted (its value at a|b would read 0).
    table = sp.from_values({bars(w(A), w(B)): F(3), bars(w(A)): F(1)})
    with pytest.raises(DomainError):
        _ad_composed(random_inf(1), table)
    with pytest.raises(DomainError):
        _ad_composed(table, random_inf(1))


def test_ad_right_is_left_with_negated_conjugator():
    g1, g2 = random_inf(19), random_inf(20)
    E = sp.exp_right(g1)
    conj = sp.hs_left(sp.hs_right(E, g2), sp.neumann_inverse(E))
    assert sp.agree_up_to(sp.ad_action_right(g1, g2), conj, AB, 4) is None


def test_exp_preconditions():
    phi = sp.exp_left(random_inf(21))
    with pytest.raises(DomainError):
        sp.exp_left(phi)       # does not vanish at the unit
    with pytest.raises(DomainError):
        sp.log_left(random_inf(22))  # not unital


def test_pairing_nodes_are_freed_without_the_cycle_collector():
    # A node that kept itself as an operand would hold its memo until the
    # cyclic collector runs.  The series steps see their node through a weak
    # proxy only, which the Magnus iterates keep.
    kappa, kappa2 = random_inf(21), random_inf(23)
    phi = sp.exp_left(random_inf(22))
    b, word = bars(w(A, B), w(B), w(A, A)), w(A, B, B, A, A)
    builders = (lambda: sp.conv(phi, phi), lambda: sp.hs_left(kappa, phi),
                lambda: sp.hs_right(phi, kappa), lambda: sp.neumann_inverse(phi),
                lambda: sp.exp_left(kappa), lambda: sp.exp_right(kappa),
                lambda: sp.exp_star(kappa), lambda: sp.log_star(phi),
                lambda: sp.magnus(kappa), lambda: sp.magnus_inverse(kappa),
                lambda: sp.bch(kappa, kappa2), lambda: sp.log_left(phi),
                lambda: sp.log_right(phi), lambda: sp.adjoint(phi, kappa),
                lambda: sp.ad_action(kappa, kappa2),
                lambda: sp.group_law_left(kappa, kappa2))
    phi(b)
    phi(word)
    gc.collect()
    gc.disable()
    try:
        for build in builders:
            f = build()
            f(b)
            f(word)
            del f
        assert gc.collect() == 0
    finally:
        gc.enable()


def _random_form(seed, unit):
    # An unflagged form on every bar word up to degree 5, so the nodes built
    # on it read bar products through their own recursion; integral values
    # stay ints.
    rng = random.Random(seed)
    return sp.from_values({EMPTY_BAR: unit, **{b: random_fraction(rng)
                                               for b in all_barwords(AB, 5)}})


def _random_character(seed):
    rng = random.Random(seed)
    return sp.character({u: random_fraction(rng) for u in words_up_to(AB, 5)})


def _magnus_unflagged():
    # Flag cleared, so the series reads its terms on bar products too.
    out = sp.magnus(random_inf(31))
    out.is_infinitesimal_character = False
    return out


#: One tree per evaluation kernel, built from fresh leaves on every call.
MEMO_KERNELS = {
    "self-left pairing": lambda: sp.log_left(_random_form(32, 1)),
    "self-right pairing": lambda: sp.exp_left(_random_form(33, 0)),
    "linear": lambda: (sp.conv(_random_form(34, 1), _random_form(35, 0))
                       - F(3, 2) * _random_form(36, 0)),
    "series through the Magnus proxy": _magnus_unflagged,
    "character bar product": lambda: sp.conv(_random_character(37), _random_character(38)),
}


def _nodes_below(root):
    """Every node below root, once each; the weak proxies through which a
    series step sees its node are left out."""
    found, stack = {}, [root]
    while stack:
        node = stack.pop()
        if isinstance(node, functionals._Pairing):
            below = (node.f, node.g, node.base)
        elif isinstance(node, functionals._Linear):
            below = tuple(p for _, p in node.parts)
        elif isinstance(node, functionals._Series):
            below = tuple(t for _, t in node._terms)
        else:
            below = ()
        for f in below:
            if f is not None and type(f) is not weakref.ProxyType and id(f) not in found:
                found[id(f)] = f
                stack.append(f)
    return list(found.values())


@pytest.mark.parametrize("name", sorted(MEMO_KERNELS))
def test_memo_reads_in_the_kernels_change_no_value(name):
    # Every read of the warm tree below its root is a memo hit; the cold
    # tree is read from its highest degree down, so its first reads miss.
    # The parts slots are cleared first: the warm tree's characters build
    # each bar product's parts, and the cold tree's read them cached.
    bars_ = all_barwords(AB, 5)
    for b in bars_:
        b.parts = None
    warm, cold = MEMO_KERNELS[name](), MEMO_KERNELS[name]()
    if isinstance(warm, functionals._Series):
        warm._value(max(bars_, key=BarWord.sort_key))  # builds its terms to degree 5
    for node in reversed(_nodes_below(warm)):
        for b in (EMPTY_BAR, *bars_):
            node(b)
    for b in bars_:
        if len(b.words) == 1:
            warm(b)
    cold_values = {b: cold(b) for b in sorted(bars_, key=BarWord.sort_key, reverse=True)}
    for b in bars_:
        got, want = warm(b), cold_values[b]
        assert got == want and type(got) is type(want), (name, b, got, want)
    if warm.is_character:
        for b in bars_:
            if len(b.words) > 1:
                assert b.parts == tuple(BarWord((u,)) for u in b.words), b
