import ast
import gc
import random
import weakref
from fractions import Fraction as F

import pytest

import shuffleprob as sp
from shuffleprob import DomainError, EMPTY_BAR, BarWord, Word, functionals
from shuffleprob.verify import _ad_closed_form, _ad_composed
from shuffleprob.words import all_barwords, words_up_to

from conftest import AB, ROOT, random_fraction, random_inf, run_python

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


@pytest.mark.parametrize("letters, degree", [(("a",), 1), ((), 1), ((A, A), 1), ((A,), 0)],
                         ids=["names", "no-letters", "duplicate-letter", "degree-0"])
def test_agree_up_to_refuses_what_the_letters_and_degree_rules_refuse(letters, degree):
    # Over letter names or no letters it would sweep no word of the maps and
    # certify agreement; at degree 0 it would read only the empty bar word.
    phi, psi = sp.character({w(A): 1}), sp.character({w(A): 2})
    with pytest.raises(sp.ValidationError):
        sp.agree_up_to(phi, psi, letters, degree)
    assert sp.agree_up_to(phi, psi, (A,), 1) == (bars(w(A)), 1, 2)


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
    # cyclic collector runs.  A series step names its node by None, as a
    # pairing does, and its iterate table holds values only.
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
    # Flag cleared, so the series fills its iterate rows on bar products
    # through its kernel too.
    out = sp.magnus(random_inf(31))
    out.is_infinitesimal_character = False
    return out


#: One tree per evaluation kernel, built from fresh leaves on every call.
MEMO_KERNELS = {
    "self-left pairing": lambda: sp.log_left(_random_form(32, 1)),
    "self-right pairing": lambda: sp.exp_left(_random_form(33, 0)),
    "linear": lambda: (sp.conv(_random_form(34, 1), _random_form(35, 0))
                       - F(3, 2) * _random_form(36, 0)),
    "series that reads itself": _magnus_unflagged,
    "character bar product": lambda: sp.conv(_random_character(37), _random_character(38)),
}


def _nodes_below(root):
    """Every node below root, once each; a series reads its first term and
    the fixed operands of its legs, None standing for itself."""
    found, stack = {}, [root]
    while stack:
        node = stack.pop()
        if isinstance(node, functionals._Pairing):
            below = (node.f, node.g, node.base)
        elif isinstance(node, functionals._Linear):
            below = tuple(p for _, p in node.parts)
        elif isinstance(node, functionals._Series):
            below = (node.first, *(f for *_, f in node.legs))
        else:
            below = ()
        for f in below:
            if f is not None and id(f) not in found:
                found[id(f)] = f
                stack.append(f)
    return list(found.values())


@pytest.mark.parametrize("name", sorted(MEMO_KERNELS))
def test_memo_reads_in_the_kernels_change_no_value(name):
    # Every subscript read of the warm tree below its root is a memo hit,
    # which returns the stored value; the cold tree is read from its highest
    # degree down, so its first reads miss and evaluate through the memo's
    # __missing__.
    # The parts slots are cleared first: the warm tree's characters build
    # each bar product's parts, and the cold tree's read them cached.
    bars_ = all_barwords(AB, 5)
    for b in bars_:
        b.parts = None
    warm, cold = MEMO_KERNELS[name](), MEMO_KERNELS[name]()
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


def _mixed_values(seed, keys):
    # ints on about two thirds of the keys and Fractions on the rest, so a
    # kernel's first Fraction can come after int terms
    rng = random.Random(seed)
    return {k: rng.randint(-3, 3) if rng.random() < 0.65 else random_fraction(rng)
            for k in keys}


def _mixed_form(seed, unit):
    return sp.from_values({EMPTY_BAR: unit, **_mixed_values(seed, all_barwords(AB, 4))})


def _int_character(seed):
    rng = random.Random(seed)
    return sp.character({u: rng.randint(-3, 3) for u in words_up_to(AB, 4)})


def _halves(f):
    # f / 2 + f / 2: Fraction coefficients whose sum is integral wherever f is
    return sp.functionals._Linear(((F(1, 2), f), (F(1, 2), f)))


#: Trees on Fraction and mixed leaves; every node of each is checked
#: against the sums of its kernel written out in Fraction arithmetic.
KERNEL_TREES = {
    "mixed convolution": lambda: sp.conv(_mixed_form(70, 1), _mixed_form(71, 0)),
    "mixed characters": lambda: sp.conv(
        sp.character(_mixed_values(72, words_up_to(AB, 4))), _int_character(73)),
    "mixed half exponential": lambda: sp.exp_left(
        sp.infinitesimal(_mixed_values(74, words_up_to(AB, 4)))),
    "adjoint by a Fraction mu": lambda: sp.adjoint(_int_character(75),
                                                   random_inf(76, max_degree=4)),
    "neumann_inverse": lambda: sp.neumann_inverse(_random_character(77)),
    "exp_right": lambda: sp.exp_right(random_inf(78, max_degree=4)),
    "log_left": lambda: sp.log_left(_random_character(79)),
    "log_right": lambda: sp.log_right(sp.character(_mixed_values(80, words_up_to(AB, 4)))),
    "Fraction coefficients": lambda: _halves(_mixed_form(81, 0)) - F(2, 3) * _mixed_form(82, 0),
    "exp_star": lambda: sp.exp_star(random_inf(83, max_degree=4)),
    "log_star": lambda: sp.log_star(_int_character(84)),
    "magnus": _magnus_unflagged,
}


def _reference(node, b):
    """node(b) from the values of the nodes it reads, summed with Fraction
    operators; None on a leaf."""
    if len(b.words) > 1 and node.is_character:
        out = F(1)
        for u in b.words:
            out *= node(BarWord((u,)))
        return out
    if len(b.words) > 1 and node.is_infinitesimal_character:
        return F(0)
    if isinstance(node, functionals._Linear):
        return sum((F(c) * f(b) for c, f in node.parts), F(0))
    if isinstance(node, functionals._Series):
        return sum((F(node.coeff(i)) * functionals._public(v)
                    for i, v in enumerate(node.rows[b])), F(0))
    if isinstance(node, functionals._Pairing):
        f = node if node.f is None else node.f
        g = node if node.g is None else node.g
        out = F(0) if node.base is None else F(node.base(b))
        for (x, y), c in sp.coproducts.unshuffle_bar(b, node.side):
            out += c * F(f(x)) * F(g(y))
        return out
    return None


def _row_reference(node, b):
    """The iterates of a series at b from its rows below b, summed over
    the full terms of every leg with Fraction operators."""
    row = [F(node.first(b))] + [F(0)] * (b.degree - 1)
    for sign, side, prev_left, f in node.legs:
        f = node if f is None else f
        for (x, y), c in sp.coproducts.unshuffle_bar(b, side):
            fixed, prev = (y, x) if prev_left else (x, y)
            if f(fixed):
                for i, t in enumerate(node.rows[prev][:b.degree - 1], 1):
                    row[i] += sign * c * F(f(fixed)) * functionals._public(t)
    return tuple(row)


def _kernel_orders(node, b):
    """The orders in which the kernel of node at b meets its nonzero terms:
    each (earlier, later) pair of kinds, "int", "ratio" or "ratio base",
    that a pairing adds in that order, and "mixed row" when a series row
    holds ints and ratios."""
    if isinstance(node, functionals._Series):
        kinds = {type(t) for t in node.rows[b] if t}
        return {"mixed row"} if len(kinds) == 2 else set()
    if not isinstance(node, functionals._Pairing):
        return set()
    f = node if node.f is None else node.f
    g = node if node.g is None else node.g
    kinds = ["ratio base"] if node.base is not None and type(node.base(b)) is F else []
    for x, y, c in sp.coproducts._terms(b, node.side, "all"):
        v = f(x) * g(y)
        if v:
            kinds.append("int" if type(v) is int else "ratio")
    return {(a, z) for i, a in enumerate(kinds) for z in kinds[i + 1:] if a != z}


#: Orders that the kernels of some trees must meet: in one pairing an int
#: term before a ratio term and another after one, an int term after a
#: ratio base, and in a series a row of ints and ratios.
KERNEL_ORDERS = {
    "mixed convolution": {("int", "ratio"), ("ratio", "int")},
    "log_right": {("ratio base", "int")},
    "exp_star": {"mixed row"},
    "magnus": {"mixed row"},
}


@pytest.mark.parametrize("name", sorted(KERNEL_TREES))
def test_kernels_sum_as_plain_fraction_arithmetic(name):
    # The cold tree is read from the highest degree down, so each value is a
    # first read that recurses through the values below it, and a pairing
    # that is its own left leg and kept its last term, b (x) 1, would read
    # itself at b without end.  Every value is an int exactly when it is
    # integral, else a Fraction, which the constructor keeps reduced over a
    # positive denominator.
    bars_ = sorted(all_barwords(AB, 4), key=BarWord.sort_key, reverse=True)
    tree = KERNEL_TREES[name]()
    for b in bars_:
        tree(b)
    nodes = [tree, *_nodes_below(tree)]
    fractions, orders = 0, set()
    for node in nodes:
        for b in bars_:
            orders |= _kernel_orders(node, b)
            got, want = node(b), _reference(node, b)
            assert type(got) is int or (type(got) is F and got.denominator > 1), (name, b, got)
            if want is not None:
                assert got == want, (name, node, b, got, want)
                fractions += type(got) is F
            if isinstance(node, functionals._Series):
                row = tuple(map(functionals._public, node.rows[b]))
                assert row == _row_reference(node, b), (name, b, row)
    assert fractions, name
    assert KERNEL_ORDERS.get(name, set()) <= orders, (name, orders)


def test_a_fraction_sum_that_is_integral_is_an_int():
    # conv(f, f)(ab) = 2 f(ab) + 2 f(a) f(b) = 1 + 1 over Fraction terms,
    # and f / 2 + f / 2 over Fraction coefficients is f
    f = sp.from_values({EMPTY_BAR: 1, w(A): F(1, 2), w(B): 1, w(A, B): F(1, 2)})
    for got, want in ((sp.conv(f, f)(w(A, B)), 2), (_halves(f)(w(B)), 1),
                      (_halves(f)(w(A)), F(1, 2))):
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("name", sorted({**KERNEL_TREES, **MEMO_KERNELS}))
def test_memos_hold_ints_and_reduced_ratios(name):
    # Inside the engine a value is an int or a reduced (numerator,
    # denominator) ratio, and so is every iterate a series stores; a
    # Fraction is built only where a value leaves it.
    tree = {**KERNEL_TREES, **MEMO_KERNELS}[name]()
    for b in sorted(all_barwords(AB, 4), key=BarWord.sort_key, reverse=True):
        tree(b)
    ratios = 0
    for node in (tree, *_nodes_below(tree)):
        stored = list(node._memo.values())
        if isinstance(node, functionals._Series):
            stored += [v for row in node.rows.values() for v in row]
        for v in stored:
            if type(v) is not int:
                assert type(v) is functionals._Ratio, (name, node, v)
                num, den = v
                assert den > 1 and F(num, den).denominator == den, (name, node, v)
                ratios += 1
    assert ratios, name


def test_a_ratio_has_no_arithmetic():
    # a pairing adds a term whose product is None, a ratio's product in
    # either order, to its numerator over the common denominator
    half, third = functionals._Ratio((1, 2)), functionals._Ratio((-1, 3))
    for other in (3, 10**30, third):
        assert half * other is None and other * half is None, other


def test_public_reads_give_ints_and_fractions():
    rng = random.Random(79)
    values = {u: rng.choice((rng.randint(-3, 3), random_fraction(rng)))
              for u in words_up_to(AB, 3)}
    f, g = sp.character(values), sp.character({**values, w(A, B): F(5, 7)})
    got = [f(b) for b in all_barwords(AB, 3)] + list(sp.cumulants.tabulate(f, AB, 3).values())
    assert all(type(v) in (int, F) for v in got)
    assert any(type(v) is F and v.denominator > 1 for v in got)
    assert any(type(v) is int for v in got)
    b, fv, gv = functionals.agree_up_to(f, g, AB, 3)
    assert (b, fv, gv) == (bars(w(A, B)), values[w(A, B)], F(5, 7))
    assert type(fv) in (int, F) and type(gv) is F


def _random_distribution(seed, max_degree=5):
    rng = random.Random(seed)
    return sp.Distribution(AB, max_degree, {u: random_fraction(rng)
                                            for u in words_up_to(AB, max_degree)})


#: Every constructor whose defining equation names the unit e; e fixes only
#: the value at the empty bar word, so none of their trees holds it.
UNIT_FREE_TREES = {
    "exp_left": lambda: sp.exp_left(random_inf(40)),
    "exp_right": lambda: sp.exp_right(random_inf(41)),
    "neumann_inverse": lambda: sp.neumann_inverse(_random_character(42)),
    "log_left": lambda: sp.log_left(_random_character(43)),
    "log_right": lambda: sp.log_right(_random_character(44)),
    "log_star": lambda: sp.log_star(_random_character(45)),
    "adjoint": lambda: sp.adjoint(_random_character(46), random_inf(47)),
    "ad_action": lambda: sp.ad_action(random_inf(48), random_inf(49)),
    "bp_t": lambda: sp.bp_t(_random_character(50), F(1, 2)),
    "subordinate left": lambda: sp.subordinate(
        _random_character(51), _random_character(52), sp.Side.LEFT),
    "subordinate right": lambda: sp.subordinate(
        _random_character(53), _random_character(54), sp.Side.RIGHT),
    "group_law_left": lambda: sp.group_law_left(random_inf(55), random_inf(56)),
    **{f"cumulant_functional {kind}": (lambda kind=kind: sp.cumulants.cumulant_functional(
        _random_distribution(57), kind)) for kind in ("free", "boolean", "monotone")},
}


@pytest.mark.parametrize("name", sorted(UNIT_FREE_TREES))
def test_no_tree_reads_the_unit(name):
    # The series grow their terms as they are read, so the tree is walked
    # after it has been evaluated to degree 5.
    tree = UNIT_FREE_TREES[name]()
    for b in (*all_barwords(AB, 4), *sp.words.word_bars_up_to(AB, 5)):
        tree(b)
    assert all(node is not sp.e for node in _nodes_below(tree))


#: The trees that must free themselves by reference counting alone.
FREED_TREES = {**UNIT_FREE_TREES,
               "magnus": lambda: sp.magnus(random_inf(58)),
               "magnus_inverse": lambda: sp.magnus_inverse(random_inf(59))}


@pytest.mark.parametrize("name", sorted(FREED_TREES))
def test_a_tree_is_freed_without_the_cycle_collector(name):
    # A memo holds its node weakly, so no node and memo make a cycle that
    # keeps a read tree, and its values, alive until the collector runs.
    gc.collect()
    gc.disable()
    try:
        tree = FREED_TREES[name]()
        for b in all_barwords(AB, 4):
            tree(b)
        refs = [weakref.ref(node) for node in (tree, *_nodes_below(tree))]
        del tree
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_only_functionals_reads_a_memo():
    # Every value is read by one subscript of a node's memo, whose
    # __missing__ evaluates a miss; a .get would skip it.
    for path in sorted((ROOT / "src" / "shuffleprob").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "_memo":
                assert path.name == "functionals.py", (path.name, node.lineno)
            if (isinstance(node, ast.Attribute) and node.attr == "get"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "_memo"):
                raise AssertionError(f"{path.name}:{node.lineno} reads a memo by .get")


_UNIT_MEMO_SCRIPT = """
import gc, random
from fractions import Fraction
from shuffleprob import (EMPTY_BAR, Distribution, Letter, convert, coproducts,
                         from_cumulants, functionals, products, to_cumulants, words)

def live_bars_after_clearing():
    coproducts.clear_caches()
    words.all_barwords.cache_clear()
    words.word_bars_up_to.cache_clear()
    gc.collect()
    return len(words._live_bars)

rng = random.Random(3)
letters, n = (Letter("a"), Letter("b")), 4
def values():
    return {u: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for u in words.words_up_to(letters, n)}
d1, d2 = Distribution(letters, n, values()), Distribution(letters, n, values())
kinds = ("free", "boolean", "monotone")
before = live_bars_after_clearing()
for kind in kinds:
    to_cumulants(d1, kind)
    from_cumulants(values(), kind, letters, n)
    for target in kinds:
        if target != kind:
            convert(values(), kind, target, n, letters)
for kind in ("free", "boolean", "monotone-left", "monotone-right"):
    products.convolve_distributions(d1, d2, kind)
for side in ("left", "right"):
    products.subordinate_distributions(d1, d2, side)
for t in (1, Fraction(1, 2), 2):
    products.bp_distribution(d1, t)
print(functionals.e._memo == {EMPTY_BAR: 1}, before, live_bars_after_clearing())
"""


def test_distribution_api_leaves_no_bar_word_in_the_unit():
    # In a fresh process: the verify suites pair e itself, so an earlier
    # test in the same run may have filled its memo.
    proc = run_python("-c", _UNIT_MEMO_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    unit_memo_empty, before, after = proc.stdout.split()
    assert unit_memo_empty == "True"
    assert after == before


#: Each refusal of a functional constructor: (call, message).
REFUSALS = {
    "infinitesimal with a value at the empty word": (
        lambda: sp.infinitesimal({Word(): 1}),
        "an infinitesimal character vanishes on the empty word"),
    "exp_star of a unital operand": (
        lambda: sp.exp_star(_random_character(60)),
        "exp* needs an operand vanishing on the empty bar word"),
    "log_star of a non-unital operand": (
        lambda: sp.log_star(random_inf(61)),
        "log* needs an operand with value 1 on the empty bar word"),
    "log_right of a non-unital operand": (
        lambda: sp.log_right(random_inf(62)),
        "half-shuffle logarithms need a unital operand"),
    "hs_power on the full side": (
        lambda: sp.hs_power(_random_character(63), 2, sp.Side.FULL),
        "half-shuffle powers are left- or right-sided"),
    "adjoint by a non-unital phi": (
        lambda: sp.adjoint(random_inf(64), random_inf(65)),
        "the adjoint action is indexed by unital functionals"),
    "adjoint of a mu nonzero at the empty word": (
        lambda: sp.adjoint(_random_character(66), _random_character(67)),
        "the adjoint action moves functionals vanishing at the unit"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_constructors_refuse_operands_outside_their_domain(name):
    call, message = REFUSALS[name]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, op", [
    (lambda f: f + 3, "+"), (lambda f: f - 3, "-"), (lambda f: 3 + f, "+"),
    (lambda f: 3 - f, "-"), (lambda f: f + sp.TensorSum.unit(), "+"),
], ids=["f + 3", "f - 3", "3 + f", "3 - f", "f + tensor"])
def test_sums_refuse_an_operand_that_is_not_a_functional(call, op):
    # a sum with anything but a functional returns NotImplemented, so Python
    # raises TypeError before a node is built
    with pytest.raises(TypeError, match=f"unsupported operand type\\(s\\) for {op}"):
        call(random_inf(68))
