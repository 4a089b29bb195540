"""Randomised verification suites for the whole calculus.

Each suite re-derives a family of theorems on a deterministic pseudo-random
corpus and reports one :class:`CheckResult` per identity, with the first
counterexample as witness.  Random characters are produced by exponentiating
random infinitesimal characters, which guarantees well-formedness instead of
rejection-sampling on moments.  All comparisons are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from . import functionals as fn
from . import products as pr
from .axioms import check_axioms
from .coproducts import Side
from .cumulants import (CumulantKind, Distribution, bernoulli_symmetric,
                        convert, from_cumulants, point_mass, semicircle, series,
                        tabulate, to_cumulants)
from .errors import ValidationError
from .magnus import (bch, bernoulli, group_law_left, group_law_left_definitional,
                     group_law_right, magnus, magnus_inverse)
from .partitions import oracle_moments
from .reporting import CheckResult, Report, rational_str
from .words import EMPTY_BAR, Letter, Word, all_barwords, words_up_to

SUITES = ("coalgebra", "shuffle", "magnus", "cumulants", "products", "bp")

DEFAULT_LETTERS = ("a", "b")


def _letters(names) -> tuple[Letter, ...]:
    return tuple(Letter(n) for n in names)


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_infinitesimal(rng, letters, max_degree) -> fn.Functional:
    values = {}
    for w in words_up_to(letters, max_degree):
        v = _rand_fraction(rng)
        if v:
            values[w] = v
    return fn.infinitesimal(values)


def _random_character(rng, letters, max_degree) -> fn.Functional:
    return fn.exp_left(_random_infinitesimal(rng, letters, max_degree))


def _random_table(rng, letters, max_degree, unital=False) -> fn.Functional:
    values = {}
    for b in all_barwords(tuple(letters), max_degree):
        if b.bar_length <= 2:
            v = _rand_fraction(rng)
            if v:
                values[b] = v
    f = fn.from_values(values)
    return f + fn.unit() if unital else f


def _random_distribution(rng, letters, max_degree) -> Distribution:
    phi = _random_character(rng, letters, max_degree)
    return Distribution(tuple(letters), max_degree, tabulate(phi, letters, max_degree))


def _own_value(f: fn.Functional, b) -> Fraction:
    """f(b) from the recursion of f itself, as if its flags were cleared.

    The flags decide a node's values on bar products (see :mod:`functionals`),
    so a comparison that read both sides there through their flags would hold
    by construction.  The terms of a linear combination are read the same
    way; the nodes below keep their flags, so each flag is checked one
    level at a time."""
    if isinstance(f, fn._Linear):
        return sum(c * _own_value(p, b) for c, p in f.parts)
    return f._value(b)


def _disagreement(f, g, letters, degree, include_empty=True):
    """:func:`functionals.agree_up_to`, with the values on bar products of
    two or more components taken from :func:`_own_value`."""
    def triples():
        if include_empty:
            yield EMPTY_BAR, f(EMPTY_BAR), g(EMPTY_BAR)
        for b in all_barwords(tuple(letters), degree):
            if len(b.words) < 2:
                yield b, f(b), g(b)
            else:
                yield b, _own_value(f, b), _own_value(g, b)
    return _first_mismatch(triples())


def _agree(name, f, g, letters, degree, include_empty=True) -> CheckResult:
    return CheckResult.from_mismatch(
        name, _disagreement(f, g, letters, degree, include_empty=include_empty))


def _first_mismatch(pairs):
    """pairs: iterable of (element, lhs, rhs); first unequal triple or None."""
    for element, lhs, rhs in pairs:
        if lhs != rhs:
            return (element, lhs, rhs)
    return None


# ---------------------------------------------------------------------------
# suites

def coalgebra_suite(max_degree: int = 6, seed: int = 0,
                    letters=DEFAULT_LETTERS) -> Report:
    return check_axioms(_letters(letters), max_degree)


def shuffle_suite(max_degree: int = 6, seed: int = 0,
                  letters=DEFAULT_LETTERS) -> Report:
    rng = random.Random(seed)
    ls = _letters(letters)
    D = max_degree
    report = Report("shuffle")

    infs = [_random_infinitesimal(rng, ls, D) for _ in range(8)]
    chars = [_random_character(rng, ls, D) for _ in range(6)]
    tables = [_random_table(rng, ls, D, unital=(i % 2 == 0)) for i in range(6)]
    corpus = infs + chars + tables

    def pick3(i):
        return corpus[(3 * i) % len(corpus)], corpus[(3 * i + 1) % len(corpus)], \
            corpus[(3 * i + 2) % len(corpus)]

    # The three shuffle identities, on mixed random triples.
    for idx, (name, lhs_of, rhs_of) in enumerate((
            ("shuffle-axiom-left",
             lambda f, g, h: fn.hs_left(fn.hs_left(f, g), h),
             lambda f, g, h: fn.hs_left(f, fn.conv(g, h))),
            ("shuffle-axiom-mixed",
             lambda f, g, h: fn.hs_left(fn.hs_right(f, g), h),
             lambda f, g, h: fn.hs_right(f, fn.hs_left(g, h))),
            ("shuffle-axiom-right",
             lambda f, g, h: fn.hs_right(f, fn.hs_right(g, h)),
             lambda f, g, h: fn.hs_right(fn.conv(f, g), h)))):
        mismatch = None
        for t in range(3):
            f, g, h = pick3(idx * 3 + t)
            mismatch = _disagreement(lhs_of(f, g, h), rhs_of(f, g, h), ls, D)
            if mismatch:
                break
        report.add(CheckResult.from_mismatch(name, mismatch))

    # f*g = f<g + f>g away from the unit.
    f, g = corpus[1], corpus[10]
    report.add(_agree("convolution-splits", fn.conv(f, g),
                      fn.hs_left(f, g) + fn.hs_right(f, g), ls, D,
                      include_empty=False))

    # Unit conventions (identities of functionals on the augmentation kernel).
    f = tables[1]
    zero = fn.from_values({})
    report.add(_agree("unit-acts-left", fn.hs_right(fn.unit(), f), f, ls, D,
                      include_empty=False))
    report.add(_agree("unit-acts-right", fn.hs_left(f, fn.unit()), f, ls, D,
                      include_empty=False))
    report.add(_agree("unit-kills-left", fn.hs_left(fn.unit(), f), zero, ls, D))
    report.add(_agree("unit-kills-right", fn.hs_right(f, fn.unit()), zero, ls, D))

    # Pre-Lie: bracket matches the convolution bracket, and the left pre-Lie
    # associator symmetry holds.
    a1, a2, a3 = infs[0], infs[1], infs[2]
    report.add(_agree("pre-lie-bracket",
                      fn.prelie(a1, a2) - fn.prelie(a2, a1),
                      fn.conv(a1, a2) - fn.conv(a2, a1), ls, D,
                      include_empty=False))
    assoc = lambda x, y, z: fn.prelie(fn.prelie(x, y), z) - fn.prelie(x, fn.prelie(y, z))
    report.add(_agree("pre-lie-identity",
                      assoc(a1, a2, a3), assoc(a2, a1, a3), ls, D))

    # exp/log round trips and the mutual-inverse lemma.
    alpha, phi = infs[3], chars[0]
    report.add(_agree("left-exp-inverse-lemma",
                      fn.conv(fn.exp_right(-1 * alpha), fn.exp_left(alpha)),
                      fn.unit(), ls, D))
    report.add(_agree("exp-log-round-trip-left",
                      fn.log_left(fn.exp_left(alpha)), alpha, ls, D))
    report.add(_agree("log-exp-round-trip-left",
                      fn.exp_left(fn.log_left(phi)), phi, ls, D))
    report.add(_agree("exp-log-round-trip-right",
                      fn.log_right(fn.exp_right(alpha)), alpha, ls, D))
    report.add(_agree("log-exp-round-trip-right",
                      fn.exp_right(fn.log_right(phi)), phi, ls, D))
    report.add(_agree("exp-log-round-trip-star",
                      fn.log_star(fn.exp_star(alpha)), alpha, ls, D))
    report.add(_agree("log-exp-round-trip-star",
                      fn.exp_star(fn.log_star(phi)), phi, ls, D))

    # Convolution inverse is two-sided.
    inv = fn.neumann_inverse(phi)
    report.add(_agree("neumann-inverse-right", fn.conv(phi, inv), fn.unit(), ls, D))
    report.add(_agree("neumann-inverse-left", fn.conv(inv, phi), fn.unit(), ls, D))

    # Exponentials of infinitesimal characters are characters.  The flag
    # would factor E over the bars by itself, so this node goes without it
    # and takes its bar values from the coproduct.
    E = fn.exp_left(infs[4])
    E.is_character = False
    mismatch = _first_mismatch(
        (x.concat(y), E(x.concat(y)), E(x) * E(y))
        for x in all_barwords(ls, D)
        for y in all_barwords(ls, D - x.degree) if x.degree < D)
    report.add(CheckResult.from_mismatch("left-exp-is-multiplicative", mismatch))

    # Group action compatibilities with the half-shuffles (degree <= 5).
    d5 = min(D, 5)
    mu, nu = infs[5], infs[6]
    sand = lambda x: fn.hs_left(fn.hs_right(inv, x), phi)
    conj = lambda x: fn.conv(fn.conv(inv, x), phi)
    report.add(_agree("adjoint-compat-right",
                      sand(fn.hs_right(mu, nu)),
                      fn.hs_right(conj(mu), sand(nu)), ls, d5))
    report.add(_agree("adjoint-compat-left",
                      sand(fn.hs_left(mu, nu)),
                      fn.hs_left(sand(mu), conj(nu)), ls, d5))
    report.add(_agree("adjoint-compat-prelie",
                      sand(fn.prelie(mu, nu)),
                      fn.prelie(conj(mu), sand(nu)), ls, d5))

    # The adjoint action sends the left logarithm to the right logarithm.
    kappa = fn.log_left(phi)
    beta = fn.log_right(phi)
    report.add(_agree("adjoint-left-to-right-log",
                      fn.adjoint(phi, kappa), beta, ls, D))

    # Closed-form Lie-level action vs its defining conjugation, plus its
    # diagonal value and fixed-point identity.
    g1, g2 = infs[5], infs[7]
    report.add(_agree("ad-closed-form-matches-conjugation",
                      fn.ad_action(g1, g2), fn.ad_action_composed(g1, g2), ls, d5))
    report.add(_agree("ad-diagonal-is-right-log",
                      fn.ad_action(g1, g1), fn.log_right(fn.exp_left(g1)), ls, D))
    report.add(_agree("ad-diagonal-inverse-form",
                      fn.ad_action(g1, g1),
                      -1 * fn.log_left(fn.neumann_inverse(fn.exp_left(g1))), ls, d5))
    E1 = fn.exp_left(g1)
    lhs = fn.exp_left(fn.ad_action(g1, g2))
    rhs = fn.unit() + fn.hs_left(fn.hs_right(fn.neumann_inverse(E1), g2),
                                 fn.exp_left(g2 + g1))
    report.add(_agree("ad-fixed-point-identity", lhs, rhs, ls, d5))
    report.add(_agree("ad-right-via-conjugation",
                      fn.ad_action_right(g1, g2),
                      fn.hs_left(fn.hs_right(fn.exp_right(g1), g2),
                                 fn.neumann_inverse(fn.exp_right(g1))), ls, d5))
    return report


def magnus_suite(max_degree: int = 6, seed: int = 0,
                 letters=DEFAULT_LETTERS) -> Report:
    rng = random.Random(seed)
    ls = _letters(letters)
    D = max_degree
    d5, d4 = min(D, 5), min(D, 4)
    report = Report("magnus")

    # Bernoulli table sanity: defining recurrence and vanishing odd entries.
    bad = None
    for m in range(1, 13):
        rec = sum(comb(m + 1, j) * bernoulli[j] for j in range(m + 1))
        if rec != 0:
            bad = (f"B_{m} recurrence", rational_str(rec), "0")
            break
        if m >= 3 and m % 2 == 1 and bernoulli[m] != 0:
            bad = (f"B_{m}", rational_str(bernoulli[m]), "0")
            break
    if bad is None and (bernoulli[0] != 1 or bernoulli[1] != Fraction(-1, 2)
                        or bernoulli[2] != Fraction(1, 6)):
        bad = ("B_0..B_2", "table start", "1, -1/2, 1/6")
    report.add(CheckResult("bernoulli-table", "fail", {
        "element": bad[0], "lhs": bad[1], "rhs": bad[2]}) if bad
        else CheckResult.ok("bernoulli-table"))

    alpha = _random_infinitesimal(rng, ls, D)
    kappa = _random_infinitesimal(rng, ls, D)

    # Leading terms of the expansion and of its inverse.
    report.add(_agree("magnus-low-order",
                      magnus(alpha),
                      alpha + Fraction(-1, 2) * fn.prelie(alpha, alpha),
                      ls, min(D, 2)))
    report.add(_agree("magnus-inverse-low-order",
                      magnus_inverse(alpha),
                      alpha + Fraction(1, 2) * fn.prelie(alpha, alpha)
                      + Fraction(1, 6) * fn.prelie(alpha, fn.prelie(alpha, alpha)),
                      ls, min(D, 3)))

    report.add(_agree("magnus-is-star-log-of-left-exp",
                      magnus(kappa), fn.log_star(fn.exp_left(kappa)), ls, D))
    report.add(_agree("magnus-round-trip-wo",
                      magnus_inverse(magnus(kappa)), kappa, ls, D))
    report.add(_agree("magnus-round-trip-ow",
                      magnus(magnus_inverse(kappa)), kappa, ls, D))

    # Exponential transport: E<(W(g)) = exp*(g) = E>(-W(-g)).
    gamma = _random_infinitesimal(rng, ls, D)
    report.add(_agree("exp-transport-left",
                      fn.exp_left(magnus_inverse(gamma)), fn.exp_star(gamma), ls, D))
    report.add(_agree("exp-transport-right",
                      fn.exp_right(-1 * magnus_inverse(-1 * gamma)),
                      fn.exp_star(gamma), ls, D))

    # Free <-> boolean through the Magnus pair.
    phi = _random_character(rng, ls, D)
    kap, bet = fn.log_left(phi), fn.log_right(phi)
    report.add(_agree("free-to-boolean-magnus",
                      -1 * magnus_inverse(-1 * magnus(kap)), bet, ls, D))
    report.add(_agree("boolean-to-free-magnus",
                      magnus_inverse(-1 * magnus(-1 * bet)), kap, ls, D))

    # Group laws.
    g1 = _random_infinitesimal(rng, ls, D)
    g2 = _random_infinitesimal(rng, ls, D)
    g3 = _random_infinitesimal(rng, ls, D)
    zero = fn.infinitesimal({})
    report.add(_agree("group-law-closed-form",
                      group_law_left(g1, g2),
                      group_law_left_definitional(g1, g2), ls, d5))
    report.add(_agree("group-law-unit-right", group_law_left(g1, zero), g1, ls, D))
    report.add(_agree("group-law-unit-left", group_law_left(zero, g1), g1, ls, D))
    report.add(_agree("bch-transport",
                      magnus(group_law_left(g1, g2)),
                      bch(magnus(g1), magnus(g2)), ls, d5))
    report.add(_agree("bch-unit", bch(g1, zero), g1, ls, D))
    report.add(_agree("bch-degree-2",
                      bch(g1, g2),
                      g1 + g2 + Fraction(1, 2) * (fn.conv(g1, g2) - fn.conv(g2, g1)),
                      ls, min(D, 2)))
    report.add(_agree("bch-antisymmetry",
                      bch(-1 * g1, -1 * g2), -1 * bch(g2, g1), ls, d5))
    report.add(_agree("group-law-associativity",
                      group_law_left(group_law_left(g1, g2), g3),
                      group_law_left(g1, group_law_left(g2, g3)), ls, d4))
    report.add(_agree("group-law-inverse",
                      group_law_left(g1, fn.log_left(fn.neumann_inverse(fn.exp_left(g1)))),
                      zero, ls, d4))
    report.add(_agree("group-law-right-via-left",
                      group_law_right(g1, g2),
                      fn.log_right(fn.conv(fn.exp_right(g1), fn.exp_right(g2))), ls, d4))

    # Fixed value: the monotone cumulant of degree 4 of the semicircle law.
    sem = semicircle(max(4, min(D, 6)))
    rho = magnus(fn.log_left(sem.character()))
    a = sem.letters[0]
    got = rho(Word((a,) * 4))
    report.add(CheckResult.ok("semicircle-degree-4-monotone") if got == Fraction(1, 2)
               else CheckResult.fail("semicircle-degree-4-monotone",
                                     Word((a,) * 4), got, Fraction(1, 2)))
    return report


def cumulants_suite(max_degree: int = 6, seed: int = 0,
                    letters=DEFAULT_LETTERS) -> Report:
    rng = random.Random(seed)
    ls = _letters(letters)
    D = max_degree
    report = Report("cumulants")

    kinds = (CumulantKind.FREE, CumulantKind.BOOLEAN, CumulantKind.MONOTONE)

    # Oracle equivalence on random multivariate distributions.
    dists = [_random_distribution(rng, ls, D) for _ in range(10)]
    for kind in kinds:
        mismatch = None
        for d in dists:
            cums = to_cumulants(d, kind)
            mismatch = _first_mismatch(
                (w, oracle_moments(cums, kind, w), d.moment(w))
                for w in d.words())
            if mismatch:
                break
        report.add(CheckResult.from_mismatch(f"partition-oracle-{kind.value}", mismatch))

    # Fixed vectors for the semicircle law.
    sem = semicircle(min(D, 6) if D >= 4 else 4)
    a = sem.letters[0]
    w = lambda k: Word((a,) * k)
    free = to_cumulants(sem, "free")
    boolean = to_cumulants(sem, "boolean")
    mono = to_cumulants(sem, "monotone")
    checks = [
        ("semicircle-free-cumulants", free,
         {w(2): Fraction(1)}),
        ("semicircle-boolean-cumulants", boolean,
         {w(2): Fraction(1), w(4): Fraction(1), w(6): Fraction(2)}),
    ]
    for name, got, expect in checks:
        expect = {k: v for k, v in expect.items() if len(k) <= sem.max_degree}
        mismatch = _first_mismatch(
            (k, Fraction(got.get(k, 0)), Fraction(expect.get(k, 0)))
            for k in sorted(set(got) | set(expect), key=Word.sort_key))
        report.add(CheckResult.from_mismatch(name, mismatch))
    got4 = mono.get(w(4), Fraction(0))
    report.add(CheckResult.ok("semicircle-monotone-h4") if got4 == Fraction(1, 2)
               else CheckResult.fail("semicircle-monotone-h4", w(4), got4, Fraction(1, 2)))

    # Catalan / interval fixed vectors from unit pair cumulants.
    pairc = {w(2): Fraction(1)}
    cat = from_cumulants(pairc, "free", sem.letters, sem.max_degree)
    boo = from_cumulants(pairc, "boolean", sem.letters, sem.max_degree)
    expect_cat = {2: 1, 4: 2, 6: 5}
    expect_boo = {2: 1, 4: 1, 6: 1}
    mismatch = _first_mismatch(
        (w(k), cat.moment(w(k)), Fraction(v))
        for k, v in expect_cat.items() if k <= sem.max_degree)
    report.add(CheckResult.from_mismatch("free-pair-cumulants-catalan", mismatch))
    mismatch = _first_mismatch(
        (w(k), boo.moment(w(k)), Fraction(v))
        for k, v in expect_boo.items() if k <= sem.max_degree)
    report.add(CheckResult.from_mismatch("boolean-pair-cumulants-interval", mismatch))

    # Round trips and conversions.
    d0 = dists[0]
    mismatch = None
    for kind in kinds:
        back = from_cumulants(to_cumulants(d0, kind), kind, d0.letters, D)
        mismatch = _first_mismatch((w, back.moment(w), d0.moment(w)) for w in d0.words())
        if mismatch:
            break
    report.add(CheckResult.from_mismatch("moment-cumulant-round-trip", mismatch))

    cmap = to_cumulants(d0, "free")
    mismatch = None
    for src in kinds:
        base = convert(cmap, "free", src, D, d0.letters)
        for dst in kinds:
            there = convert(base, src, dst, D, d0.letters)
            detour = to_cumulants(from_cumulants(base, src, d0.letters, D), dst)
            mismatch = mismatch or _first_mismatch(
                (w, Fraction(there.get(w, 0)), Fraction(detour.get(w, 0)))
                for w in d0.words())
            back = convert(there, dst, src, D, d0.letters)
            mismatch = mismatch or _first_mismatch(
                (w, Fraction(back.get(w, 0)), Fraction(base.get(w, 0)))
                for w in d0.words())
    report.add(CheckResult.from_mismatch("convert-round-trips-and-detour", mismatch))

    # Monotone from pure-pair boolean cumulants: h4 = -1/2.
    mono2 = convert(pairc, "boolean", "monotone", 4, sem.letters)
    got = Fraction(mono2.get(w(4), 0))
    report.add(CheckResult.ok("boolean-pair-to-monotone-h4") if got == Fraction(-1, 2)
               else CheckResult.fail("boolean-pair-to-monotone-h4", w(4), got, Fraction(-1, 2)))

    # All three families agree in degrees 1 and 2.
    mismatch = None
    for d in dists[:3]:
        vals = [to_cumulants(d, kind) for kind in kinds]
        mismatch = _first_mismatch(
            (wd, Fraction(vals[0].get(wd, 0)), Fraction(vals[i].get(wd, 0)))
            for wd in words_up_to(ls, min(D, 2)) for i in (1, 2))
        if mismatch:
            break
    report.add(CheckResult.from_mismatch("degree-le-2-cumulants-agree", mismatch))

    # Series identities.
    d1 = dists[1]
    M = series(d1, "M")
    eta = series(d1, "eta")
    lhs = M
    rhs = eta + M * eta
    mismatch = _first_mismatch(
        (wd, lhs.coefficient(wd), rhs.coefficient(wd)) for wd in words_up_to(ls, D))
    report.add(CheckResult.from_mismatch("moment-series-fixed-point", mismatch))

    R = series(sem, "R")
    expect = {w(2): Fraction(1)}
    report.add(CheckResult.ok("semicircle-R-series") if R.coefficients == expect
               else CheckResult.fail("semicircle-R-series", w(2),
                                     repr(R.coefficients), repr(expect)))

    pm = point_mass(Fraction(3, 2), min(D, 6))
    eta_pm = series(pm, "eta")
    expect = {Word((pm.letters[0],)): Fraction(3, 2)}
    report.add(CheckResult.ok("point-mass-eta-series") if eta_pm.coefficients == expect
               else CheckResult.fail("point-mass-eta-series", pm.letters[0],
                                     repr(eta_pm.coefficients), repr(expect)))
    return report


def products_suite(max_degree: int = 5, seed: int = 0,
                   letters=DEFAULT_LETTERS) -> Report:
    rng = random.Random(seed)
    D = max_degree
    report = Report("products")

    # Universal products on two single-letter algebras.
    def random_univariate(name):
        return Distribution.univariate(name, [_rand_fraction(rng) for _ in range(D)], D)

    mismatches = {"monotone": None, "antimonotone": None, "free": None, "boolean": None}
    for _ in range(10):
        ctx = pr.LabeledContext.from_distributions(random_univariate("x"),
                                                   random_univariate("y"))
        phi1, phi2 = ctx.characters()
        mono = pr.monotone_conv(phi1, phi2)
        anti = pr.antimonotone_conv(phi1, phi2)
        free = pr.free_conv(phi1, phi2)
        boole = pr.boolean_conv(phi1, phi2)
        alt = list(ctx.alternating_words(min(D, 5)))
        mismatches["monotone"] = mismatches["monotone"] or _first_mismatch(
            (w, mono(w), ctx.closed_monotone(w)) for w in alt)
        mismatches["antimonotone"] = mismatches["antimonotone"] or _first_mismatch(
            (w, anti(w), ctx.closed_antimonotone(w)) for w in alt)
        mismatches["free"] = mismatches["free"] or _first_mismatch(
            (w, free(w), ctx.closed_free(free, w)) for w in alt)
        mismatches["boolean"] = mismatches["boolean"] or _first_mismatch(
            (w, boole(w), ctx.closed_boolean(w)) for w in alt)
        if all(v is not None for v in mismatches.values()):
            break
    for kind in ("monotone", "antimonotone", "free", "boolean"):
        report.add(CheckResult.from_mismatch(f"universal-product-{kind}", mismatches[kind]))

    # The signed-subset recursion satisfied by the free product character.
    ctx = pr.LabeledContext.from_distributions(random_univariate("x"),
                                               random_univariate("y"))
    phi1, phi2 = ctx.characters()
    free = pr.free_conv(phi1, phi2)
    rec = fn.hs_left(free, fn.positive_part(fn.neumann_inverse(free)))
    mismatch = _first_mismatch(
        (w, free(w), -rec(w)) for w in ctx.alternating_words(min(D, 5)) if len(w) >= 2)
    report.add(CheckResult.from_mismatch("free-product-recursion", mismatch))

    # Convolution group laws on a common algebra.
    ls = _letters(letters)
    phis = [_random_character(rng, ls, D) for _ in range(3)]
    E = fn.unit()
    for tag, op in (("free", pr.free_conv), ("boolean", pr.boolean_conv)):
        p, q, r = phis
        report.add(_agree(f"{tag}-conv-commutative", op(p, q), op(q, p), ls, min(D, 5)))
        report.add(_agree(f"{tag}-conv-associative",
                          op(op(p, q), r), op(p, op(q, r)), ls, min(D, 5)))
        report.add(_agree(f"{tag}-conv-unit", op(p, E), p, ls, D))

    # Linearisation of the logarithms.
    g1 = _random_infinitesimal(rng, ls, D)
    g2 = _random_infinitesimal(rng, ls, D)
    report.add(_agree("free-conv-linearises-left-log",
                      fn.log_left(pr.free_conv(fn.exp_left(g1), fn.exp_left(g2))),
                      g1 + g2, ls, D))
    report.add(_agree("boolean-conv-linearises-right-log",
                      fn.log_right(pr.boolean_conv(fn.exp_right(g1), fn.exp_right(g2))),
                      g1 + g2, ls, D))

    # Factorizations of the exponential of a sum.
    left = pr.factorize(g1, g2, Side.LEFT)
    right = pr.factorize(g1, g2, Side.RIGHT)
    report.add(_agree("factorization-left",
                      fn.conv(*left), fn.exp_left(g1 + g2), ls, min(D, 5)))
    report.add(_agree("factorization-right",
                      fn.conv(*right), fn.exp_right(g1 + g2), ls, min(D, 5)))

    # Half-shuffle powers form one-parameter groups.
    phi = phis[0]
    s, t = Fraction(2, 3), Fraction(-1, 2)
    report.add(_agree("power-group-left",
                      pr.free_conv(fn.hs_power(phi, s, Side.LEFT),
                                   fn.hs_power(phi, t, Side.LEFT)),
                      fn.hs_power(phi, s + t, Side.LEFT), ls, min(D, 5)))
    report.add(_agree("power-group-right",
                      pr.boolean_conv(fn.hs_power(phi, s, Side.RIGHT),
                                      fn.hs_power(phi, t, Side.RIGHT)),
                      fn.hs_power(phi, s + t, Side.RIGHT), ls, min(D, 5)))
    report.add(_agree("power-one-is-identity",
                      fn.hs_power(phi, 1, Side.LEFT), phi, ls, D))
    report.add(_agree("power-zero-is-unit",
                      fn.hs_power(phi, 0, Side.LEFT), fn.unit(), ls, D))

    # Semicircle + semicircle doubles the free cumulants.
    sem = semicircle(min(D, 6) if D >= 4 else 4)
    total = pr.convolve_distributions(sem, sem, "free")
    a = sem.letters[0]
    expect = {2: 2, 4: 8, 6: 40}
    mismatch = _first_mismatch(
        (Word((a,) * k), total.moment(Word((a,) * k)), Fraction(v))
        for k, v in expect.items() if k <= sem.max_degree)
    report.add(CheckResult.from_mismatch("semicircle-free-convolution", mismatch))

    # Subordination identities, over ten random character pairs/triples.
    d5 = min(D, 5)
    found = {"subordination-decomposition": None,
             "subordination-decomposition-swapped": None,
             "subordination-decomposition-right": None,
             "subordination-distributivity": None,
             "subordination-change-of-product": None,
             "subordination-log-additivity": None}
    for _ in range(10):
        P1, P2, P3 = (fn.exp_left(_random_infinitesimal(rng, ls, d5))
                      for _ in range(3))
        left_sub = lambda a, b: pr.subordinate(a, b, Side.LEFT)
        checks = {
            "subordination-decomposition":
                (pr.free_conv(P1, P2), fn.conv(P1, left_sub(P2, P1))),
            "subordination-decomposition-swapped":
                (pr.free_conv(P1, P2), fn.conv(P2, left_sub(P1, P2))),
            "subordination-decomposition-right":
                (pr.boolean_conv(P1, P2),
                 fn.conv(pr.subordinate(P2, P1, Side.RIGHT), P2)),
            "subordination-distributivity":
                (left_sub(pr.free_conv(P1, P2), P3),
                 pr.free_conv(left_sub(P1, P3), left_sub(P2, P3))),
            "subordination-change-of-product":
                (pr.free_conv(P1, P2),
                 pr.boolean_conv(left_sub(P1, P2), left_sub(P2, P1))),
            "subordination-log-additivity":
                (fn.log_right(pr.free_conv(P1, P2)),
                 fn.log_right(left_sub(P1, P2)) + fn.log_right(left_sub(P2, P1))),
        }
        for name, (lhs, rhs) in checks.items():
            found[name] = found[name] or _disagreement(lhs, rhs, ls, d5)
    for name, mismatch in found.items():
        report.add(CheckResult.from_mismatch(name, mismatch))

    # The same additivity at the eta-series level, on distribution pairs.
    mismatch = None
    for _ in range(10):
        dmu = _random_distribution(rng, ls, d5)
        dnu = _random_distribution(rng, ls, d5)
        conv_d = pr.convolve_distributions(dmu, dnu, "free")
        sub_mu = pr.subordinate_distributions(dmu, dnu, "left")
        sub_nu = pr.subordinate_distributions(dnu, dmu, "left")
        lhs = series(conv_d, "eta")
        rhs = series(sub_mu, "eta") + series(sub_nu, "eta")
        mismatch = mismatch or _first_mismatch(
            (wd, lhs.coefficient(wd), rhs.coefficient(wd)) for wd in words_up_to(ls, d5))
    report.add(CheckResult.from_mismatch("eta-series-additivity", mismatch))
    return report


def bp_suite(max_degree: int = 6, seed: int = 0, letters=DEFAULT_LETTERS) -> Report:
    rng = random.Random(seed)
    ls = _letters(letters)
    D = max_degree
    report = Report("bp")

    phi = _random_character(rng, ls, D)
    report.add(_agree("bp-is-self-subordination",
                      pr.bp(phi), pr.subordinate(phi, phi, Side.LEFT), ls, D))
    report.add(_agree("bp-zero-is-identity", pr.bp_t(phi, 0), phi, ls, D))
    report.add(_agree("bp-one-is-bp", pr.bp_t(phi, 1), pr.bp(phi), ls, D))
    report.add(_agree("bp-inverse-round-trip",
                      pr.bp_inverse(pr.bp(phi)), phi, ls, D))
    report.add(_agree("bp-round-trip-other-way",
                      pr.bp(pr.bp_inverse(phi)), phi, ls, D))

    for t, s in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1)),
                 (Fraction(1, 3), Fraction(2, 3))):
        report.add(_agree(f"bp-semigroup-{t}-{s}".replace("/", "over"),
                          pr.bp_t(pr.bp_t(phi, s), t), pr.bp_t(phi, t + s), ls, D))

    # Boolean-power closed form for positive parameters.
    for t in (Fraction(1, 2), Fraction(2)):
        gamma = fn.log_right(phi)
        closed = fn.hs_power(fn.exp_left(t * gamma), 1 / t, Side.RIGHT)
        report.add(_agree(f"bp-boolean-power-form-{t}".replace("/", "over"),
                          pr.bp_t(phi, t), closed, ls, D))

    # R-series of the image equals the eta-series of the source.
    d = _random_distribution(rng, ls, D)
    image = pr.bp_distribution(d)
    lhs = series(image, "R")
    rhs = series(d, "eta")
    mismatch = _first_mismatch(
        (wd, lhs.coefficient(wd), rhs.coefficient(wd)) for wd in words_up_to(ls, D))
    report.add(CheckResult.from_mismatch("bp-R-equals-eta", mismatch))

    # Fixed vector: symmetric Bernoulli maps to the semicircle law.
    deg = min(D, 6) if D >= 2 else 2
    bern = bernoulli_symmetric(deg)
    sem = semicircle(deg)
    image = pr.bp_distribution(bern)
    mismatch = _first_mismatch(
        (w, image.moment(w), sem.moment(w))
        for w in words_up_to(bern.letters, deg))
    report.add(CheckResult.from_mismatch("bernoulli-to-semicircle", mismatch))
    return report


def identity_suite(max_degree: int = 5, seed: int = 0,
                   letters=DEFAULT_LETTERS) -> Report:
    """Single report aggregating the product/subordination identities and the
    bijection fundamentals (the union of the products and bp suites)."""
    merged = Report("identities")
    for part in (products_suite, bp_suite):
        merged.extend(part(max_degree=max_degree, seed=seed, letters=letters).results)
    return merged


_SUITE_FUNCS = {
    "coalgebra": coalgebra_suite,
    "shuffle": shuffle_suite,
    "magnus": magnus_suite,
    "cumulants": cumulants_suite,
    "products": products_suite,
    "bp": bp_suite,
}


def run_suite(name: str, max_degree: int = 5, seed: int = 0,
              letters=DEFAULT_LETTERS) -> Report:
    if name not in _SUITE_FUNCS:
        raise ValidationError(f"unknown suite {name!r}; expected one of "
                              f"{sorted(_SUITE_FUNCS)} or 'all'")
    return _SUITE_FUNCS[name](max_degree=max_degree, seed=seed, letters=letters)


def run_suites(names, max_degree: int = 5, seed: int = 0,
               letters=DEFAULT_LETTERS) -> list[Report]:
    if names == "all" or names == ["all"]:
        names = list(SUITES)
    return [run_suite(n, max_degree=max_degree, seed=seed, letters=letters)
            for n in names]
