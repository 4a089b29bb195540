"""Randomised verification suites for the whole calculus.

Each suite re-derives a family of theorems on a deterministic pseudo-random
corpus and reports one :class:`CheckResult` per identity, with the first
counterexample as witness.  Random characters are produced by exponentiating
random infinitesimal characters, which guarantees well-formedness instead of
rejection-sampling on moments.  All comparisons are exact.

:func:`run_suites`, the one driver, checks the letters and max_degree by
the rules of :mod:`io` and :mod:`cumulants` before any suite runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import islice, product
from math import comb

from . import functionals as fn
from . import products as pr
from .axioms import check_axioms
from .coproducts import Side, unshuffle_bar
from .cumulants import (CumulantKind, Distribution, _degree, _letters, bernoulli_symmetric,
                        convert, from_cumulants, point_mass, semicircle, series,
                        tabulate, to_cumulants)
from .errors import DomainError, ValidationError
from .io import letters_from_names
from .magnus import bch, bernoulli, group_law_left, group_law_right, magnus, magnus_inverse
from .partitions import oracle_convert, oracle_moments
from .reporting import CheckResult, Report
from .words import Word, all_barwords, words_up_to

DEFAULT_LETTERS = ("a", "b")


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


def _first_mismatch(triples):
    """triples: iterable of (element, lhs, rhs); first unequal triple or None."""
    for element, lhs, rhs in triples:
        if lhs != rhs:
            return (element, lhs, rhs)
    return None


def _entrywise(keys, lhs, rhs):
    """First key where the two sides differ, as a mismatch triple, or None.
    A side is a function of the key, or a mapping read with 0 for a missing key."""
    def reader(side):
        return side if callable(side) else lambda k: Fraction(side.get(k, 0))
    lhs, rhs = reader(lhs), reader(rhs)
    return _first_mismatch((k, lhs(k), rhs(k)) for k in keys)


def _expect(name, element, got, want) -> CheckResult:
    """A fixed value: got must equal want; element is the witness."""
    return CheckResult.from_mismatch(name, _first_mismatch([(element, got, want)]))


def _agree(name, f, g, letters, degree, include_empty=True) -> CheckResult:
    return CheckResult.from_mismatch(
        name, fn.agree_up_to(f, g, letters, degree, include_empty=include_empty))


def _ad_closed_form(g1, g2, letters, max_degree) -> fn.Functional:
    """Closed form of the Lie-level action g2^{g1}, a reference independent
    of the engine's conjugation, tabulated up to max_degree.  On a word
    w = w_1...w_n of degree n >= 2 it sums c * g2(w_1.x.w_n) * E<(g1)(y)
    over the terms c * x (x) y of the full coproduct of w_2...w_{n-1}, that
    is g2(w_S) * E<(g1)(runs of [n]-S) over the subsets S holding both ends."""
    E = fn.exp_left(g1)
    values = {}
    for w in words_up_to(letters, max_degree):
        a = w.letters
        values[w] = g2(w) if len(a) == 1 else sum(
            c * g2(Word(a[:1] + (x.words[0].letters if x else ()) + a[-1:])) * E(y)
            for (x, y), c in unshuffle_bar(Word(a[1:-1])))
    return fn.infinitesimal(values)


def _log_right_defining(phi) -> fn.Functional:
    """The defining expression phi^{-1} > (phi - e) of log_right, which the
    engine computes as a division."""
    return fn.hs_right(fn.neumann_inverse(phi), phi - fn.e)


def _ad_composed(g1, g2) -> fn.Functional:
    """The defining conjugation E<(g1)^{-1} > g2 < E<(g1) of ad_action as
    three nodes, where the engine divides once."""
    if not (g1.is_infinitesimal_character and g2.is_infinitesimal_character):
        raise DomainError("the adjoint actions act on infinitesimal characters")
    E = fn.exp_left(g1)
    out = fn.hs_left(fn.hs_right(fn.neumann_inverse(E), g2), E)
    out.is_infinitesimal_character = True
    return out


def _group_law_left_defining(g1, g2) -> fn.Functional:
    """The defining expression log_left(E<(g1) * E<(g2)) of g1 # g2."""
    return fn.log_left(fn.conv(fn.exp_left(g1), fn.exp_left(g2)))


def _check_alternating(w: Word):
    if not w:
        raise DomainError("closed forms are stated for nonempty alternating words")
    tags = [l.tag for l in w.letters]
    if any(t not in (1, 2) for t in tags):
        raise DomainError(f"word {w!r} uses letters outside the context")
    if any(a == b for a, b in zip(tags, tags[1:])):
        raise DomainError(f"word {w!r} does not alternate between the algebras")


# The closed forms of the universal products at an alternating word w of a
# LabeledContext ctx; node is the engine's product, read by the free form only.

def _closed_grouped(tag: int, ctx, node, w: Word) -> Fraction:
    """The letters of algebra tag multiply inside one moment; the other
    algebra's letters factor out one by one."""
    _check_alternating(w)
    own = w.subword([i + 1 for i, l in enumerate(w.letters) if l.tag == tag])
    out = ctx.dist_for_tag(tag).moment(own) if own else Fraction(1)
    for l in w.letters:
        if l.tag != tag:
            out *= ctx.dist_for_tag(l.tag).moment(Word((l,)))
    return out


_closed_monotone = partial(_closed_grouped, 1)
_closed_antimonotone = partial(_closed_grouped, 2)


def _closed_boolean(ctx, node, w: Word) -> Fraction:
    """Every letter factors out on its own moment."""
    _check_alternating(w)
    out = Fraction(1)
    for l in w.letters:
        out *= ctx.dist_for_tag(l.tag).moment(Word((l,)))
    return out


def _closed_free(ctx, node, w: Word) -> Fraction:
    """Signed subset recursion satisfied by the free product: the moment of
    w is determined by node at proper subwords keeping position 1 and by
    first moments of the dropped letters."""
    _check_alternating(w)
    n = len(w)
    if n == 1:
        return ctx.dist_for_tag(w.letters[0].tag).moment(w)
    total = Fraction(0)
    for mask in range(1, 1 << n, 2):
        if mask == (1 << n) - 1:
            continue
        positions = [i + 1 for i in range(n) if mask >> i & 1]
        inner = node(w.subword(positions))
        if not inner:
            continue
        sign = -1 if (n - len(positions)) % 2 else 1
        outer = Fraction(1)
        for i in range(n):
            if not mask >> i & 1:
                l = w.letters[i]
                outer *= ctx.dist_for_tag(l.tag).moment(Word((l,)))
        total += sign * inner * outer
    return -total


def _first_over(draws, checks) -> list[CheckResult]:
    """checks maps a name to a function from one draw to a mismatch or None.
    Each check keeps its first mismatch over the draws, in order, and is not
    run again; drawing stops once every check has one."""
    found = dict.fromkeys(checks)
    for draw in draws:
        for name, check in checks.items():
            if found[name] is None:
                found[name] = check(draw)
        if None not in found.values():
            break
    return [CheckResult.from_mismatch(name, m) for name, m in found.items()]


# ---------------------------------------------------------------------------
# suites: each takes (rng, letters, max_degree), as run_suites checked them

def coalgebra_suite(rng, ls, D) -> Report:
    return check_axioms(ls, D)


def shuffle_suite(rng, ls, D) -> Report:
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
        report.extend(_first_over(
            (pick3(idx * 3 + t) for t in range(3)),
            {name: lambda fgh: fn.agree_up_to(lhs_of(*fgh), rhs_of(*fgh), ls, D)}))

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
    # log_right is computed as a fixed point: check it against its definition.
    report.add(_agree("log-right-fixed-point",
                      fn.log_right(phi), _log_right_defining(phi), ls, D))
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

    # The Lie-level action vs its closed form, and the closed form's diagonal:
    # the engine's ad(g1, g1) = E^{-1} > (g1 < E) would match log_right(E)
    # by exp_left's own equation, whatever the coproduct.
    g1, g2 = infs[5], infs[7]
    report.add(_agree("ad-closed-form-matches-conjugation",
                      fn.ad_action(g1, g2), _ad_closed_form(g1, g2, ls, d5), ls, d5))
    diagonal = _ad_closed_form(g1, g1, ls, D)
    report.add(_agree("ad-diagonal-is-right-log",
                      diagonal, fn.log_right(fn.exp_left(g1)), ls, D))
    report.add(_agree("ad-diagonal-inverse-form", diagonal,
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


def magnus_suite(rng, ls, D) -> Report:
    d5, d4 = min(D, 5), min(D, 4)
    report = Report("magnus")

    # Bernoulli table sanity: defining recurrence, vanishing odd entries and
    # the first three values.
    def table():
        for m in range(1, 13):
            yield (f"B_{m} recurrence",
                   sum(comb(m + 1, j) * bernoulli[j] for j in range(m + 1)), 0)
            if m >= 3 and m % 2 == 1:
                yield f"B_{m}", bernoulli[m], 0
        for m, start in enumerate((1, Fraction(-1, 2), Fraction(1, 6))):
            yield f"B_{m}", bernoulli[m], start
    report.add(CheckResult.from_mismatch("bernoulli-table", _first_mismatch(table())))

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
                      _group_law_left_defining(g1, g2), ls, d5))
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
    a4 = Word((sem.letters[0],) * 4)
    report.add(_expect("semicircle-degree-4-monotone", a4, rho(a4), Fraction(1, 2)))
    return report


def cumulants_suite(rng, ls, D) -> Report:
    report = Report("cumulants")

    kinds = (CumulantKind.FREE, CumulantKind.BOOLEAN, CumulantKind.MONOTONE)

    # Oracle equivalence on random multivariate distributions.
    dists = [_random_distribution(rng, ls, D) for _ in range(10)]
    report.extend(_first_over(dists, {
        f"partition-oracle-{kind.value}": lambda d, kind=kind: _entrywise(
            d.words(), partial(oracle_moments, to_cumulants(d, kind), kind), d.moment)
        for kind in kinds}))

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
        report.add(CheckResult.from_mismatch(name, _entrywise(
            sorted(set(got) | set(expect), key=Word.sort_key), got, expect)))
    report.add(_expect("semicircle-monotone-h4", w(4), mono.get(w(4), Fraction(0)),
                       Fraction(1, 2)))

    # Catalan / interval fixed vectors from unit pair cumulants.
    pairc = {w(2): Fraction(1)}
    powers = [w(k) for k in (2, 4, 6) if k <= sem.max_degree]
    for name, kind, expect in (("free-pair-cumulants-catalan", "free", (1, 2, 5)),
                               ("boolean-pair-cumulants-interval", "boolean", (1, 1, 1))):
        got = from_cumulants(pairc, kind, sem.letters, sem.max_degree)
        report.add(CheckResult.from_mismatch(name, _entrywise(
            powers, got.moment, dict(zip(powers, expect)))))

    # Round trips and conversions.
    d0 = dists[0]
    report.extend(_first_over(kinds, {"moment-cumulant-round-trip": lambda kind: _entrywise(
        d0.words(), from_cumulants(to_cumulants(d0, kind), kind, d0.letters, D).moment,
        d0.moment)}))

    cmap = to_cumulants(d0, "free")
    bases = {src: convert(cmap, "free", src, D, d0.letters) for src in kinds}

    def round_trip(pair):
        src, dst = pair
        there = convert(bases[src], src, dst, D, d0.letters)
        detour = to_cumulants(from_cumulants(bases[src], src, d0.letters, D), dst)
        return (_entrywise(d0.words(), there, detour)
                or _entrywise(d0.words(), convert(there, dst, src, D, d0.letters),
                              bases[src]))
    report.extend(_first_over(product(kinds, kinds),
                              {"convert-round-trips-and-detour": round_trip}))

    # Conversions against the partition sums over NC_irr, outside the engine.
    def convert_oracle(src, dst):
        def check(d):
            given = to_cumulants(d, src)
            return _entrywise(d.words(), convert(given, src, dst, D, d.letters),
                              partial(oracle_convert, given, src, dst))
        return check
    report.extend(_first_over(dists[:3], {
        f"convert-oracle-{src}-to-{dst}": convert_oracle(src, dst)
        for src, dst in (("free", "boolean"), ("boolean", "free"), ("monotone", "boolean"))}))

    # Monotone from pure-pair boolean cumulants: h4 = -1/2.
    mono2 = convert(pairc, "boolean", "monotone", 4, sem.letters)
    report.add(_expect("boolean-pair-to-monotone-h4", w(4), Fraction(mono2.get(w(4), 0)),
                       Fraction(-1, 2)))

    # All three families agree in degrees 1 and 2.
    def low_degrees_agree(d):
        vals = [to_cumulants(d, kind) for kind in kinds]
        return _first_mismatch(
            (wd, Fraction(vals[0].get(wd, 0)), Fraction(vals[i].get(wd, 0)))
            for wd in words_up_to(ls, min(D, 2)) for i in (1, 2))
    report.extend(_first_over(dists[:3], {"degree-le-2-cumulants-agree": low_degrees_agree}))

    # Series identities.
    M = series(dists[1], "M")
    eta = series(dists[1], "eta")
    report.add(CheckResult.from_mismatch("moment-series-fixed-point", _entrywise(
        words_up_to(ls, D), M.coefficient, (eta + M * eta).coefficient)))

    report.add(_expect("semicircle-R-series", w(2), series(sem, "R").coefficients,
                       {w(2): Fraction(1)}))

    pm = point_mass(Fraction(3, 2), min(D, 6))
    report.add(_expect("point-mass-eta-series", pm.letters[0], series(pm, "eta").coefficients,
                       {Word((pm.letters[0],)): Fraction(3, 2)}))
    return report


def products_suite(rng, ls, D) -> Report:
    report = Report("products")

    # Universal products on two single-letter algebras.
    def random_univariate(name):
        return Distribution.univariate(name, [_rand_fraction(rng) for _ in range(D)], D)

    def contexts():
        while True:
            ctx = pr.LabeledContext.from_distributions(random_univariate("x"),
                                                       random_univariate("y"))
            yield ctx, ctx.characters(), list(ctx.alternating_words(min(D, 5)))

    def universal(conv, closed):
        # closed(ctx, product node, w): the closed form at an alternating word
        def check(draw):
            ctx, chars, alt = draw
            node = conv(*chars)
            return _entrywise(alt, node, lambda w: closed(ctx, node, w))
        return check

    draws = contexts()
    report.extend(_first_over(islice(draws, 10), {
        "universal-product-monotone": universal(pr.monotone_conv, _closed_monotone),
        "universal-product-antimonotone": universal(pr.antimonotone_conv, _closed_antimonotone),
        "universal-product-free": universal(pr.free_conv, _closed_free),
        "universal-product-boolean": universal(pr.boolean_conv, _closed_boolean),
    }))

    # The signed-subset recursion satisfied by the free product character.
    ctx, chars, alt = next(draws)
    free = pr.free_conv(*chars)
    rec = fn.hs_left(free, fn.positive_part(fn.neumann_inverse(free)))
    report.add(CheckResult.from_mismatch("free-product-recursion", _entrywise(
        [w for w in alt if len(w) >= 2], free, lambda w: -rec(w))))

    # Convolution group laws on a common algebra.
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
    expect = {Word((sem.letters[0],) * k): v for k, v in ((2, 2), (4, 8), (6, 40))
              if k <= sem.max_degree}
    report.add(CheckResult.from_mismatch("semicircle-free-convolution", _entrywise(
        expect, total.moment, expect)))

    # Subordination identities, over ten random character triples.  All ten
    # are drawn first, as the eta-series draws below come after them.
    d5 = min(D, 5)
    triples = [[fn.exp_left(_random_infinitesimal(rng, ls, d5)) for _ in range(3)]
               for _ in range(10)]
    left_sub = lambda a, b: pr.subordinate(a, b, Side.LEFT)
    sides = {
        "subordination-decomposition": lambda P1, P2, P3: (
            pr.free_conv(P1, P2), fn.conv(P1, left_sub(P2, P1))),
        "subordination-decomposition-swapped": lambda P1, P2, P3: (
            pr.free_conv(P1, P2), fn.conv(P2, left_sub(P1, P2))),
        "subordination-decomposition-right": lambda P1, P2, P3: (
            pr.boolean_conv(P1, P2), fn.conv(pr.subordinate(P2, P1, Side.RIGHT), P2)),
        "subordination-distributivity": lambda P1, P2, P3: (
            left_sub(pr.free_conv(P1, P2), P3),
            pr.free_conv(left_sub(P1, P3), left_sub(P2, P3))),
        "subordination-change-of-product": lambda P1, P2, P3: (
            pr.free_conv(P1, P2), pr.boolean_conv(left_sub(P1, P2), left_sub(P2, P1))),
        "subordination-log-additivity": lambda P1, P2, P3: (
            fn.log_right(pr.free_conv(P1, P2)),
            fn.log_right(left_sub(P1, P2)) + fn.log_right(left_sub(P2, P1))),
    }
    report.extend(_first_over(triples, {
        name: lambda P, pair=pair: fn.agree_up_to(*pair(*P), ls, d5)
        for name, pair in sides.items()}))

    # The same additivity at the eta-series level, on distribution pairs.
    def eta_additive(pair):
        dmu, dnu = pair
        lhs = series(pr.convolve_distributions(dmu, dnu, "free"), "eta")
        rhs = (series(pr.subordinate_distributions(dmu, dnu, "left"), "eta")
               + series(pr.subordinate_distributions(dnu, dmu, "left"), "eta"))
        return _entrywise(words_up_to(ls, d5), lhs.coefficient, rhs.coefficient)
    pairs = [(_random_distribution(rng, ls, d5), _random_distribution(rng, ls, d5))
             for _ in range(10)]
    report.extend(_first_over(pairs, {"eta-series-additivity": eta_additive}))
    return report


def bp_suite(rng, ls, D) -> Report:
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
    report.add(CheckResult.from_mismatch("bp-R-equals-eta", _entrywise(
        words_up_to(ls, D), series(image, "R").coefficient, series(d, "eta").coefficient)))

    # Fixed vector: symmetric Bernoulli maps to the semicircle law.
    deg = min(D, 6) if D >= 2 else 2
    bern = bernoulli_symmetric(deg)
    sem = semicircle(deg)
    report.add(CheckResult.from_mismatch("bernoulli-to-semicircle", _entrywise(
        words_up_to(bern.letters, deg), pr.bp_distribution(bern).moment, sem.moment)))
    return report


_SUITE_FUNCS = {
    "coalgebra": coalgebra_suite,
    "shuffle": shuffle_suite,
    "magnus": magnus_suite,
    "cumulants": cumulants_suite,
    "products": products_suite,
    "bp": bp_suite,
}

SUITES = tuple(_SUITE_FUNCS)


def _suite_func(name: str):
    if name not in _SUITE_FUNCS:
        raise ValidationError(f"unknown suite {name!r}; expected one of "
                              f"{sorted(_SUITE_FUNCS)} or 'all'")
    return _SUITE_FUNCS[name]


def run_suite(name: str, max_degree: int = 5, seed: int = 0,
              letters=DEFAULT_LETTERS) -> Report:
    _suite_func(name)  # "all" is not one suite
    [report] = run_suites(name, max_degree, seed, letters)
    return report


def run_suites(names, max_degree: int = 5, seed: int = 0,
               letters=DEFAULT_LETTERS) -> list[Report]:
    """One report per suite name, in order.  A string is one name, and
    "all" anywhere runs the six suites once each, in ``SUITES`` order.  An
    unknown name, a max_degree that is not a positive int, and letter
    names that are malformed, duplicated or none raise ValidationError
    before any suite runs.  Each suite draws from its own Random(seed)."""
    names = [names] if isinstance(names, str) else list(names)
    if "all" in names:
        names = SUITES
    funcs = [_suite_func(n) for n in names]
    D = _degree(max_degree)
    ls = _letters(letters_from_names(letters))
    return [f(random.Random(seed), ls, D) for f in funcs]
