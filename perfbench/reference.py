"""Moment-cumulant references written independently of shuffleprob.

Words are tuples of letter names and maps are plain dicts from words to
Fractions; absent words have value 0 and the empty word has moment 1.
Nothing here touches coproducts or functionals, so a wrong benchmark result
has to be wrong twice, here and in the engine, to go unnoticed.

Multivariate recursions (any number of letters), each peeling the block
structure off the front of a word:

- free:     m(w) = sum over V containing position 1 of k(w_V) times the
            moments of the gaps of V and of the tail after V;
- boolean:  m(w) = sum over prefixes p of w of b(p) m(rest);
- monotone: m = sum_k P_k / k!, where P_k(w) removes one interval block I
            of w with weight r(w_I) and recurses on w without I.

The univariate forms are the classical recursions (Lehner 2002;
Arizmendi-Hasebe-Lehner-Vargas 2015) on sequences indexed by degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from operator import itemgetter

KINDS = ("free", "boolean", "monotone")
ONE = Fraction(1)


def words_up_to(letters, n):
    for d in range(1, n + 1):
        yield from product(letters, repeat=d)


def moments(cumulants, kind, letters, n):
    """Moments of every word of degree 1..n from a cumulant map (zeros omitted)."""
    return _solve(cumulants, kind, letters, n, forward=True)


def cumulants(moments_, kind, letters, n):
    """Cumulants of the given kind of every word of degree 1..n (zeros omitted)."""
    return _solve(moments_, kind, letters, n, forward=False)


def _solve(given, kind, letters, n, forward):
    if kind not in KINDS:
        raise ValueError(f"unknown cumulant kind {kind!r}")
    if forward:
        kappa, mom = given, {(): ONE}
    else:
        kappa, mom = {}, {**given, (): ONE}
    powers = {(): [ONE]}  # monotone: powers[u][k] = P_k(u)
    out = {}
    for w in words_up_to(letters, n):
        if kind == "boolean":
            rest = sum(kappa.get(w[:k], 0) * mom.get(w[k:], 0) for k in range(1, len(w)))
        elif kind == "free":
            rest = _free_rest(w, kappa, mom)
        else:
            p = _interval_powers(w, kappa, powers)
            rest = sum(Fraction(p[k], factorial(k)) for k in range(2, len(p)) if p[k])
        if forward:
            value = kappa.get(w, 0) + rest
            mom[w] = value
        else:
            value = mom.get(w, 0) - rest
            kappa[w] = value
        if kind == "monotone":
            p[1] = kappa.get(w, 0)
            powers[w] = p
        if value:
            out[w] = Fraction(value)
    return out


def _free_rest(w, kappa, mom):
    """Sum over blocks V containing position 0, V not the whole word."""
    total = 0
    for pick, gaps in _free_plan(len(w)):
        c = kappa.get(pick(w), 0)
        if not c:
            continue
        for a, b in gaps:
            c *= mom.get(w[a:b], 0)
            if not c:
                break
        total += c
    return total


def _picker(positions):
    if len(positions) == 1:
        i = positions[0]
        return lambda w: (w[i],)
    return itemgetter(*positions)


@lru_cache(maxsize=None)
def _free_plan(n):
    """(picker of V, gap slices of V) for every V containing 0, V != [0, n)."""
    plan = []
    for mask in range((1 << (n - 1)) - 1):
        positions = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1]
        ends = positions[1:] + [n]
        plan.append((_picker(positions),
                     tuple((a + 1, b) for a, b in zip(positions, ends) if b > a + 1)))
    return plan


def _interval_powers(w, kappa, powers):
    """P_k(w) for k >= 2; index 1 is filled in by the caller."""
    n = len(w)
    p = [0] * (n + 1)
    for i in range(n):
        for j in range(i + 1, n + 1):
            if j - i == n:
                continue
            c = kappa.get(w[i:j], 0)
            if c:
                rem = powers[w[:i] + w[j:]]
                for k in range(2, len(rem) + 1):
                    if rem[k - 1]:
                        p[k] += c * rem[k - 1]
    return p


def conv_product(f, g, letters, n):
    """(f * g)(w) = sum over subsets S of f(w_S) times the product of g over
    the maximal runs of the complement: the monotone product of two moment
    maps, straight from the subset formula."""
    out = {}
    for w in words_up_to(letters, n):
        total = 0
        for pick, runs in _subset_plan(len(w)):
            c = f.get(pick(w), 0) if pick else ONE
            for a, b in runs:
                if not c:
                    break
                c *= g.get(w[a:b], 0)
            total += c
        if total:
            out[w] = Fraction(total)
    return out


@lru_cache(maxsize=None)
def _subset_plan(n):
    """(picker of S or None when S is empty, maximal runs of the complement)
    for every subset S of [0, n)."""
    plan = []
    for mask in range(1 << n):
        picked = [i for i in range(n) if mask >> i & 1]
        runs, start = [], None
        for i in range(n + 1):
            if i < n and not mask >> i & 1:
                start = i if start is None else start
            elif start is not None:
                runs.append((start, i))
                start = None
        plan.append((_picker(picked) if picked else None, tuple(runs)))
    return plan


def add(*maps, scale=ONE):
    out = {}
    for m in maps:
        for w, v in m.items():
            out[w] = out.get(w, 0) + v
    return {w: scale * v for w, v in out.items() if v}


# ---------------------------------------------------------------------------
# univariate classical recursions; sequences are lists indexed by degree,
# entry 0 unused for cumulants and equal to 1 for moments

def uni_moments(kappa, kind, n):
    return _uni_solve(kappa, kind, n, forward=True)


def uni_cumulants(mom, kind, n):
    return _uni_solve(mom, kind, n, forward=False)


def _uni_solve(given, kind, n, forward):
    if kind not in KINDS:
        raise ValueError(f"unknown cumulant kind {kind!r}")
    given = [Fraction(v) for v in given] + [Fraction(0)] * (n + 1 - len(given))
    kappa = given if forward else [Fraction(0)] * (n + 1)
    mom = [ONE] + [Fraction(0)] * n if forward else [ONE] + given[1:]
    powers = [[ONE]]  # monotone: powers[d][k] = P_k at degree d
    for d in range(1, n + 1):
        if kind == "boolean":
            rest = sum(kappa[k] * mom[d - k] for k in range(1, d))
        elif kind == "free":
            # m_d = sum_s k_s [z^(d-s)] M(z)^s; the s = d term is k_d
            rest, power = Fraction(0), [ONE]
            for s in range(1, d):
                power = [sum(power[i] * mom[t - i] for i in range(min(t, len(power) - 1) + 1))
                         for t in range(d - s + 1)]
                rest += kappa[s] * power[d - s]
        else:
            p = [Fraction(0)] * (d + 1)
            for j in range(1, d):  # remove one interval block of length j
                for k in range(2, d - j + 2):
                    if k - 1 < len(powers[d - j]):
                        p[k] += (d - j + 1) * kappa[j] * powers[d - j][k - 1]
            rest = sum(p[k] / factorial(k) for k in range(2, d + 1))
        if forward:
            mom[d] = kappa[d] + rest
        else:
            kappa[d] = mom[d] - rest
        if kind == "monotone":
            p[1] = kappa[d]
            powers.append(p)
    return mom if forward else kappa
