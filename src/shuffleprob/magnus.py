"""Pre-Lie Magnus expansion, its inverse, BCH, and the shuffle group laws.

The Magnus map and its inverse exchange the convolution logarithm with the
left half-shuffle logarithm of a common group element: with O the Magnus map
and W its inverse,

    exp_left(k) = exp_star(O(k)),      W(log_star(X)) = log_left(X).

Both are series nodes of :mod:`functionals`, like exp* and log*: sums of
iterates, each one pre-Lie step after the last, weighted by coefficients.
The step is the two half-shuffle legs of a pre-Lie product, and the node
evaluates all its iterates at a bar word in one pass over its coproduct
terms.  O is a Bernoulli-weighted fixed point, whose step multiplies by O
itself; W is the plain right-nested pre-Lie exponential sum, whose step
multiplies by its argument.  Both truncate exactly, because every pre-Lie
multiplication raises the minimal degree.

Iterate m of either is homogeneous of degree m + 1 in the argument, so
the sign twists a -> -O(-a) and a -> -W(-a), which the conversions of
:mod:`cumulants` read, are the same series with the coefficients times
(-1)^m: O with B_1 = +1/2, and W with (-1)^n/(n+1)!.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import DomainError
from .functionals import (Functional, _prelie_legs, _Series, _divide_left, conv, exp_left,
                          exp_star, hs_right, log_star)


class BernoulliTable:
    """Bernoulli numbers B_m (B_1 = -1/2 convention), grown on demand via the
    defining recurrence sum_{j<=m} C(m+1, j) B_j = 0."""

    def __init__(self):
        self._values = [Fraction(1)]

    def __getitem__(self, m: int) -> Fraction:
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise DomainError(f"Bernoulli numbers are indexed by ints m >= 0, got {m!r}")
        values = self._values
        while len(values) <= m:
            k = len(values)
            acc = sum(comb(k + 1, j) * values[j] for j in range(k))
            values.append(Fraction(-acc, k + 1))
        return values[m]


bernoulli = BernoulliTable()


def _magnus_coeff(m: int) -> Fraction:
    return bernoulli[m] / factorial(m)


def _series(arg: Functional, fixed, coeff, what: str) -> Functional:
    # the series of pre-Lie iterates L_f^m(arg), f = fixed or the node itself
    if not arg.is_infinitesimal_character:
        raise DomainError(f"the {what} acts on infinitesimal characters")
    out = _Series(arg, _prelie_legs(fixed), coeff, 0)
    out.is_infinitesimal_character = True
    return out


def _inverse_coeff(n: int) -> Fraction:
    return Fraction(1, factorial(n + 1))


def _twisted(coeff):
    # m -> (-1)^m coeff(m), the coefficients of a -> -S(-a)
    return lambda m: -coeff(m) if m % 2 else coeff(m)


def magnus(kappa: Functional) -> Functional:
    """Magnus expansion O(kappa); equals log_star(exp_left(kappa)).

    The fixed point O = sum_m (B_m / m!) L_O^m (kappa), where L_x(y) = x |> y:
    each iterate is one pre-Lie step by the node itself after the last.  An
    iterate reads the node only at strictly smaller degree, so the recursion
    is well founded."""
    return _series(kappa, None, _magnus_coeff, "Magnus expansion")


def magnus_inverse(rho: Functional) -> Functional:
    """Inverse Magnus map W(rho); W and O are mutually inverse.

    The pre-Lie exponential W = sum_n L_rho^n (rho) / (n+1)!."""
    return _series(rho, rho, _inverse_coeff, "inverse Magnus expansion")


def _magnus_twisted(beta: Functional) -> Functional:
    """-O(-beta), the Magnus series with coefficients (-1)^m B_m / m!."""
    return _series(beta, None, _twisted(_magnus_coeff), "Magnus expansion")


def _magnus_inverse_twisted(rho: Functional) -> Functional:
    """-W(-rho), the series sum_n (-1)^n L_rho^n (rho) / (n+1)!."""
    return _series(rho, rho, _twisted(_inverse_coeff), "inverse Magnus expansion")


def bch(g1: Functional, g2: Functional) -> Functional:
    """Baker-Campbell-Hausdorff law log_star(exp_star(g1) * exp_star(g2))."""
    if not (g1.is_infinitesimal_character and g2.is_infinitesimal_character):
        raise DomainError("the BCH law acts on infinitesimal characters")
    return log_star(conv(exp_star(g1), exp_star(g2)))


def group_law_left(g1: Functional, g2: Functional) -> Functional:
    """Left shuffle group law g1 # g2 = log_left(E<(g1) * E<(g2)).

    Computed as g1 plus the conjugate (E > g2) < E^{-1} of g2 by E = E<(g1),
    one left division instead of a logarithm round trip."""
    if not (g1.is_infinitesimal_character and g2.is_infinitesimal_character):
        raise DomainError("the shuffle group laws act on infinitesimal characters")
    E = exp_left(g1)
    moved = _divide_left(hs_right(E, g2), E)
    out = g1 + moved
    out.is_infinitesimal_character = True
    return out


def group_law_right(g1: Functional, g2: Functional) -> Functional:
    """Right shuffle group law g1 (.) g2 = -((-g2) # (-g1))."""
    return -group_law_left(-1 * g2, -1 * g1)


__all__ = ["BernoulliTable", "bernoulli", "magnus", "magnus_inverse", "bch",
           "group_law_left", "group_law_right"]
