"""Pre-Lie Magnus expansion, its inverse, BCH, and the shuffle group laws.

The Magnus map and its inverse exchange the convolution logarithm with the
left half-shuffle logarithm of a common group element: with O the Magnus map
and W its inverse,

    exp_left(k) = exp_star(O(k)),      W(log_star(X)) = log_left(X).

Both are series nodes of :mod:`functionals`, like exp* and log*: sums of
iterates, each one pre-Lie step after the last, weighted by coefficients.
O is a Bernoulli-weighted fixed point, whose step multiplies by O itself;
W is the plain right-nested pre-Lie exponential sum, whose step multiplies
by its argument.  Both truncate exactly, because every pre-Lie
multiplication raises the minimal degree.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from . import mutations
from .errors import DomainError
from .functionals import (Functional, _Linear, _Series, _divide_left, conv,
                          exp_left, exp_star, hs_right, log_star, prelie)


class BernoulliTable:
    """Bernoulli numbers B_m (B_1 = -1/2 convention), grown on demand via the
    defining recurrence sum_{j<=m} C(m+1, j) B_j = 0."""

    def __init__(self):
        self._values = [Fraction(1)]

    def __getitem__(self, m: int) -> Fraction:
        if m < 0:
            raise DomainError("Bernoulli numbers are indexed by m >= 0")
        values = self._values
        while len(values) <= m:
            k = len(values)
            acc = sum(comb(k + 1, j) * values[j] for j in range(k))
            values.append(Fraction(-acc, k + 1))
        return values[m]


bernoulli = BernoulliTable()


def _magnus_coeff(m: int) -> Fraction:
    if m == 2 and mutations.is_active("skip-bernoulli-2"):
        return Fraction(0)
    return bernoulli[m] / factorial(m)


def _coeff_lcm(n: int) -> int:
    """L, the lcm of the denominators of the coefficients O reads below
    degree n.  A tree of O at a word w carries one coefficient per leaf,
    and each leaf reads a nonempty subword, so at most |w| of them: on
    leaves scaled by theta_L every value of O and of its iterates is an
    int.  It reads _magnus_coeff, so under ``skip-bernoulli-2`` it follows
    the mutated coefficients.

    W's and exp*'s coefficients are left to their own final sums: their
    steps multiply by their argument, not by the node, so no pairing loop
    reads them.  Clearing W's too, by a further n! in the scale, only
    makes the ints longer.  Median of 5-6 fresh processes, cold, O alone
    -> O and W: free cumulants of the degree-40 semicircle 156 -> 232 ms,
    dense univariate free moments at degree 30 84 -> 146 ms, convert
    boolean -> free at degree 40 114 -> 180 ms."""
    return lcm(*(_magnus_coeff(m).denominator for m in range(n)))


def magnus(kappa: Functional) -> Functional:
    """Magnus expansion O(kappa); equals log_star(exp_left(kappa)).

    The fixed point O = sum_m (B_m / m!) L_O^m (kappa), where L_x(y) = x |> y:
    each iterate is one pre-Lie step by the node itself after the last.  An
    iterate reads the node only at strictly smaller degree, so the recursion
    is well founded."""
    if not kappa.is_infinitesimal_character:
        raise DomainError("the Magnus expansion acts on infinitesimal characters")
    out = _Series(kappa, prelie, _magnus_coeff, 0)
    out.is_infinitesimal_character = True
    return out


def magnus_inverse(rho: Functional) -> Functional:
    """Inverse Magnus map W(rho); W and O are mutually inverse.

    The pre-Lie exponential W = sum_n L_rho^n (rho) / (n+1)!."""
    if not rho.is_infinitesimal_character:
        raise DomainError("the inverse Magnus expansion acts on infinitesimal characters")
    out = _Series(rho, lambda _, t: prelie(rho, t),
                  lambda n: Fraction(1, factorial(n + 1)), 0)
    out.is_infinitesimal_character = True
    return out


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
    out = _Linear(((1, g1), (1, moved)))
    out.is_infinitesimal_character = True
    return out


def group_law_right(g1: Functional, g2: Functional) -> Functional:
    """Right shuffle group law g1 (.) g2 = -((-g2) # (-g1))."""
    out = _Linear(((-1, group_law_left(-1 * g2, -1 * g1)),))
    out.is_infinitesimal_character = True
    return out


__all__ = ["BernoulliTable", "bernoulli", "magnus", "magnus_inverse", "bch",
           "group_law_left", "group_law_right"]
