"""Additive convolutions, universal products, subordination, and the
group-level boolean-to-free bijection.

Convolutions act on characters over a common algebra: the free convolution
adds left-logarithms, the boolean convolution adds right-logarithms, and the
monotone/antimonotone products are the convolution product in either order.
The two-algebra universal products are the same operations applied to
characters that extend each factor by zero on the other's letters; a
:class:`LabeledContext` packages that embedding.  Their closed forms on
alternating words, like every reference form, live in :mod:`verify`.

The distribution-level entry points (:func:`convolve_distributions`,
:func:`subordinate_distributions`, :func:`bp_distribution`) evaluate like
those of :mod:`cumulants`: on moments scaled by theta_D : w -> D^|w| w, in
int arithmetic, dividing once.  D is the lcm of the moment denominators;
for :func:`bp_distribution` it is also multiplied by the denominator of t,
so that t times the scaled left logarithm stays integral.  The results are
Fractions.

Operands follow the rule of :mod:`cumulants` for a Distribution; a
functional that is not unital is refused by the logarithm each product
reads first, or by :func:`monotone_conv` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from . import functionals as fn
from .coproducts import Side
from .cumulants import Distribution, _distributions, _scaled, _unscaled_distribution
from .errors import DomainError, ValidationError
from .words import Letter, Word


# ---------------------------------------------------------------------------
# group-level convolutions

def _require_unital(*phis):
    for phi in phis:
        if phi(fn.EMPTY_BAR) != 1:
            raise DomainError("convolutions act on unital (character-type) functionals")


def free_conv(phi1: fn.Functional, phi2: fn.Functional) -> fn.Functional:
    """Free additive convolution: exp_left of the sum of left logarithms."""
    return fn.exp_left(fn.log_left(phi1) + fn.log_left(phi2))


def boolean_conv(phi1: fn.Functional, phi2: fn.Functional) -> fn.Functional:
    """Boolean additive convolution: exp_right of the sum of right logarithms."""
    return fn.exp_right(fn.log_right(phi1) + fn.log_right(phi2))


def monotone_conv(phi1: fn.Functional, phi2: fn.Functional) -> fn.Functional:
    """Monotone product: plain convolution phi1 * phi2."""
    _require_unital(phi1, phi2)
    return fn.conv(phi1, phi2)


def antimonotone_conv(phi1: fn.Functional, phi2: fn.Functional) -> fn.Functional:
    return monotone_conv(phi2, phi1)


def factorize(g1: fn.Functional, g2: fn.Functional, side: Side = Side.LEFT):
    """Split the exponential of a sum into a convolution of exponentials.

    Left: (E<(g1), E<(g2^{g1})) multiplies to E<(g1+g2); right:
    (E>(g1^{-g2}), E>(g2)) multiplies to E>(g1+g2).
    """
    if side is Side.LEFT:
        return fn.exp_left(g1), fn.exp_left(fn.ad_action(g1, g2))
    if side is Side.RIGHT:
        return fn.exp_right(fn.ad_action(-1 * g2, g1)), fn.exp_right(g2)
    raise DomainError("factorize is left- or right-sided")


def subordinate(phi: fn.Functional, psi: fn.Functional, side: Side = Side.LEFT
                ) -> fn.Functional:
    """Subordination products.

    Left (phi |> psi): exp_left of the adjoint action of psi's left logarithm
    on phi's; satisfies  phi (+)< psi = psi * (phi |> psi).
    Right (phi <| psi): exp_right of the action of minus phi's right
    logarithm on psi's; satisfies  phi (+)> psi = (psi <| phi) * psi.
    """
    if side is Side.LEFT:
        return fn.exp_left(fn.ad_action(fn.log_left(psi), fn.log_left(phi)))
    if side is Side.RIGHT:
        return fn.exp_right(fn.ad_action(-1 * fn.log_right(phi), fn.log_right(psi)))
    raise DomainError("subordination is left- or right-sided")


def bp(phi: fn.Functional) -> fn.Functional:
    """Boolean-to-free bijection on characters: reread the right logarithm
    as a left logarithm (exp_left o log_right)."""
    return fn.exp_left(fn.log_right(phi))


def bp_inverse(phi: fn.Functional) -> fn.Functional:
    return fn.exp_right(fn.log_left(phi))


def bp_t(phi: fn.Functional, t) -> fn.Functional:
    """One-parameter interpolation of :func:`bp`.

    With k the left logarithm of phi, t >= 0 maps phi to exp_left(k^{tk});
    t = 0 is the identity, t = 1 is bp, and the family is an additive
    semigroup in t.  For t > 0 it agrees with the boolean 1/t-th power of
    the free t-th power.
    """
    t = fn.parse_rational(t)
    if t < 0:
        raise DomainError("the bijection semigroup is defined for t >= 0")
    kappa = fn.log_left(phi)
    return fn.exp_left(fn.ad_action(t * kappa, kappa))


# ---------------------------------------------------------------------------
# two-algebra universal products

@dataclass(frozen=True)
class LabeledContext:
    """Two distributions on disjoint letter sets, embedded in the free
    product: each moment character extends by zero on words that touch the
    other algebra's letters."""

    d1: Distribution
    d2: Distribution

    def __post_init__(self):
        _distributions("a labeled context embeds two Distributions", self.d1, self.d2)
        names1 = {l.name for l in self.d1.letters}
        names2 = {l.name for l in self.d2.letters}
        if names1 & names2:
            raise ValidationError(f"letter names must be disjoint, both sides use "
                                  f"{sorted(names1 & names2)}")
        if self.d1.max_degree != self.d2.max_degree:
            raise ValidationError("both distributions must share max_degree")
        if {l.tag for l in self.d1.letters} != {1} or {l.tag for l in self.d2.letters} != {2}:
            raise ValidationError("context distributions must carry algebra tags 1 and 2; "
                                  "use LabeledContext.from_distributions")

    @classmethod
    def from_distributions(cls, d1: Distribution, d2: Distribution) -> "LabeledContext":
        _distributions("a labeled context embeds two Distributions", d1, d2)
        return cls(d1.retag(1), d2.retag(2))

    @property
    def max_degree(self) -> int:
        return self.d1.max_degree

    @property
    def letters(self) -> tuple[Letter, ...]:
        return self.d1.letters + self.d2.letters

    def characters(self):
        return self.d1.character(), self.d2.character()

    def dist_for_tag(self, tag: int) -> Distribution:
        return self.d1 if tag == 1 else self.d2

    def alternating_words(self, max_len: int):
        """All words whose letters strictly alternate between the two
        algebras, of length 1..max_len, either algebra starting."""
        pools = (self.d1.letters, self.d2.letters)
        for n in range(1, max_len + 1):
            for start in (0, 1):
                seqs = [pools[(start + i) % 2] for i in range(n)]
                for combo in iproduct(*seqs):
                    yield Word(combo)


def _common_operands(what: str, d1, d2):
    _distributions(f"{what} takes two Distributions", d1, d2)
    if d1.letters != d2.letters or d1.max_degree != d2.max_degree:
        raise ValidationError(f"{what} needs a common letter set and max_degree "
                              f"({d1.letters}, {d1.max_degree} vs {d2.letters}, {d2.max_degree})")


def convolve_distributions(d1: Distribution, d2: Distribution, kind: str) -> Distribution:
    """Distribution-level convolution over a common letter set.

    kind is one of "free", "boolean", "monotone-left", "monotone-right".
    """
    _common_operands("convolution", d1, d2)
    ops = {"free": free_conv, "boolean": boolean_conv,
           "monotone-left": monotone_conv, "monotone-right": antimonotone_conv}
    if kind not in ops:
        raise ValidationError(f"unknown convolution kind {kind!r}; expected one of {sorted(ops)}")
    D, (m1, m2) = _scaled((d1.moments, d2.moments))
    return _unscaled_distribution(ops[kind](fn.character(m1), fn.character(m2)), D, d1)


def subordinate_distributions(d1: Distribution, d2: Distribution, side: str) -> Distribution:
    _common_operands("subordination", d1, d2)
    side_enum = {"left": Side.LEFT, "right": Side.RIGHT}.get(side)
    if side_enum is None:
        raise ValidationError(f"unknown side {side!r}; expected left or right")
    D, (m1, m2) = _scaled((d1.moments, d2.moments))
    return _unscaled_distribution(subordinate(fn.character(m1), fn.character(m2), side_enum),
                                  D, d1)


def bp_distribution(d: Distribution, t=1) -> Distribution:
    _distributions("bp_distribution takes a Distribution", d)
    # t * kappa stays integral when D also clears the denominator of t
    t = fn.parse_rational(t)
    D, (moments,) = _scaled((d.moments,), t.denominator)
    return _unscaled_distribution(bp_t(fn.character(moments), t), D, d)
