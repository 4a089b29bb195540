"""Universal products, additive convolutions, subordination, and the
boolean-to-free bijection.

Two states on disjoint algebras extend to the free product in exactly four
universal ways, and all four live inside the group of characters: the
convolution product in either order (monotone / antimonotone), the
convolution that adds free cumulants, and the one that adds boolean
cumulants.  Subordination products factor the free convolution through the
group product, and rereading boolean cumulants as free cumulants is a
semigroup flow away from the identity.
"""

from fractions import Fraction

from shuffleprob import (LabeledContext, Distribution, Side, Word, agree_up_to,
                         bernoulli_symmetric, boolean_conv, bp_distribution, bp_t,
                         conv, convolve_distributions, exp_left, free_conv,
                         log_left, monotone_conv, semicircle, series, subordinate)

# Two single-variable states with a few prescribed moments.
d1 = Distribution.univariate("x", [1, 2, 3, 5, 8], 5)
d2 = Distribution.univariate("y", [Fraction(1, 2), 1, 2, 4, 8], 5)
ctx = LabeledContext.from_distributions(d1, d2)
phi1, phi2 = ctx.characters()
x, y = ctx.d1.letters[0], ctx.d2.letters[0]

w = Word((x, y, x))
m1 = lambda *letters: ctx.d1.moment(Word(letters))
m2 = lambda *letters: ctx.d2.moment(Word(letters))
print(f"on the alternating word {w!r}:")
print("  monotone product:", monotone_conv(phi1, phi2)(w),
      "= phi1(x.x) phi2(y) =", m1(x, x) * m2(y))
print("  boolean product: ", boolean_conv(phi1, phi2)(w),
      "= phi1(x) phi2(y) phi1(x) =", m1(x) * m2(y) * m1(x))
print("  free product:    ", free_conv(phi1, phi2)(w))
print()

# On a shared variable, convolutions add cumulants: two semicircles make a
# wider semicircle.
sem = semicircle(6)
total = convolve_distributions(sem, sem, "free")
a = sem.letters[0]
fmt = lambda vals: "(" + ", ".join(str(v) for v in vals) + ")"
print("semicircle [+]< semicircle moments:",
      fmt(total.moment(Word((a,) * k)) for k in range(1, 7)))
print()

# Subordination: the free convolution is the group product of one factor
# with the subordinated other.
P1 = exp_left(log_left(sem.character()))
P2 = bernoulli_symmetric(6).character()
lhs = free_conv(P1, P2)
rhs = conv(P1, subordinate(P2, P1, Side.LEFT))
assert agree_up_to(lhs, rhs, sem.letters, 6) is None
print("free convolution = P1 * (P2 subordinated to P1)  (degree <= 6)")
print()

# The bijection: boolean cumulants reread as free cumulants.  The symmetric
# Bernoulli law (all even moments 1) maps exactly onto the semicircle.
bern = bernoulli_symmetric(6)
image = bp_distribution(bern)
print("Bernoulli moments: ", fmt(bern.moment(Word((a,) * k)) for k in range(1, 7)))
print("image moments:     ", fmt(image.moment(Word((a,) * k)) for k in range(1, 7)))
assert image.moments == sem.moments
assert series(image, "R") == series(bern, "eta")
print("R-series of the image = eta-series of the source")

# ... and it embeds in an additive semigroup of deformations.
phi = bern.character()
halfway = bp_t(phi, Fraction(1, 2))
assert agree_up_to(bp_t(halfway, Fraction(1, 2)), bp_t(phi, 1), bern.letters, 6) is None
print("the t=1/2 deformation applied twice is the full bijection")
