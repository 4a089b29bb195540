"""Linear functionals on the span of bar words, with the shuffle calculus.

A :class:`Functional` maps bar words to exact rationals.  Derived functionals
are immutable expression nodes; evaluation is lazy, recursing through the
coproducts of the argument, and memoized per node.  All series-type operators
(inverse, exponentials, logarithms) are degree-bounded recursions: evaluating
one at a bar word of degree d only ever touches evaluations at degree <= d,
so every value is an exact finite sum.

A value is an ``int`` when it is integral, else a reduced ``Fraction``.
The leaves store integral values as ints, the values at the empty bar word
and the flag short-circuit start from int 0 and 1, and an integral scalar
multiple keeps an int coefficient.  Each evaluation kernel (the two loops
of a pairing, a linear combination, a series, and a character's product
over the components of a bar word) sums in ints while its values are
ints.  From the first Fraction on (a value, the base or a coefficient) it
carries the rest of the sum as one int numerator over a running common
denominator, the lcm of the denominators met, and builds one Fraction at
the end, through the public constructor, or an int when the sum is
integral.  A series, whose coefficients are Fractions (1/n!,
(-1)^i/(i+1), B_m/m!), runs that accumulator from its first term.  So a
tree on integral leaves runs its pairing loops in int arithmetic, and a
tree on Fraction leaves builds one Fraction per value, not one per term.
The distribution API in :mod:`cumulants` and :mod:`products` relies on
the first: every construction here commutes with the grading automorphism
theta_D : w -> D^|w| w, so it evaluates on inputs scaled to integers and
divides once at the end.  A tree with a Magnus node is scaled by D times
the lcm of its coefficients' denominators, which clears them
(:mod:`magnus`), so there only the coefficients of W and exp* bring
Fractions in, each into its own final sum.

One node kind, ``_Pairing``, pairs two functionals across one side of the
unshuffle coproduct, on top of an optional base functional: X = base +
sum c f(x) g(y) over the terms c x (x) y.  The convolution product and the
two half-shuffle products have no base.  The convolution inverse and the
two half-shuffle exponentials have none either, and pair the node against
itself: the left leg of the inverse (X = e + X * (e - f)) and of the right
exponential (X = e + X > a), the right leg of the left exponential
(X = e + a < X).  The e there only fixes the value 1 at the empty bar word,
which each of them is built with.  Division by a unital phi is a pairing of
the same kind with the base z: phi^{-1} > z solves X = z + (e - phi) > X,
and z < phi^{-1} solves X = z + X < (e - phi).  The right division gives
``log_right`` (z = phi - e) and ``adjoint`` (z = mu < phi, by the mixed
axiom), hence ``ad_action``, the conjugation by E<(g1); the left division
gives ``log_left`` (z = phi - e) and the conjugate in
``magnus.group_law_left``.  phi - e is phi past the empty bar word, so the
two logarithms take phi itself as the base and write their 0 there.  The
defining products these replace are references in :mod:`verify`, which
checks the engine against them.  The right leg y is the bar word of the
runs left over, so an infinitesimal character there reads 0 unless y is
one word: when the right operand (or the node, in its place) is flagged
``is_infinitesimal_character``, a pairing at a one-word bar word reads
only the terms whose complement is one interval, at most n(n+1)/2 of them
instead of 2^n (the terms of ``coproducts.single_run_terms``, read as the
memo's flat (x, y, c) triples).  Clearing the flag brings the full terms
back.  So ``exp_right``, the powers of ``exp_star``, every ``prelie`` of
infinitesimal characters, and ``log_right`` and ``adjoint`` where flagged,
read O(n^2) terms at a word of degree n.

One node kind, ``_Series``, sums the series: its value at the empty bar
word (1 for exp*, else 0), and elsewhere c_0 T_0 + c_1 T_1 + ... up to
the degree of the argument, where each term is one step after the last and
vanishes below its index.  exp* and log* are series of convolution powers
(the step is a convolution product, a ``_Pairing``); the Magnus map and its
inverse in :mod:`magnus` are series of pre-Lie iterates.  The step sees the
node itself, through a weak proxy, which the Magnus map needs: its iterates
multiply by the node.

Two structural flags travel with each node: ``is_character`` (unital and
multiplicative over bars) and ``is_infinitesimal_character`` (vanishes on
the empty bar word and on bar products).  They gate the operations whose
meaning requires them, and drive evaluation: on a memo miss at a bar word of
two or more components, a flagged node returns the product of its values on
the component words, or 0, instead of recursing through the bar coproduct.

There is one leaf node, ``_Table``: explicit bar-word values, 0 elsewhere,
written into its memo, so a kernel's first read of one is a hit.
A leaf's flag is its definition.  ``character`` is a table of its word
values and 1 at the empty bar word, flagged ``is_character``;
``infinitesimal`` a table of its word values, flagged
``is_infinitesimal_character``; the unit ``e`` the table {1: 1}, flagged as a
character; ``from_values`` an unflagged table.  A derived node's flag is a
promise about values that its construction guarantees, not a hint, and
clearing it is always safe: the node then evaluates every bar word through
its own recursion.  Equality of functionals is extensional, and
:func:`agree_up_to`, the one comparison that :mod:`verify` and the tests
use, reads each derived side's values on bar products that way, past its
flags, and a leaf's through its flag.  The flag tests compare every flagged
constructor with a flag-cleared twin, and each pruned pairing with the same
constructor on unflagged copies of its operands, so what the flags promise
is still checked.

The value at the empty bar word has one home, the node's own memo: a leaf
holds it with its other values, and every derived node that fixes it
without pairing (a series, the inverse, the half exponentials, and a linear
combination, which sums its parts' values there) writes it in when it is
built.  The unit e is 1 at the empty bar word and 0 elsewhere, so a linear
combination drops it from its parts: e - phi and phi - e read only phi
past the empty bar word.  So no tree that the package builds reads e, and
e's memo holds its one entry only, unless e itself is paired, as the unit
axioms in :mod:`verify` do.

Every value is read one way: a subscript of the node's memo, a
:class:`_Memo`, whose ``__missing__`` evaluates the node at a missed bar
word and stores the value.  A call is the bar-word coercion and that
subscript; the evaluation kernels (the loops of ``_Pairing``, ``_Linear``
and ``_Series``, and a character's product over the components of a bar
word) subscript their operands' memos.  So a hit is a dict read in C, and
every miss goes through ``_Memo.__missing__``, the one place that
dispatches on the flags.  A character reads its components from the bar
word's ``parts`` slot, filled with their canonical one-word bar words on
its first bar-product miss, so a second character node, or a second tree,
builds none of them again.  A memo holds its node through a weak
reference, so a tree is freed by reference counting alone.

Expression trees are immutable and freely shareable.  The memo dicts are
keyed by canonical bar words, whose table in :mod:`.words` is locked, but
the per-node memo dicts themselves are not synchronized, so concurrent
evaluation needs external locking or per-thread nodes (results are
deterministic either way).
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from itertools import chain
from math import factorial, gcd
from typing import Iterable, Mapping

from . import mutations
from .coproducts import Side, _terms
from .errors import DomainError, ValidationError
from .words import BarWord, EMPTY_BAR, Word, all_barwords, as_barword

#: Read by nothing in this package.  perfbench/run.py refuses to run unless it
#: is false, so the name stays until the benchmark stops reading it.
CROSS_CHECK_AD = False

#: Functional values are exact: an int when integral, else a Fraction.
Value = int | Fraction


#: The string forms "p" and "p/q", with p signed and q not.  Fraction alone
#: would also take decimals and exponents, and compute 10**3000000 for
#: "1e3000000".
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(x) -> Fraction:
    """x as a Fraction, by the one rule for input rationals, in the library
    and in JSON files alike: an int (not a bool), a Fraction, or a string
    "p" or "p/q".  Anything else, floats and Decimals included, raises
    :class:`ValidationError`."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):  # before the ABC test below, which is slow
        m = _RATIONAL.fullmatch(x)
        if m is None:
            raise ValidationError(f"bad rational literal {x!r}: expected 'p' or 'p/q'")
        p, q = m.groups()
        try:  # int() refuses a numeral past the int-string digit limit
            return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {x!r}: {exc}") from None
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise ValidationError(f"expected an int, Fraction or 'p/q' string, got {type(x).__name__}")


def _exact(v) -> Value:
    """v by the rational rule, as an int when integral."""
    if type(v) is int:
        return v
    v = parse_rational(v)
    return v.numerator if v.denominator == 1 else v


def _ratio(num: int, den: int) -> Value:
    """num / den for den > 0: an int when integral, else the reduced
    Fraction, built by the public constructor."""
    return num // den if num % den == 0 else Fraction(num, den)


def _sum(pairs) -> Value:
    """The sum of c * v over pairs of values, carried as one int numerator
    over the lcm of the denominators seen so far."""
    num, den = 0, 1
    for c, v in pairs:
        if v:
            cn, cd = c.as_integer_ratio()
            vn, vd = v.as_integer_ratio()
            q = cd * vd
            if den % q:
                m = q // gcd(den, q)
                num *= m
                den *= m
            num += cn * vn * (den // q)
    return _ratio(num, den)


class _Memo(dict):
    """A node's memo, keyed by canonical bar words.  A missed read
    evaluates the node there and stores the value: on a bar product a
    character multiplies its values on the words and an infinitesimal
    character reads 0; every other miss is the node's own ``_value``.  It
    holds its node weakly, so the two make no reference cycle."""

    __slots__ = ("node",)

    def __init__(self, node: "Functional"):
        self.node = weakref.ref(node)

    def __missing__(self, b: BarWord) -> Value:
        node = self.node()
        if len(b.words) < 2:
            v = node._value(b)
        elif node.is_character:
            parts = b.parts
            if parts is None:
                parts = b.parts = tuple(BarWord((w,)) for w in b.words)
            num = den = 1
            for part in parts:
                v = self[part]
                if type(v) is int:
                    num *= v
                else:
                    n, d = v.as_integer_ratio()
                    num *= n
                    den *= d
                if not num:
                    break
            v = _ratio(num, den)
        elif node.is_infinitesimal_character:
            v = 0
        else:
            v = node._value(b)
        self[b] = v
        return v


class Functional:
    __slots__ = ("_memo", "is_character", "is_infinitesimal_character", "__weakref__")

    def __init__(self):
        self._memo = _Memo(self)
        self.is_character = False
        self.is_infinitesimal_character = False

    def __call__(self, element) -> Value:
        if type(element) is not BarWord:
            element = as_barword(element)
        return self._memo[element]

    def _value(self, b: BarWord) -> Value:
        raise NotImplementedError

    # Linear structure; scalar multiples only (convolution is conv()).
    def __add__(self, other: "Functional") -> "Functional":
        return _Linear(((1, self), (1, other)))

    def __sub__(self, other: "Functional") -> "Functional":
        return _Linear(((1, self), (-1, other)))

    def __neg__(self) -> "Functional":
        return _Linear(((-1, self),))

    def __mul__(self, scalar) -> "Functional":
        return _Linear(((_exact(scalar), self),))

    __rmul__ = __mul__


class _Table(Functional):
    """The one leaf: explicit bar-word values, held in its memo, 0
    elsewhere.  A character or an infinitesimal character is a table of its
    word values with its flag set, and the flag gives its values on bar
    products."""

    __slots__ = ()

    def __init__(self, values: Mapping, keys, what: str):
        super().__init__()
        memo = self._memo
        for k, v in values.items():
            if not isinstance(k, keys):
                raise DomainError(f"{what}, got {k!r}")
            memo[as_barword(k)] = _exact(v)

    def _value(self, b):
        return 0


class _Linear(Functional):
    """A linear combination sum c * f over its parts.  Its value at the
    empty bar word, sum c * f(1), is written into its memo when it is
    built, and the unit e, 0 everywhere else, is then dropped from the
    parts.  The flag is still read over every part, e included, so
    alpha + e is not flagged infinitesimal.  The sum is an int sum until a
    coefficient or a value is a Fraction; then it is taken again over
    every part as one numerator over a common denominator."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[tuple[Value, Functional]]):
        super().__init__()
        self.parts = tuple(parts)
        self.is_infinitesimal_character = all(
            f.is_infinitesimal_character for _, f in self.parts)
        self._memo[EMPTY_BAR] = self._value(EMPTY_BAR)
        self.parts = tuple(p for p in self.parts if p[1] is not e)

    def _value(self, b):
        total = 0
        for c, f in self.parts:
            v = f._memo[b]
            if v:
                if type(c) is not int or type(v) is not int:
                    return _sum((c, f._memo[b]) for c, f in self.parts)
                total += c * v
        return total


class _Pairing(Functional):
    """Pair two functionals across one side of the unshuffle coproduct:
    the value at b is base(b) plus the sum of c * f(x) * g(y) over the
    terms c * x (x) y of the chosen (unreduced) coproduct of b; no base
    counts as 0.

    Either operand may be None, which stands for the node itself; this
    realises the fixed points X = e + a < X, X = e + X > a,
    X = e + X * (e - f), and the divisions X = z + (e - phi) > X and
    X = z + X < (e - phi).  The fixed points take no base: e is 0 off the
    empty bar word, and their constructors write the 1 there into the
    memo; the logarithms take phi as z = phi - e and write 0 there.  The
    other operand vanishes on the empty bar word, and it is read first, so
    the one term whose self leg keeps the degree of b is dropped before it
    recurses.  The node does not store itself, which would make it a
    reference cycle that outlives its use; its loops subscript the memos of
    its legs and of the base, its own included.

    The runs leg is g, or the node itself when g is None.  When it is
    flagged ``is_infinitesimal_character`` and b is one word, only the terms
    whose y is one word can be nonzero, and the node reads just those
    (``coproducts.single_run_terms``).  The loops iterate the coproduct
    memo's flat (x, y, c) triples.  Each loop adds in ints while the base
    and the products are ints; at the first Fraction it goes on, from that
    term, with one int numerator over the lcm of the denominators met."""

    __slots__ = ("f", "g", "side", "base")

    def __init__(self, f, g, side: Side, base=None):
        super().__init__()
        self.f, self.g, self.side, self.base = f, g, side, base

    def _value(self, b):
        runs = self if self.g is None else self.g
        if runs.is_infinitesimal_character and len(b.words) == 1:
            terms = _terms(b, self.side, "run")
        else:
            terms = _terms(b, self.side, "all")
        total = 0 if self.base is None else self.base._memo[b]
        fmemo, gmemo = (self if self.f is None else self.f)._memo, runs._memo
        terms = iter(terms)
        if self.f is None:  # self on the left: the known right leg goes first
            if type(total) is int:
                for x, y, c in terms:
                    right = gmemo[y]
                    if right:
                        left = fmemo[x]
                        if left:
                            v = left * right
                            if type(v) is not int:
                                terms = chain(((x, y, c),), terms)
                                break
                            total += v if c == 1 else c * v
                else:
                    return total
            num, den = total.as_integer_ratio()
            for x, y, c in terms:
                right = gmemo[y]
                if right:
                    left = fmemo[x]
                    if left:
                        ln, ld = left.as_integer_ratio()
                        rn, rd = right.as_integer_ratio()
                        q = ld * rd
                        if den % q:
                            m = q // gcd(den, q)
                            num *= m
                            den *= m
                        num += c * ln * rn * (den // q)
            return _ratio(num, den)
        if type(total) is int:
            for x, y, c in terms:
                left = fmemo[x]
                if left:
                    right = gmemo[y]
                    if right:
                        v = left * right
                        if type(v) is not int:
                            terms = chain(((x, y, c),), terms)
                            break
                        total += v if c == 1 else c * v
            else:
                return total
        num, den = total.as_integer_ratio()
        for x, y, c in terms:
            left = fmemo[x]
            if left:
                right = gmemo[y]
                if right:
                    ln, ld = left.as_integer_ratio()
                    rn, rd = right.as_integer_ratio()
                    q = ld * rd
                    if den % q:
                        m = q // gcd(den, q)
                        num *= m
                        den *= m
                    num += c * ln * rn * (den // q)
        return _ratio(num, den)


class _Series(Functional):
    """A series: unit_term at the empty bar word, written into the memo
    when the node is built, and at b the sum over i < deg b of
    coeff(i) * T_i(b), where T_0 = first, T_{i+1} = step(node, T_i), and
    T_i vanishes below degree i + 1.  Terms and
    coefficients are built once, on demand; a zero coefficient (an odd
    Bernoulli number) skips its term unevaluated, and each other term is
    read by a subscript of its memo.  The coefficients are Fractions, so
    the sum is one int numerator over a common denominator from its first
    term.  The step gets the node as a weak proxy, so a term that refers
    back to it (a Magnus iterate) makes no reference cycle."""

    __slots__ = ("step", "coeff", "_terms")

    def __init__(self, first, step, coeff, unit_term):
        super().__init__()
        self.step, self.coeff = step, coeff
        self._terms = [(coeff(0), first)]
        self._memo[EMPTY_BAR] = unit_term

    def _value(self, b):
        d = b.degree
        terms = self._terms
        if len(terms) < d:
            me, step, coeff = weakref.proxy(self), self.step, self.coeff
            while len(terms) < d:
                terms.append((coeff(len(terms)), step(me, terms[-1][1])))
        return _sum((c, t._memo[b]) for c, t in terms[:d] if c)


# ---------------------------------------------------------------------------
# public constructors

def character(moments: Mapping[Word, Fraction]) -> Functional:
    """The character extending a word -> moment map multiplicatively over bars."""
    out = _Table(moments, Word, "moment keys must be words")
    if out._memo.setdefault(EMPTY_BAR, 1) != 1:
        raise DomainError("the empty word must have moment 1")
    out.is_character = True
    return out


def infinitesimal(values: Mapping[Word, Fraction]) -> Functional:
    """The infinitesimal character with the given word values."""
    out = _Table(values, Word, "value keys must be words")
    if EMPTY_BAR in out._memo:
        raise DomainError("an infinitesimal character vanishes on the empty word")
    out.is_infinitesimal_character = True
    return out


def from_values(values: Mapping[BarWord, Fraction]) -> Functional:
    """A plain linear form with explicit bar-word values (all else 0)."""
    return _Table(values, (Word, BarWord), "value keys must be words or bar words")


#: The convolution unit e: 1 on the empty bar word, 0 elsewhere.  Construction
#: helpers compare against this instance to reject the undefined
#: half-products of the unit with itself.
e = character({})


def unit() -> Functional:
    return e


def conv(f: Functional, g: Functional) -> Functional:
    """Convolution product f * g."""
    out = _Pairing(f, g, Side.FULL)
    out.is_character = f.is_character and g.is_character
    return out


def _half(f: Functional, g: Functional, side: Side) -> Functional:
    # The half-products live on the augmentation kernel: 0 at the empty bar word.
    if f is e and g is e:
        raise DomainError("the half-products of the unit with itself are undefined")
    return _Pairing(f, g, side)


def hs_left(f: Functional, g: Functional) -> Functional:
    """Left half-shuffle product f < g; f < e = f, e < f = 0."""
    return _half(f, g, Side.LEFT)


def hs_right(f: Functional, g: Functional) -> Functional:
    """Right half-shuffle product f > g; e > f = f, f > e = 0."""
    return _half(f, g, Side.RIGHT)


def prelie(f: Functional, g: Functional) -> Functional:
    """Pre-Lie product f |> g = f > g - g < f (operands vanish at the unit)."""
    if f(EMPTY_BAR) != 0 or g(EMPTY_BAR) != 0:
        raise DomainError("the pre-Lie product acts on functionals vanishing "
                          "on the empty bar word")
    out = _Linear(((1, hs_right(f, g)), (-1, hs_left(g, f))))
    out.is_infinitesimal_character = (f.is_infinitesimal_character
                                      and g.is_infinitesimal_character)
    return out


def neumann_inverse(f: Functional) -> Functional:
    """Convolution inverse of a unital functional; f * f^{-1} = f^{-1} * f = e.
    The Neumann series sum_k (e - f)^{*k}, realised as X = e + X * (e - f)."""
    if f(EMPTY_BAR) != 1:
        raise DomainError("only functionals with value 1 on the empty bar word are invertible")
    out = _Pairing(None, e - f, Side.FULL)
    out._memo[EMPTY_BAR] = 1
    out.is_character = f.is_character
    return out


def _powers(base: Functional, coeff, unit_term) -> _Series:
    # T_i = base^{*(i+1)}, each power one convolution step after the last
    return _Series(base, lambda _, t: conv(t, base), coeff, unit_term)


def exp_star(alpha: Functional) -> Functional:
    """Convolution exponential e + sum alpha^{*n} / n!."""
    if alpha(EMPTY_BAR) != 0:
        raise DomainError("exp* needs an operand vanishing on the empty bar word")
    out = _powers(alpha, lambda i: Fraction(1, factorial(i + 1)), 1)
    out.is_character = alpha.is_infinitesimal_character
    return out


def log_star(phi: Functional) -> Functional:
    """Convolution logarithm sum (-1)^{n+1} (phi - e)^{*n} / n."""
    if phi(EMPTY_BAR) != 1:
        raise DomainError("log* needs an operand with value 1 on the empty bar word")
    out = _powers(phi - e, lambda i: Fraction(-1 if i % 2 else 1, i + 1), 0)
    out.is_infinitesimal_character = phi.is_character
    return out


def _half_exp(alpha: Functional, f, g, side: Side) -> Functional:
    if alpha(EMPTY_BAR) != 0:
        raise DomainError("half-shuffle exponentials need an operand vanishing "
                          "on the empty bar word")
    out = _Pairing(f, g, side)
    out._memo[EMPTY_BAR] = 1
    out.is_character = alpha.is_infinitesimal_character
    return out


def exp_left(alpha: Functional) -> Functional:
    """Left half-shuffle exponential, the solution of X = e + alpha < X."""
    return _half_exp(alpha, alpha, None, Side.LEFT)


def exp_right(alpha: Functional) -> Functional:
    """Right half-shuffle exponential, the solution of X = e + X > alpha."""
    return _half_exp(alpha, None, alpha, Side.RIGHT)


def _divide_right(phi: Functional, z: Functional) -> Functional:
    # phi^{-1} > z, the solution of X = z + (e - phi) > X (phi > X = z, e > X = X)
    return _Pairing(e - phi, None, Side.RIGHT, z)


def _divide_left(z: Functional, phi: Functional) -> Functional:
    # z < phi^{-1}, the solution of X = z + X < (e - phi) (X < phi = z, X < e = X)
    return _Pairing(None, e - phi, Side.LEFT, z)


def log_left(phi: Functional) -> Functional:
    """Left half-shuffle logarithm (phi - e) < phi^{-1}, the compositional
    inverse of exp_left; computed as the division X = (phi - e) + X < (e - phi).
    phi - e is phi past the empty bar word, so phi itself is the base, and
    the 0 there is written into the memo."""
    if phi(EMPTY_BAR) != 1:
        raise DomainError("half-shuffle logarithms need a unital operand")
    out = _divide_left(phi, phi)
    out._memo[EMPTY_BAR] = 0
    out.is_infinitesimal_character = phi.is_character
    return out


def log_right(phi: Functional) -> Functional:
    """Right half-shuffle logarithm phi^{-1} > (phi - e), computed as the
    division X = (phi - e) + (e - phi) > X, with phi as the base and 0
    written at the empty bar word, as in :func:`log_left`."""
    if phi(EMPTY_BAR) != 1:
        raise DomainError("half-shuffle logarithms need a unital operand")
    out = _divide_right(phi, phi)
    out._memo[EMPTY_BAR] = 0
    out.is_infinitesimal_character = phi.is_character
    return out


def hs_power(phi: Functional, s, side: Side = Side.LEFT) -> Functional:
    """Half-shuffle power: rescale the corresponding logarithm by s and
    re-exponentiate.  s = 1 gives phi back, s = 0 the unit."""
    s = parse_rational(s)
    if side is Side.LEFT:
        return exp_left(s * log_left(phi))
    if side is Side.RIGHT:
        return exp_right(s * log_right(phi))
    raise DomainError("half-shuffle powers are left- or right-sided")


def adjoint(phi: Functional, mu: Functional) -> Functional:
    """Group adjoint action Ad_phi(mu) = phi^{-1} > mu < phi, computed as
    the division phi^{-1} > (mu < phi) by the mixed axiom
    (a > b) < c = a > (b < c)."""
    if phi(EMPTY_BAR) != 1:
        raise DomainError("the adjoint action is indexed by unital functionals")
    if mu(EMPTY_BAR) != 0:
        raise DomainError("the adjoint action moves functionals vanishing at the unit")
    out = _divide_right(phi, hs_left(mu, phi))
    out.is_infinitesimal_character = (mu.is_infinitesimal_character and phi.is_character)
    return out


def ad_action(g1: Functional, g2: Functional) -> Functional:
    """Left Lie-level adjoint action of g1 on g2, written g2^{g1}: the group
    adjoint Ad_{E<(g1)}(g2) = E<(g1)^{-1} > g2 < E<(g1)."""
    if not (g1.is_infinitesimal_character and g2.is_infinitesimal_character):
        raise DomainError("the adjoint actions act on infinitesimal characters")
    conjugator = -1 * g1 if mutations.is_active("flip-ad-conjugator") else g1
    return adjoint(exp_left(conjugator), g2)


def ad_action_right(g1: Functional, g2: Functional) -> Functional:
    """Right Lie-level adjoint action; equals the left action of -g1."""
    return ad_action(-1 * g1, g2)


def positive_part(f: Functional) -> Functional:
    """f with its value at the empty bar word replaced by 0."""
    return f - f(EMPTY_BAR) * e


def _own_value(f: Functional, b: BarWord) -> Value:
    """f(b) from the recursion of f itself, as if its flags were cleared.
    The terms of a linear combination are read the same way; the nodes
    below keep their flags, so each flag is checked one level at a time.
    A leaf has no recursion, and its flag is its definition: it is read
    through f(b)."""
    if isinstance(f, _Linear):
        return sum(c * _own_value(p, b) for c, p in f.parts)
    if isinstance(f, _Table):
        return f(b)
    return f._value(b)


def agree_up_to(f: Functional, g: Functional, letters, max_degree: int,
                include_empty: bool = True):
    """First bar word of degree <= max_degree where f and g differ, as a
    (bar word, f value, g value) triple, or None if they agree everywhere.

    On a bar product of two or more components each side is read from its
    own recursion, past its flags: two nodes flagged alike would otherwise
    read the same product or 0 there, and agree by construction."""
    bars = all_barwords(tuple(letters), max_degree)
    for b in (EMPTY_BAR, *bars) if include_empty else bars:
        if len(b.words) < 2:
            fv, gv = f(b), g(b)
        else:
            fv, gv = _own_value(f, b), _own_value(g, b)
        if fv != gv:
            return (b, fv, gv)
    return None
