"""Linear functionals on the span of bar words, with the shuffle calculus.

A :class:`Functional` maps bar words to exact rationals.  Derived functionals
are immutable expression nodes; evaluation is lazy, recursing through the
coproducts of the argument, and memoized per node.  All series-type operators
(inverse, exponentials, logarithms) are degree-bounded recursions: evaluating
one at a bar word of degree d only ever touches evaluations at degree <= d,
so every value is an exact finite sum.

A value is read as an ``int`` when it is integral, else a reduced
``Fraction``.  Inside the engine a non-integral value is a ``_Ratio``, the
reduced pair (numerator, denominator) with denominator > 1, so every memo
holds an int or a ratio, and a Fraction is built, through the public
constructor, only where a value leaves the engine: a call, a witness of
:func:`agree_up_to`.  The leaves store integral values as ints, the values
at the empty bar word and the flag short-circuit start from int 0 and 1,
and an integral scalar multiple keeps an int coefficient.  Each kernel
that sums (a pairing, the row of a series and its value) makes one pass
over its terms.  It adds the int products into an int total and every
other term into one int numerator over the lcm of the denominators met,
and at the end combines the two with one gcd, which gives an int or a
ratio.  A linear combination sums in a plain int loop, and at its first
ratio or Fraction coefficient starts again with that pass; a character's product over the components of a
bar word multiplies numerators and denominators and ends with the same
gcd.  A ratio has no arithmetic: its product is None, which sends a
pairing's term to the numerator.  A series keeps its coefficients,
Fractions (1/n!, (-1)^i/(i+1), B_m/m!), as int numerators over one common
denominator, so its value on a row of ints is an int sum and one gcd.
So a tree on integral leaves with no series and no Fraction scalar runs
in int arithmetic, and any other tree runs on int pairs and builds no
Fraction.
The distribution API in :mod:`cumulants` and :mod:`products` relies on
this: every construction here commutes with the grading automorphism
theta_D : w -> D^|w| w, so it evaluates on inputs scaled to integers and
divides once at the end.  Every other denominator, a series coefficient
(the Magnus map's B_m/m! reach its iterates, which multiply by the node
itself) or a scalar, the kernels' numerators carry.

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
checks the engine against them.  Every pairing reads its left leg first.
A node that is its own left leg (the inverse, the left division and the
right exponential) drops the last term of its coproduct entry when it is
b (x) 1 (:mod:`.coproducts`), which would read the node at b itself; the
term adds 0, as its right leg (e - f, e - phi or a) vanishes at the empty
bar word.  The right leg y is the bar word of the runs left over, so an
infinitesimal character there reads 0 unless y is one word: when the right
operand (or the node, in its place) is flagged
``is_infinitesimal_character``, a pairing at a one-word bar word reads
only the terms whose complement is one interval, at most n(n+1)/2 of them
instead of 2^n (the terms of ``coproducts.single_run_terms``, read as the
memo's flat (x, y, c) triples).  Clearing the flag brings the full terms
back.  So ``exp_right``, every ``prelie`` of infinitesimal characters,
and ``log_right`` and ``adjoint`` where flagged, read O(n^2) terms at a
word of degree n, and so do the series legs below whose right operand is
flagged: the powers of ``exp_star`` and the Magnus iterates.

One node kind, ``_Series``, sums the series: its value at the empty bar
word (1 for exp*, else 0), and elsewhere c_0 T_0 + c_1 T_1 + ... up to
the degree of the argument, where each iterate is one step after the last
and vanishes below its index.  The step is data, a few signed pairing legs
that each name their side, the leg that holds the previous iterate and a
fixed operand, None for the node itself as in a pairing.  exp* and log*
step by one convolution leg; the Magnus map and its inverse in
:mod:`magnus` by the two legs of a pre-Lie product, and the Magnus map's
fixed operand is the node itself.  At each bar word where it is evaluated
the node keeps the row (T_0(b), ..., T_{d-1}(b)) in its own iterate table,
filled by one kernel that sums every leg over the coproduct terms of b for
all the iterates at once.  Other nodes read a series through its memo
only, and the table goes with the node.

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
word and stores the value.  A call is the bar-word coercion, that
subscript, and the Fraction of a ratio; :func:`_pair` reads the value as
its (numerator, denominator) pair instead, which :mod:`cumulants`
divides by D^|w| into one Fraction.  The evaluation kernels (the loops of
``_Pairing``, ``_Linear`` and ``_Series``, and a character's product
over the components of a bar word) subscript their operands' memos, and
a series its own iterate table, whose ``__missing__`` fills a row.  So a
hit is a dict read in C, and every miss goes through
``_Memo.__missing__``, the one place that dispatches on the flags.  A
character reads its components from the bar word's ``parts`` slot,
filled with their canonical one-word bar words on its first bar-product
miss, so a second character node, or a second tree, builds none of them
again.  A memo holds its node through a weak reference, so a tree is
freed by reference counting alone.

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
from math import factorial, gcd, lcm
from typing import Iterable, Mapping

from .coproducts import Side, _terms
from .errors import DomainError, ValidationError
from .words import BarWord, EMPTY_BAR, Word, _degree, _letters, all_barwords, as_barword

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


class _Ratio(tuple):
    """A non-integral value inside the engine: the pair (numerator,
    denominator), reduced, with denominator > 1.  It has no arithmetic:
    its product with anything, in either order, is None, which sends a
    pairing's term to the numerator over the common denominator.  A value
    leaves the engine as a Fraction (:func:`_public`)."""

    __slots__ = ()

    def __mul__(self, other):
        return None

    __rmul__ = __mul__


def _ratio(num: int, den: int):
    """num / den for den > 0, by one gcd: an int when integral, else a
    :class:`_Ratio`."""
    g = gcd(num, den)
    return num // den if g == den else _Ratio((num // g, den // g))


def _public(v) -> Value:
    """An engine value as the package returns it: an int, or the Fraction
    of a ratio, built by the public constructor."""
    return v if type(v) is int else Fraction(*v)


def _pair(f: "Functional", b: BarWord) -> tuple[int, int]:
    """f(b) as (numerator, denominator), with no Fraction built."""
    v = f._memo[b]
    return (v, 1) if type(v) is int else v


def _sum(pairs, divisor=1):
    """The sum of c * v over pairs of a coefficient (an int or a Fraction)
    and an engine value, divided by a positive int.  The int products add
    into an int total, and every other term into one int numerator over the
    lcm of the denominators met; one gcd joins the two at the end."""
    total, num, den = 0, 0, 1
    for c, v in pairs:
        if v:
            if type(v) is int and type(c) is int:
                total += c * v
            else:
                vn, vd = (v, 1) if type(v) is int else v
                cn, cd = (c, 1) if type(c) is int else c.as_integer_ratio()
                q = cd * vd
                if den % q:
                    m = q // gcd(den, q)
                    num *= m
                    den *= m
                num += cn * vn * (den // q)
    return _ratio(total * den + num, den * divisor) if num or divisor > 1 else total


class _Memo(dict):
    """A node's memo, keyed by canonical bar words.  A missed read
    evaluates the node there and stores the value: on a bar product a
    character multiplies its values on the words and an infinitesimal
    character reads 0; every other miss is the node's own ``_value``.  It
    holds its node weakly, so the two make no reference cycle."""

    __slots__ = ("node",)

    def __init__(self, node: "Functional"):
        self.node = weakref.ref(node)

    def __missing__(self, b: BarWord):
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
                    n, d = v
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
        return _public(self._memo[element])

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
            v = _exact(v)
            memo[as_barword(k)] = v if type(v) is int else _Ratio(v.as_integer_ratio())

    def _value(self, b):
        return 0


class _Linear(Functional):
    """A linear combination sum c * f over its parts.  Its value at the
    empty bar word, sum c * f(1), is written into its memo when it is
    built, and the unit e, 0 everywhere else, is then dropped from the
    parts.  The flag is still read over every part, e included, so
    alpha + e is not flagged infinitesimal.  Its value is summed in ints
    while the coefficients and the parts' values are ints; at the first
    that is not, it is the :func:`_sum` of all the parts' values."""

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
            if type(v) is not int or type(c) is not int:
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
    loop reads the left leg first, so a node that is its own left leg
    drops the last term of its entry when it is b (x) 1, whose right leg
    vanishes.  The node does not store itself, which would make it a
    reference cycle that outlives its use; its loop subscripts the memos of
    its legs and of the base, its own included.

    The runs leg is g, or the node itself when g is None.  When it is
    flagged ``is_infinitesimal_character`` and b is one word, only the terms
    whose y is one word can be nonzero, and the node reads just those
    (``coproducts.single_run_terms``).  The loop makes one pass over the
    coproduct memo's flat (x, y, c) triples.  An int base and the int
    products add into an int total.  The product of a ratio is None, so a
    ratio base, and every term with a ratio leg, adds into one int
    numerator over the lcm of the denominators met; one gcd joins the two
    at the end."""

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
        if self.f is None and terms and terms[-1][0] is b:
            terms = terms[:-1]  # the term (b, 1): the right leg is 0 at 1
        fmemo, gmemo = (self if self.f is None else self.f)._memo, runs._memo
        total, num, den = 0 if self.base is None else self.base._memo[b], 0, 1
        if type(total) is not int:
            (num, den), total = total, 0
        for x, y, c in terms:
            left = fmemo[x]
            if left:
                right = gmemo[y]
                if right:
                    v = left * right
                    if v is None:  # a ratio leg: the term joins num / den
                        ln, ld = (left, 1) if type(left) is int else left
                        rn, rd = (right, 1) if type(right) is int else right
                        q = ld * rd
                        if den % q:
                            m = q // gcd(den, q)
                            num *= m
                            den *= m
                        num += c * ln * rn * (den // q)
                    else:
                        total += v if c == 1 else c * v
        return _ratio(total * den + num, den) if num else total


class _Rows(_Memo):
    """A series' iterate table, keyed by canonical bar words: a missed read
    fills the row of the iterates there (:meth:`_Series._row`)."""

    __slots__ = ()

    def __missing__(self, b: BarWord):
        row = self[b] = self.node()._row(b)
        return row


class _Series(Functional):
    """A series: unit_term at the empty bar word, written into the memo
    when the node is built, and at b of degree d the sum of coeff(i) *
    T_i(b) over i < d, where T_0 = first and T_i vanishes below degree
    i + 1.  ``legs`` holds (sign, side, prev_left, fixed): T_{i+1}(b) sums
    sign * c * T_i(x) * fixed(y) over the terms c x (x) y of the side on b
    when prev_left, else sign * c * fixed(x) * T_i(y), fixed None standing
    for the node.  A step is one convolution leg or the two legs of a
    pre-Lie product.  Every fixed operand vanishes at the empty bar word
    and is read first, so no term reads the row at b itself.

    ``rows`` maps b to (T_0(b), ..., T_{d-1}(b)), filled from the rows of
    the legs' bar words.  A pre-Lie product of infinitesimal characters is
    one, so when first and fixed are flagged, every iterate is: its row on
    a bar product is 0, and a leg whose right operand, iterate or fixed, is
    flagged reads the pruned terms on a word, as a pairing does.  A
    convolution step keeps no flag.  The kernel fills the row in one pass
    over the legs' terms, as a pairing sums: each iterate adds its int
    products into an int and its other terms into one numerator over the
    lcm of their denominators, joined by one gcd at the end.  A term whose
    fixed value is an int tests each entry once, for an int; past a ratio
    fixed value every entry goes to the numerator.  The coefficients are
    read once, on demand, and kept as int numerators over their common
    denominator, and the value is their :func:`_sum` with the row divided
    by that denominator, so on a row of ints it is an int sum and one
    gcd."""

    __slots__ = ("first", "legs", "coeff", "nums", "den", "rows")

    def __init__(self, first, legs, coeff, unit_term):
        super().__init__()
        self.first, self.legs, self.coeff = first, legs, coeff
        self.nums, self.den = [], 1
        self.rows = _Rows(self)
        self._memo[EMPTY_BAR] = unit_term

    def _value(self, b):
        row, nums = self.rows[b], self.nums
        while len(nums) < len(row):
            # the coefficients read so far, as ints over their common denominator
            cn, cd = self.coeff(len(nums)).as_integer_ratio()
            den = lcm(self.den, cd)
            nums[:] = [c * (den // self.den) for c in nums]
            nums.append(cn * (den // cd))
            self.den = den
        return _sum(zip(nums, row), self.den)

    def _row(self, b):
        d = b.degree
        t0 = self.first._memo[b]
        if d < 2:  # T_1, T_2, ... vanish below degree 2
            return (t0,) if d else ()
        lie = self.first.is_infinitesimal_character and all(
            side is not Side.FULL and (self if f is None else f).is_infinitesimal_character
            for _, side, _, f in self.legs)
        if len(b.words) > 1 and lie:
            return (0,) * d
        legs = []
        for sign, side, prev_left, f in self.legs:
            f = self if f is None else f
            pruned = len(b.words) == 1 and (f.is_infinitesimal_character if prev_left else lie)
            legs.append((sign, _terms(b, side, "run" if pruned else "all"),
                         *((0, 1) if prev_left else (1, 0)), f._memo))
        # iterate j adds its int products into acc[j], every other term into
        # nums[j] over dens[j], the lcm of the denominators met
        acc, nums, dens, rows = [0] * d, [0] * d, [1] * d, self.rows
        if type(t0) is int:
            acc[0] = t0
        else:
            nums[0], dens[0] = t0
        for sign, terms, p, q, fmemo in legs:
            for term in terms:
                fv = fmemo[term[q]]
                if fv:
                    # int entries give int products unless the fixed value is a ratio
                    if type(fv) is int:
                        k, fd, ints = sign * term[2] * fv, 1, int
                    else:
                        fn, fd = fv
                        k, ints = sign * term[2] * fn, None
                    for j, t in enumerate(rows[term[p]], 1):
                        if t:
                            if type(t) is ints:
                                acc[j] += k * t
                            else:
                                tn, td = (t, 1) if type(t) is int else t
                                r, den = fd * td, dens[j]
                                if den % r:
                                    m = r // gcd(den, r)
                                    nums[j] *= m
                                    dens[j] = den = den * m
                                nums[j] += k * tn * (den // r)
        if not any(nums):
            return tuple(acc)
        return tuple(_ratio(a * den + n, den) if n else a for a, n, den in zip(acc, nums, dens))


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


def _prelie_legs(f) -> tuple:
    """The legs of the series step T -> f |> T = f > T - T < f; f None is
    the series itself."""
    return ((1, Side.RIGHT, False, f), (-1, Side.LEFT, True, f))


def exp_star(alpha: Functional) -> Functional:
    """Convolution exponential e + sum alpha^{*n} / n!: a series of the
    powers of alpha, each one convolution step T -> T * alpha after the last."""
    if alpha(EMPTY_BAR) != 0:
        raise DomainError("exp* needs an operand vanishing on the empty bar word")
    out = _Series(alpha, ((1, Side.FULL, True, alpha),),
                  lambda i: Fraction(1, factorial(i + 1)), 1)
    out.is_character = alpha.is_infinitesimal_character
    return out


def log_star(phi: Functional) -> Functional:
    """Convolution logarithm sum (-1)^{n+1} (phi - e)^{*n} / n, a series of
    the powers of phi - e as in :func:`exp_star`."""
    if phi(EMPTY_BAR) != 1:
        raise DomainError("log* needs an operand with value 1 on the empty bar word")
    base = phi - e
    out = _Series(base, ((1, Side.FULL, True, base),),
                  lambda i: Fraction(-1 if i % 2 else 1, i + 1), 0)
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


def _half_log(phi: Functional, divide) -> Functional:
    if phi(EMPTY_BAR) != 1:
        raise DomainError("half-shuffle logarithms need a unital operand")
    out = divide(phi, phi)
    out._memo[EMPTY_BAR] = 0
    out.is_infinitesimal_character = phi.is_character
    return out


def log_left(phi: Functional) -> Functional:
    """Left half-shuffle logarithm (phi - e) < phi^{-1}, the compositional
    inverse of exp_left; computed as the division X = (phi - e) + X < (e - phi).
    phi - e is phi past the empty bar word, so phi itself is the base, and
    the 0 there is written into the memo."""
    return _half_log(phi, _divide_left)


def log_right(phi: Functional) -> Functional:
    """Right half-shuffle logarithm phi^{-1} > (phi - e), computed as the
    division X = (phi - e) + (e - phi) > X, with phi as the base and 0
    written at the empty bar word, as in :func:`log_left`."""
    return _half_log(phi, _divide_right)


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
    return adjoint(exp_left(g1), g2)


def ad_action_right(g1: Functional, g2: Functional) -> Functional:
    """Right Lie-level adjoint action; equals the left action of -g1."""
    return ad_action(-1 * g1, g2)


def positive_part(f: Functional) -> Functional:
    """f with its value at the empty bar word replaced by 0."""
    return f - f(EMPTY_BAR) * e


def _own_value(f: Functional, b: BarWord):
    """f(b) as the engine holds it (an int or a ratio), from the recursion
    of f itself, as if its flags were cleared.  The terms of a linear
    combination are read the same way; the nodes below keep their flags, so
    each flag is checked one level at a time.  A leaf has no recursion, and
    its flag is its definition: it is read through its memo."""
    if isinstance(f, _Linear):
        return _sum((c, _own_value(p, b)) for c, p in f.parts)
    if isinstance(f, _Table):
        return f._memo[b]
    return f._value(b)


def agree_up_to(f: Functional, g: Functional, letters, max_degree: int,
                include_empty: bool = True):
    """First bar word of degree <= max_degree where f and g differ, as a
    (bar word, f value, g value) triple, or None if they agree everywhere.

    On a bar product of two or more components each side is read from its
    own recursion, past its flags: two nodes flagged alike would otherwise
    read the same product or 0 there, and agree by construction.  The
    values compare as the engine holds them, ints and reduced pairs, which
    is exact; only a witness is built as Fractions.  The letters and
    max_degree follow the package's rules (``words._letters`` and
    ``words._degree``), so no agreement is certified over no letters or no
    degree."""
    bars = all_barwords(_letters(letters), _degree(max_degree))
    for b in (EMPTY_BAR, *bars) if include_empty else bars:
        if len(b.words) < 2:
            fv, gv = f._memo[b], g._memo[b]
        else:
            fv, gv = _own_value(f, b), _own_value(g, b)
        if fv != gv:
            return (b, _public(fv), _public(gv))
    return None
