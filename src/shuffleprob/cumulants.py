"""Distribution-level API: moments <-> free/boolean/monotone cumulants.

A :class:`Distribution` is a finitely supported multivariate moment map over
a declared letter set, truncated at a maximal degree.  The three cumulant
families are the three logarithms of its moment character:

    free     <- left half-shuffle logarithm,
    boolean  <- right half-shuffle logarithm,
    monotone <- convolution logarithm,

and the inverse transforms are the corresponding exponentials.  Conversions
between families go through the Magnus map and pre-Lie exponential at the
infinitesimal-character level, but free and boolean below degree 9 convert
through the moment character: log>(exp<) one way and log<(exp>) the other.

The transforms take the cheaper route to the same values.  log> is a
pruned pairing, about n terms at a word of degree n, and a conversion
through monotone about n^3; log<, exp< and log* read 2^(n-1) to 2^n.  So
monotone cumulants are -O(-log>), the boolean cumulants converted, at
every degree.  Free cumulants are log< while max_degree < 9 and
W(-O(-log>)) from 9 on, and free moments exp< below 9 and exp> of the
cumulants converted to boolean from 9 on (the rules behind 9 are at
_FREE_VIA_BOOLEAN_DEGREE).  The conversion between free and boolean
follows the same threshold: through moments below 9, through monotone
from 9 on, where the free routes read it.  Boolean both ways and monotone
moments (exp*, already pruned) use the family's own exponential or
logarithm.  One route table, :func:`_route`, gives each route's tree, and
is the only reader of the threshold and of the conversions through
monotone.

The distribution API (:func:`to_cumulants`, :func:`from_cumulants`,
:func:`convert`, and the distribution-level products of :mod:`products`)
evaluates through one evaluator, :func:`_evaluate`, on scaled inputs.
Every term of the unshuffle coproduct keeps the degree, so the grading
automorphism theta_D : w -> D^|w| w commutes with every construction of
:mod:`functionals` and :mod:`magnus`.  :func:`_evaluate`, the only place
that knows the scale, takes D as the lcm of the input denominators,
builds the leaves on the integers D^|w| v, evaluates the tree, and
divides each value by D^|w| once, so every result is a ``Fraction``.  A
tree with no series and no Fraction scalar runs in ints.  Every other
denominator, the coefficients of O, W, exp* and log* and a scalar such as
the t of ``bp_t``, the int-pair loops of :mod:`functionals` carry.  The
public constructors, :func:`cumulant_functional` and
:meth:`Distribution.character` build unscaled trees.

Input follows one rule each, and the other layers (the JSON reader, the
CLI, ``verify.run_suites``) call these rules and do not check again: a
value by ``words.parse_rational``, a max_degree by ``words._degree``,
and the keys of a moment map, a library cumulant map, a cumulant file or
the coefficients of a :class:`TruncatedSeries` by :func:`_word_map`.  The
declared letters of a :class:`Distribution`, of :func:`from_cumulants` and
of :func:`convert`, when given, follow ``words._letters``, checked before any
evaluation, and every distribution operand, here and in :mod:`products`,
:func:`_distributions`.  A Distribution has one constructor: the rule and
the evaluator return maps marked as read (:class:`_WordMap`), which the
rule takes again, engine results and parsed files alike, as a plain copy,
and it holds that copy behind a read-only view.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from . import functionals as fn
from .errors import ValidationError
from .magnus import _magnus_inverse_twisted, _magnus_twisted, magnus, magnus_inverse
from .words import (EMPTY_WORD, Letter, Word, _degree, _letters, word_bars_up_to,
                    words_up_to)


class CumulantKind(enum.Enum):
    FREE = "free"
    BOOLEAN = "boolean"
    MONOTONE = "monotone"


def _as_kind(kind) -> CumulantKind:
    if isinstance(kind, CumulantKind):
        return kind
    try:
        return CumulantKind(str(kind).lower())
    except ValueError:
        raise ValidationError(f"unknown cumulant kind {kind!r}") from None


class Distribution:
    """Moments of a family of non-commutative random variables, one letter
    per variable, for every word of degree <= max_degree (absent words have
    moment 0; the empty word implicitly has moment 1).  Immutable: assigning
    a field raises AttributeError, and it holds a copy of the moments given,
    of which ``moments`` is a read-only view (a store into it raises
    TypeError); equal by value, and unhashable."""

    __slots__ = ("letters", "max_degree", "moments")

    def __init__(self, letters, max_degree: int, moments: Mapping[Word, Fraction]):
        letters = _letters(letters)
        if EMPTY_WORD in moments:
            moments = dict(moments)
            if fn.parse_rational(moments.pop(EMPTY_WORD)) != 1:
                raise ValidationError("the empty word always has moment 1")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "moments",
                           MappingProxyType(_word_map(moments, letters, max_degree)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Distribution")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Distribution")

    def __reduce__(self):
        return Distribution, (self.letters, self.max_degree, self._marked())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.letters, self.max_degree, self.moments)
                == (other.letters, other.max_degree, other.moments))

    __hash__ = None

    def __repr__(self):
        return (f"Distribution(letters={self.letters!r}, max_degree={self.max_degree!r}, "
                f"moments={dict(self.moments)!r})")

    def _marked(self) -> "_WordMap":
        """The moments as the marked map the rule made of them, which the
        rule takes again without a read (a dict copy keeps the hashes)."""
        return _WordMap(self.moments.copy(), (self.letters, self.max_degree))

    def moment(self, w: Word) -> Fraction:
        if w == EMPTY_WORD:
            return Fraction(1)
        return self.moments.get(w, Fraction(0))

    def character(self) -> fn.Functional:
        return fn.character(self.moments)

    def words(self):
        return words_up_to(self.letters, self.max_degree)

    def retag(self, tag: int) -> "Distribution":
        """Same distribution with every letter re-tagged (free-product setup)."""
        table = {l: Letter(l.name, tag) for l in self.letters}
        remap = lambda w: Word(table[l] for l in w)
        return Distribution(tuple(table[l] for l in self.letters), self.max_degree,
                            {remap(w): v for w, v in self.moments.items()})

    @classmethod
    def univariate(cls, name: str, values, max_degree: int | None = None) -> "Distribution":
        """Distribution of a single variable from the list of its moments
        (m_1, m_2, ...)."""
        values = [fn.parse_rational(v) for v in values]
        n = len(values) if max_degree is None else _degree(max_degree)
        letter = Letter(name)
        moments = {Word((letter,) * (k + 1)): v for k, v in enumerate(values[:n]) if v}
        return cls((letter,), n, moments)


def semicircle(max_degree: int = 6, name: str = "a") -> Distribution:
    """Standard semicircle moments: Catalan numbers in even degrees."""
    vals = []
    for k in range(1, _degree(max_degree) + 1):
        vals.append(Fraction(math.comb(k, k // 2) - math.comb(k, k // 2 + 1))
                    if k % 2 == 0 else Fraction(0))
    return Distribution.univariate(name, vals, max_degree)


def bernoulli_symmetric(max_degree: int = 6, name: str = "a") -> Distribution:
    """Symmetric Bernoulli (point masses at +1/-1): even moments 1."""
    vals = [Fraction(0) if k % 2 else Fraction(1) for k in range(1, _degree(max_degree) + 1)]
    return Distribution.univariate(name, vals, max_degree)


def point_mass(c, max_degree: int = 6, name: str = "a") -> Distribution:
    c = fn.parse_rational(c)
    vals = [c ** k for k in range(1, _degree(max_degree) + 1)]
    return Distribution.univariate(name, vals, max_degree)


def tabulate(phi: fn.Functional, letters, max_degree: int) -> dict[Word, Fraction]:
    """phi on every nonempty word of degree <= max_degree, zeros omitted."""
    return _unscaled(phi, 1, letters, max_degree)


def _evaluate(tree, leaf, maps, letters, max_degree: int) -> dict[Word, Fraction]:
    """tree(leaf(m), ...) over the maps, by theta_D: D is the lcm of their
    denominators, each leaf is built on the ints D^|w| v, and
    :func:`_unscaled` divides each value by D^|w| once.  Every other
    denominator, a series coefficient or a Fraction scalar, the int-pair
    loops of :mod:`functionals` carry.  Every key of the maps must be a
    nonempty word."""
    D = math.lcm(*(v.denominator for m in maps for v in m.values()))
    leaves = [leaf({w: v.numerator * (D // v.denominator) * D ** (len(w) - 1)
                    for w, v in m.items()}) for m in maps]
    return _unscaled(tree(*leaves), D, letters, max_degree)


def _unscaled(phi: fn.Functional, D: int, letters, max_degree: int
              ) -> dict[Word, Fraction]:
    """phi(w) / D^|w| on every nonempty word of degree <= max_degree, zeros
    omitted, as a marked map: the values of the tree on theta_D's leaves."""
    letters, out = tuple(letters), {}
    scale = [D ** k for k in range(max_degree + 1)]
    for b in word_bars_up_to(letters, max_degree):
        num, den = fn._pair(phi, b)
        if num:
            out[b.words[0]] = Fraction(num, den * scale[b.degree])
    return _WordMap(out, (letters, max_degree))


def _distributions(what: str, *ds) -> None:
    """The one rule for a distribution operand: each of ds is a Distribution."""
    if not all(isinstance(d, Distribution) for d in ds):
        raise ValidationError(f"{what}, got {' and '.join(type(d).__name__ for d in ds)}")


class _WordMap(dict):
    """A map of nonzero Fractions keyed by nonempty words, with ``read`` =
    (letters, max_degree): every key is over letters (any when None) and of
    degree <= max_degree.  :func:`_word_map` and :func:`_unscaled` return
    one.  Storing into it (a subscript, ``update``, ``setdefault``, ``|=``)
    clears ``read``, so a changed map is read by the rule again."""

    __slots__ = ("read",)

    def __init__(self, values, read):
        dict.__init__(self, values)
        self.read = read

    def __reduce__(self):
        return _WordMap, (dict(self), self.read)

    def __setitem__(self, w, v):
        self.read = None
        dict.__setitem__(self, w, v)

    def update(self, *args, **kwargs):
        self.read = None
        dict.update(self, *args, **kwargs)

    def setdefault(self, w, v=None):
        self.read = None
        return dict.setdefault(self, w, v)

    def __ior__(self, other):
        self.read = None
        return dict.__ior__(self, other)


def _word_map(values: Mapping[Word, Fraction], letters, max_degree: int,
              drop_above: bool = False) -> dict[Word, Fraction]:
    """values read by the rational rule, zeros dropped.  Keys are nonempty
    words over letters (any letters when None; a moment map takes its empty
    word, of value 1, out first).  A key above max_degree raises, or is
    dropped when drop_above, as in a library cumulant map.  A marked map,
    unchanged since, whose letters lie in letters and whose max_degree is
    at most max_degree, comes back as a marked copy without a read: a parsed
    file or an engine result is read once, and a store into it later
    reaches no holder of the copy."""
    n = _degree(max_degree)
    allowed = None if letters is None else set(letters)
    if type(values) is _WordMap and values.read is not None:
        had, m = values.read
        if m <= n and (allowed is None or had is not None and allowed.issuperset(had)):
            return _WordMap(values, values.read)
    clean = {}
    for w, v in values.items():
        if not isinstance(w, Word):
            raise ValidationError(f"map keys must be words, got {w!r}")
        if not w:
            raise ValidationError("only a moment map has a value at the empty word")
        if allowed is not None and not allowed.issuperset(w):
            raise ValidationError(f"key {w!r} uses undeclared letters")
        if len(w) > n:
            if drop_above:
                continue
            raise ValidationError(f"key {w!r} exceeds max_degree {n}")
        v = fn.parse_rational(v)
        if v:
            clean[w] = v
    return _WordMap(clean, (None if letters is None else tuple(letters), n))


#: The max_degree from which the free transforms go through the boolean
#: logarithm.  log< and exp< read about 2^(n-1) terms at a word of degree n;
#: log>, the Magnus maps and exp> about n^3, the Magnus maps on int pairs.
#: Warm, the boolean route is 2.3-3.5x slower on the lib-mixed shapes and
#: 2.5-4.6x on dense input at degrees 6-8 on two letters and 5-6 on three,
#: so a long-running process keeps the direct route up to degree 8.  Cold
#: (coproduct memo cleared) it wins by 1.3-2.6x at degrees 8-10 on one
#: letter and 7-9 on two, and loses by 1.4-1.6x at degrees 5-6 on three.
#:
#: Below it, convert between free and boolean also goes through the moment
#: character, log>(exp<) and log<(exp>), in place of -W(-O) and W(-O(-)):
#: warm it is 1.9-3.1x faster at degrees 6-8 on two letters and 5-6 on
#: three, cold 1.8-2.1x slower on two letters, the same trade.  From 9 on
#: the conversion stays on the Magnus maps, which the free transforms read
#: there.  The other four conversions stay on them at every degree: through
#: moments, one to monotone still reads O after an exponential and one from
#: monotone adds exp*, and they were no faster (timings in CHANGES.md).
_FREE_VIA_BOOLEAN_DEGREE = 9

#: The moment character: the end of a route that is not a cumulant family.
_MOMENTS = "moments"


def _identity(alpha):
    return alpha


#: Each family's (to monotone, from monotone) maps at the Lie level; the
#: boolean ones are the sign twists a -> -O(-a) and a -> -W(-a), each one
#: series node (:mod:`magnus`).
_VIA_MONOTONE = {
    CumulantKind.FREE: (magnus, magnus_inverse),
    CumulantKind.BOOLEAN: (_magnus_twisted, _magnus_inverse_twisted),
    CumulantKind.MONOTONE: (_identity, _identity),
}


def _route(kind_from, kind_to, max_degree: int):
    """The tree that maps a functional of kind_from to the one of kind_to
    that it determines up to max_degree.  Either side is a CumulantKind or
    _MOMENTS.  Free and boolean convert into each other through the moment
    routes below _FREE_VIA_BOOLEAN_DEGREE.  Every other conversion goes
    through monotone by the maps of _VIA_MONOTONE: O and W for free, and
    for boolean their sign twists -O(-a) and -W(-a), each one series node
    with the signs folded into its coefficients."""
    free, boolean = CumulantKind.FREE, CumulantKind.BOOLEAN
    if kind_from is _MOMENTS:
        if kind_to is free and max_degree < _FREE_VIA_BOOLEAN_DEGREE:
            return fn.log_left
        convert = _route(boolean, kind_to, max_degree)
        return lambda phi: convert(fn.log_right(phi))
    if kind_to is _MOMENTS:
        if kind_from is free and max_degree >= _FREE_VIA_BOOLEAN_DEGREE:
            convert = _route(free, boolean, max_degree)
            return lambda alpha: fn.exp_right(convert(alpha))
        return {free: fn.exp_left, boolean: fn.exp_right,
                CumulantKind.MONOTONE: fn.exp_star}[kind_from]
    if kind_from is kind_to:
        return _identity
    if {kind_from, kind_to} == {free, boolean} and max_degree < _FREE_VIA_BOOLEAN_DEGREE:
        exp = _route(kind_from, _MOMENTS, max_degree)
        log = _route(_MOMENTS, kind_to, max_degree)
        return lambda alpha: log(exp(alpha))
    to_monotone, from_monotone = _VIA_MONOTONE[kind_from][0], _VIA_MONOTONE[kind_to][1]
    return lambda alpha: from_monotone(to_monotone(alpha))


def cumulant_functional(d: Distribution, kind) -> fn.Functional:
    """The infinitesimal character of the requested family for d's moment
    character phi, built as :func:`to_cumulants` builds it.  Boolean:
    log>(phi).  Monotone: -O(-log>(phi)), the Magnus map of the sign-twisted
    boolean cumulants, which equals log*(phi).  Free: log<(phi) when
    d.max_degree < 9, and W(-O(-log>(phi))), which equals it, from degree 9
    on, where it is the cheaper of the two."""
    _distributions("cumulant_functional takes a Distribution", d)
    return _route(_MOMENTS, _as_kind(kind), d.max_degree)(d.character())


def to_cumulants(d: Distribution, kind) -> dict[Word, Fraction]:
    """Cumulants of every word of degree <= max_degree (zeros omitted)."""
    _distributions("to_cumulants takes a Distribution", d)
    return _evaluate(_route(_MOMENTS, _as_kind(kind), d.max_degree), fn.character,
                     (d.moments,), d.letters, d.max_degree)


def from_cumulants(c: Mapping[Word, Fraction], kind, letters, max_degree: int
                   ) -> Distribution:
    """Distribution whose cumulants of the given kind are c: evaluate the
    matching exponential of the infinitesimal character on all words; for
    free from degree 9 on, exp> of the matching boolean cumulants."""
    kind = _as_kind(kind)
    letters = _letters(letters)
    values = _word_map(c, letters, max_degree, drop_above=True)
    return Distribution(letters, max_degree, _evaluate(
        _route(kind, _MOMENTS, max_degree), fn.infinitesimal, (values,), letters, max_degree))


def convert(c: Mapping[Word, Fraction], kind_from, kind_to, max_degree: int,
            letters=None) -> dict[Word, Fraction]:
    """Convert a cumulant map between families at the Lie level.

    Monotone and free trade places under the Magnus map and its inverse;
    boolean reaches either by conjugating with a sign twist.  Below degree 9
    free and boolean trade places through their moment character instead,
    as log>(exp<) and log<(exp>).  When ``letters`` is omitted it is
    inferred from the keys of c of degree <= max_degree; the keys above it
    are dropped.
    """
    kind_from, kind_to = _as_kind(kind_from), _as_kind(kind_to)
    letters = None if letters is None else _letters(letters)
    values = _word_map(c, letters, max_degree, drop_above=True)
    if letters is None:
        letters = tuple(sorted({l for w in c if len(w) <= max_degree for l in w},
                               key=lambda l: (l.name, l.tag)))
        if not letters:
            raise ValidationError("cannot infer letters from a cumulant map with no key "
                                  "up to max_degree; pass letters explicitly")
    return _evaluate(_route(kind_from, kind_to, max_degree), fn.infinitesimal, (values,),
                     letters, max_degree)


class TruncatedSeries:
    """Polynomial in the non-commuting letters, truncated above max_degree.

    Words index the coefficients; multiplication is concatenation, dropping
    anything beyond the truncation degree.  A sum or product needs both
    operands over the same letters and is truncated at the smaller
    max_degree, so both orders agree.  Either operand being anything but a
    series raises TypeError.
    """

    __slots__ = ("letters", "max_degree", "coefficients")

    def __init__(self, letters, max_degree: int, coefficients: Mapping[Word, Fraction]):
        self.letters = _letters(letters)
        self.max_degree = _degree(max_degree)
        self.coefficients = _word_map(coefficients, self.letters, max_degree, drop_above=True)

    def coefficient(self, w: Word) -> Fraction:
        return self.coefficients.get(w, Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.letters == other.letters
                and self.max_degree == other.max_degree
                and self.coefficients == other.coefficients)

    def _common_degree(self, other: "TruncatedSeries") -> int:
        if self.letters != other.letters:
            raise ValidationError(f"series over different letters: {self.letters!r} "
                                  f"and {other.letters!r}")
        return min(self.max_degree, other.max_degree)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_degree(other)
        out = dict(self.coefficients)
        for w, v in other.coefficients.items():
            out[w] = out.get(w, 0) + v
        return TruncatedSeries(self.letters, n, out)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_degree(other)
        out: dict[Word, Fraction] = {}
        for u, cu in self.coefficients.items():
            for v, cv in other.coefficients.items():
                if len(u) + len(v) <= n:
                    key = u.concat(v)
                    out[key] = out.get(key, 0) + cu * cv
        return TruncatedSeries(self.letters, n, out)

    def __repr__(self):
        if not self.coefficients:
            return "0"
        bits = []
        for w in sorted(self.coefficients, key=Word.sort_key):
            c = self.coefficients[w]
            bits.append(f"{c}*{w!r}" if c != 1 else repr(w))
        return " + ".join(bits)


def series(d: Distribution, which: str) -> TruncatedSeries:
    """Generating series of a distribution: "M" collects moments, "R" free
    cumulants, "eta" boolean cumulants, on all words up to max_degree."""
    _distributions("series takes a Distribution", d)
    table = {"m": None, "r": CumulantKind.FREE, "eta": CumulantKind.BOOLEAN}
    key = str(which).lower()
    if key not in table:
        raise ValidationError(f"unknown series {which!r}; expected M, R or eta")
    coeffs = d._marked() if table[key] is None else to_cumulants(d, table[key])
    return TruncatedSeries(d.letters, d.max_degree, coeffs)
