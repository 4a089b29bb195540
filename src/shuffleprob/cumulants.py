"""Distribution-level API: moments <-> free/boolean/monotone cumulants.

A :class:`Distribution` is a finitely supported multivariate moment map over
a declared letter set, truncated at a maximal degree.  The three cumulant
families are the three logarithms of its moment character:

    free     <- left half-shuffle logarithm,
    boolean  <- right half-shuffle logarithm,
    monotone <- convolution logarithm,

and the inverse transforms are the corresponding exponentials.  Conversions
between families go through the Magnus map and pre-Lie exponential directly
at the infinitesimal-character level, never through moments.

The transforms take the cheaper route to the same values.  log> is a
pruned pairing, about n terms at a word of degree n, and a conversion
about n^3; log<, exp< and log* read 2^(n-1) to 2^n.  So monotone
cumulants are -O(-log>), the boolean cumulants converted, at every
degree.  Free cumulants are log< while max_degree < 9 and W(-O(-log>))
from 9 on, and free moments exp< below 9 and exp> of the cumulants
converted to boolean from 9 on (the measurements behind 9 are at
_FREE_VIA_BOOLEAN_DEGREE).  Boolean both ways and monotone moments (exp*,
already pruned) use the family's own exponential or logarithm.

The distribution API (:func:`to_cumulants`, :func:`from_cumulants`,
:func:`convert`, and the distribution-level products of :mod:`products`)
evaluates on scaled inputs.  Every term of the unshuffle coproduct keeps the
degree, so the grading automorphism theta_D : w -> D^|w| w commutes with
every construction of :mod:`functionals` and :mod:`magnus`.  Each entry
point takes D as the lcm of its input denominators, builds its leaves on
the integers D^|w| v, evaluates the same tree in int arithmetic, and
divides each value by D^|w| once, so every result is a ``Fraction``.  A
tree that converts out of free or boolean cumulants reads the Magnus map,
and D also takes the lcm of the denominators of the Magnus coefficients
below max_degree, so O and every pairing that reads it run on ints too;
only the final sums of W and exp* meet their coefficients' Fractions.
The public constructors, :func:`cumulant_functional` and
:meth:`Distribution.character` build unscaled trees.

Input follows one rule each, and the other layers (the JSON reader, the
CLI, ``verify.run_suites``) call these rules and do not check again: a
value by ``functionals.parse_rational``, a max_degree by :func:`_degree`,
and the keys of a moment map, a library cumulant map, a cumulant file or
the coefficients of a :class:`TruncatedSeries` by :func:`_word_map`.  The
declared letters of a :class:`Distribution`, of :func:`from_cumulants` and
of :func:`convert`, when given, follow :func:`_letters`, checked before any
evaluation, and every distribution operand, here and in :mod:`products`,
:func:`_distributions`.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Mapping

from . import functionals as fn
from .errors import ValidationError
from .magnus import _coeff_lcm, magnus, magnus_inverse
from .words import EMPTY_WORD, Letter, Word, word_bars_up_to, words_up_to


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
    a field raises AttributeError; equal by value, and unhashable."""

    __slots__ = ("letters", "max_degree", "moments")

    def __init__(self, letters, max_degree: int, moments: Mapping[Word, Fraction]):
        letters = _letters(letters)
        if EMPTY_WORD in moments:
            moments = dict(moments)
            if fn.parse_rational(moments.pop(EMPTY_WORD)) != 1:
                raise ValidationError("the empty word always has moment 1")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "moments", _word_map(moments, letters, max_degree))

    @classmethod
    def _built(cls, letters, max_degree: int, moments: dict[Word, Fraction]
               ) -> "Distribution":
        """A Distribution from letters and a max_degree already checked and
        the nonzero Fractions that :func:`_unscaled` keyed by words over
        those letters: the engine's own output, read by no rule again."""
        d = object.__new__(cls)
        object.__setattr__(d, "letters", letters)
        object.__setattr__(d, "max_degree", max_degree)
        object.__setattr__(d, "moments", moments)
        return d

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Distribution")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Distribution")

    def __reduce__(self):
        return Distribution, (self.letters, self.max_degree, self.moments)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.letters, self.max_degree, self.moments)
                == (other.letters, other.max_degree, other.moments))

    __hash__ = None

    def __repr__(self):
        return (f"Distribution(letters={self.letters!r}, max_degree={self.max_degree!r}, "
                f"moments={self.moments!r})")

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
        remap = lambda w: Word(table[l] for l in w.letters)
        return Distribution(tuple(table[l] for l in self.letters), self.max_degree,
                            {remap(w): v for w, v in self.moments.items()})

    @classmethod
    def univariate(cls, name: str, values, max_degree: int | None = None,
                   tag: int = 0) -> "Distribution":
        """Distribution of a single variable from the list of its moments
        (m_1, m_2, ...)."""
        values = [fn.parse_rational(v) for v in values]
        n = len(values) if max_degree is None else _degree(max_degree)
        letter = Letter(name, tag)
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


def _scaled(maps, extra: int = 1):
    """theta_D on word maps with Fraction values: (D, the maps with each
    value v at w replaced by the int D^|w| v), where D is the lcm of their
    denominators times extra.  Every key must be a nonempty word."""
    D = math.lcm(*(v.denominator for m in maps for v in m.values())) * extra
    return D, [{w: v.numerator * (D // v.denominator) * D ** (len(w) - 1)
                for w, v in m.items()} for m in maps]


def _unscaled(phi: fn.Functional, D: int, letters, max_degree: int
              ) -> dict[Word, Fraction]:
    """phi(w) / D^|w| on every nonempty word of degree <= max_degree, zeros
    omitted: the values of the tree built on leaves scaled by theta_D."""
    out = {}
    get = phi._memo.get
    scale = [D ** k for k in range(max_degree + 1)]
    for b in word_bars_up_to(tuple(letters), max_degree):
        v = get(b)
        if v is None:
            v = phi(b)
        if v:
            out[b.words[0]] = Fraction(v, scale[b.degree])
    return out


def _unscaled_distribution(phi: fn.Functional, D: int, d: Distribution) -> Distribution:
    return Distribution._built(d.letters, d.max_degree,
                               _unscaled(phi, D, d.letters, d.max_degree))


def _degree(n) -> int:
    """n, the one rule for a max_degree: a positive int, not a bool."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError("max_degree must be a positive integer")
    return n


def _letters(letters) -> tuple[Letter, ...]:
    """letters as a tuple, the one rule for a declared letter set: at least
    one letter, each a :class:`Letter`, no two alike."""
    letters = tuple(letters)
    if not letters:
        raise ValidationError("at least one letter is needed")
    if not all(isinstance(l, Letter) for l in letters):
        raise ValidationError("letters must be Letters")
    if len(set(letters)) != len(letters):
        raise ValidationError("duplicate letters")
    return letters


def _distributions(what: str, *ds) -> None:
    """The one rule for a distribution operand: each of ds is a Distribution."""
    if not all(isinstance(d, Distribution) for d in ds):
        raise ValidationError(f"{what}, got {' and '.join(type(d).__name__ for d in ds)}")


def _word_map(values: Mapping[Word, Fraction], letters, max_degree: int,
              drop_above: bool = False) -> dict[Word, Fraction]:
    """values read by the rational rule, zeros dropped.  Keys are nonempty
    words over letters (any letters when None; a moment map takes its empty
    word, of value 1, out first).  A key above max_degree raises, or is
    dropped when drop_above, as in a library cumulant map."""
    n = _degree(max_degree)
    allowed = None if letters is None else set(letters)
    clean = {}
    for w, v in values.items():
        if not isinstance(w, Word):
            raise ValidationError(f"map keys must be words, got {w!r}")
        if not w:
            raise ValidationError("only a moment map has a value at the empty word")
        if allowed is not None and not allowed.issuperset(w.letters):
            raise ValidationError(f"key {w!r} uses undeclared letters")
        if len(w) > n:
            if drop_above:
                continue
            raise ValidationError(f"key {w!r} exceeds max_degree {n}")
        v = fn.parse_rational(v)
        if v:
            clean[w] = v
    return clean


#: The max_degree from which the free transforms go through the boolean
#: logarithm.  log< and exp< read about 2^(n-1) terms at a word of degree n;
#: log>, the Magnus maps and exp> about n^3, in ints bar W's final sums.
#: Measured on dense random input, free to_cumulants direct -> through
#: log>, best of 3 fresh processes, cold: 1 letter 2.2 -> 2.3 ms at degree
#: 8, 2.9 -> 2.6 ms at 9, 40 -> 7.7 ms at 14; 2 letters 26 -> 24 ms at 6,
#: 79 -> 68 ms at 7, 233 -> 162 ms at 8, 861 -> 372 ms at 9; 3 letters 37
#: -> 64 ms at 5, 199 -> 261 ms at 6, 1132 -> 1197 ms at 7.  So cold, one
#: letter crosses at 8-9, two letters at 6-7, three at 7 or above.  A
#: second call, on warm coproducts, takes 7-10x longer through log> at 2
#: letters degrees 6-9 and 3 letters 5-7 (2 letters degree 8: 11 -> 94 ms),
#: so a long-running process keeps the direct route up to degree 8.
_FREE_VIA_BOOLEAN_DEGREE = 9


def _logarithm(kind: CumulantKind, max_degree: int):
    """(source, log): log maps a moment character to its cumulants of kind,
    read up to max_degree, as the logarithm of family source converted to
    kind.  Boolean is log>.  Monotone is -O(-log>), the Magnus map of the
    sign-twisted boolean cumulants, at every degree: as fast as log* on 3
    letters at degree 5 and faster on the other measured shapes.  Free is
    log< below _FREE_VIA_BOOLEAN_DEGREE and W(-O(-log>)) from there on."""
    if kind is CumulantKind.FREE and max_degree < _FREE_VIA_BOOLEAN_DEGREE:
        return kind, fn.log_left
    return CumulantKind.BOOLEAN, lambda phi: _convert_functional(
        fn.log_right(phi), CumulantKind.BOOLEAN, kind)


def _exponential(kind: CumulantKind, max_degree: int):
    """(target, exp): exp maps cumulants of kind, read up to max_degree, to
    the moment character, as the exponential of family target after the
    conversion to it.  That is the family's own exponential, except for
    free from _FREE_VIA_BOOLEAN_DEGREE on, which is exp> of the boolean
    cumulants."""
    if kind is CumulantKind.FREE and max_degree >= _FREE_VIA_BOOLEAN_DEGREE:
        return CumulantKind.BOOLEAN, lambda alpha: fn.exp_right(
            _convert_functional(alpha, kind, CumulantKind.BOOLEAN))
    return kind, {CumulantKind.FREE: fn.exp_left, CumulantKind.BOOLEAN: fn.exp_right,
                  CumulantKind.MONOTONE: fn.exp_star}[kind]


def _magnus_scale(kind_from: CumulantKind, kind_to: CumulantKind, max_degree: int) -> int:
    """The extra theta scale of a tree that converts kind_from to kind_to
    up to max_degree.  Every conversion out of free or boolean reads the
    Magnus map, and takes the lcm of its coefficients' denominators, which
    makes its values ints (:func:`magnus._coeff_lcm`); every other tree
    takes 1."""
    if kind_from is kind_to or kind_from is CumulantKind.MONOTONE:
        return 1
    return _coeff_lcm(max_degree)


def cumulant_functional(d: Distribution, kind) -> fn.Functional:
    """The infinitesimal character of the requested family for d's moment
    character phi, built as :func:`to_cumulants` builds it.  Boolean:
    log>(phi).  Monotone: -O(-log>(phi)), the Magnus map of the sign-twisted
    boolean cumulants, which equals log*(phi).  Free: log<(phi) when
    d.max_degree < 9, and W(-O(-log>(phi))), which equals it, from degree 9
    on, where it is the cheaper of the two."""
    _distributions("cumulant_functional takes a Distribution", d)
    _, log = _logarithm(_as_kind(kind), d.max_degree)
    return log(d.character())


def to_cumulants(d: Distribution, kind) -> dict[Word, Fraction]:
    """Cumulants of every word of degree <= max_degree (zeros omitted)."""
    _distributions("to_cumulants takes a Distribution", d)
    kind = _as_kind(kind)
    source, log = _logarithm(kind, d.max_degree)
    D, (moments,) = _scaled((d.moments,), _magnus_scale(source, kind, d.max_degree))
    return _unscaled(log(fn.character(moments)), D, d.letters, d.max_degree)


def from_cumulants(c: Mapping[Word, Fraction], kind, letters, max_degree: int
                   ) -> Distribution:
    """Distribution whose cumulants of the given kind are c: evaluate the
    matching exponential of the infinitesimal character on all words; for
    free from degree 9 on, exp> of the matching boolean cumulants."""
    kind = _as_kind(kind)
    letters = _letters(letters)
    values = _word_map(c, letters, max_degree, drop_above=True)
    target, exp = _exponential(kind, max_degree)
    D, (values,) = _scaled((values,), _magnus_scale(kind, target, max_degree))
    phi = exp(fn.infinitesimal(values))
    return Distribution._built(letters, max_degree, _unscaled(phi, D, letters, max_degree))


def convert(c: Mapping[Word, Fraction], kind_from, kind_to, max_degree: int,
            letters=None) -> dict[Word, Fraction]:
    """Convert a cumulant map between families at the Lie level.

    Monotone and free trade places under the Magnus map and its inverse;
    boolean reaches either by conjugating with a sign twist.  When ``letters``
    is omitted it is inferred from the keys of c of degree <= max_degree; the
    keys above it are dropped.
    """
    kind_from, kind_to = _as_kind(kind_from), _as_kind(kind_to)
    letters = None if letters is None else _letters(letters)
    values = _word_map(c, letters, max_degree, drop_above=True)
    D, (values,) = _scaled((values,), _magnus_scale(kind_from, kind_to, max_degree))
    if letters is None:
        letters = sorted({l for w in c if len(w) <= max_degree for l in w.letters},
                         key=lambda l: (l.name, l.tag))
        if not letters:
            raise ValidationError("cannot infer letters from a cumulant map with no key "
                                  "up to max_degree; pass letters explicitly")
    out = _convert_functional(fn.infinitesimal(values), kind_from, kind_to)
    return _unscaled(out, D, tuple(letters), max_degree)


def _sign_twisted(f):
    """a -> -f(-a)."""
    return lambda alpha: -1 * f(-1 * alpha)


#: Each family's (to monotone, from monotone) maps at the Lie level.
_VIA_MONOTONE = {
    CumulantKind.FREE: (magnus, magnus_inverse),
    CumulantKind.BOOLEAN: (_sign_twisted(magnus), _sign_twisted(magnus_inverse)),
}


def _convert_functional(alpha: fn.Functional, kind_from: CumulantKind,
                        kind_to: CumulantKind) -> fn.Functional:
    if kind_from is kind_to:
        return alpha
    if kind_from is not CumulantKind.MONOTONE:
        alpha = _VIA_MONOTONE[kind_from][0](alpha)
    if kind_to is not CumulantKind.MONOTONE:
        alpha = _VIA_MONOTONE[kind_to][1](alpha)
    return alpha


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
    if table[key] is None:
        coeffs = dict(d.moments)
    else:
        coeffs = to_cumulants(d, table[key])
    return TruncatedSeries(d.letters, d.max_degree, coeffs)
