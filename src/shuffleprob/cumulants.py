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

The distribution API (:func:`to_cumulants`, :func:`from_cumulants`,
:func:`convert`, and the distribution-level products of :mod:`products`)
evaluates on scaled inputs.  Every term of the unshuffle coproduct keeps the
degree, so the grading automorphism theta_D : w -> D^|w| w commutes with
every construction of :mod:`functionals` and :mod:`magnus`.  Each entry
point takes D as the lcm of its input denominators, builds its leaves on
the integers D^|w| v, evaluates the same tree in int arithmetic (bar the
series coefficients), and divides each value by D^|w| once, so every
result is a ``Fraction``.  The public constructors, :func:`cumulant_functional`
and :meth:`Distribution.character` build unscaled trees.

Input follows one rule each, and :mod:`shuffleprob.io` reads its files by
the same rules: a value by ``functionals.parse_rational``, a max_degree by
:func:`_degree`, and the keys of a moment map, a library cumulant map, a
cumulant file or the coefficients of a :class:`TruncatedSeries` by
:func:`_word_map`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import functionals as fn
from .errors import ValidationError
from .magnus import magnus, magnus_inverse
from .words import EMPTY_WORD, Letter, Word, words_up_to


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


@dataclass(frozen=True)
class Distribution:
    """Moments of a family of non-commutative random variables, one letter
    per variable, for every word of degree <= max_degree (absent words have
    moment 0; the empty word implicitly has moment 1)."""

    letters: tuple[Letter, ...]
    max_degree: int
    moments: Mapping[Word, Fraction]

    def __post_init__(self):
        letters = tuple(self.letters)
        if not letters:
            raise ValidationError("a distribution needs at least one letter")
        if not all(isinstance(l, Letter) for l in letters):
            raise ValidationError("the letters of a distribution must be Letters")
        if len(set(letters)) != len(letters):
            raise ValidationError("duplicate letters in distribution")
        moments = self.moments
        if EMPTY_WORD in moments:
            moments = dict(moments)
            if fn.parse_rational(moments.pop(EMPTY_WORD)) != 1:
                raise ValidationError("the empty word always has moment 1")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "moments", _word_map(moments, letters, self.max_degree))

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


#: Each family as the (exponential, logarithm) pair linking its cumulants
#: with the moment character.
_EXP_LOG = {
    CumulantKind.FREE: (fn.exp_left, fn.log_left),
    CumulantKind.BOOLEAN: (fn.exp_right, fn.log_right),
    CumulantKind.MONOTONE: (fn.exp_star, fn.log_star),
}


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
    for w in words_up_to(letters, max_degree):
        v = phi(w)
        if v:
            out[w] = Fraction(v, D ** len(w))
    return out


def _unscaled_distribution(phi: fn.Functional, D: int, d: Distribution) -> Distribution:
    return Distribution(d.letters, d.max_degree, _unscaled(phi, D, d.letters, d.max_degree))


def _degree(n) -> int:
    """n, the one rule for a max_degree: a positive int, not a bool."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError("max_degree must be a positive integer")
    return n


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


def cumulant_functional(d: Distribution, kind) -> fn.Functional:
    """The infinitesimal character of the requested family for d's moment
    character (free: log<, boolean: log>, monotone: log*)."""
    log = _EXP_LOG[_as_kind(kind)][1]
    return log(d.character())


def to_cumulants(d: Distribution, kind) -> dict[Word, Fraction]:
    """Cumulants of every word of degree <= max_degree (zeros omitted)."""
    log = _EXP_LOG[_as_kind(kind)][1]
    D, (moments,) = _scaled((d.moments,))
    return _unscaled(log(fn.character(moments)), D, d.letters, d.max_degree)


def from_cumulants(c: Mapping[Word, Fraction], kind, letters, max_degree: int
                   ) -> Distribution:
    """Distribution whose cumulants of the given kind are c: evaluate the
    matching exponential of the infinitesimal character on all words."""
    exp = _EXP_LOG[_as_kind(kind)][0]
    letters = tuple(letters)
    D, (values,) = _scaled((_word_map(c, letters, max_degree, drop_above=True),))
    phi = exp(fn.infinitesimal(values))
    return Distribution(letters, max_degree, _unscaled(phi, D, letters, max_degree))


def convert(c: Mapping[Word, Fraction], kind_from, kind_to, max_degree: int,
            letters=None) -> dict[Word, Fraction]:
    """Convert a cumulant map between families at the Lie level.

    Monotone and free trade places under the Magnus map and its inverse;
    boolean reaches either by conjugating with a sign twist.  When ``letters``
    is omitted it is inferred from the keys of c.
    """
    kind_from, kind_to = _as_kind(kind_from), _as_kind(kind_to)
    letters = None if letters is None else tuple(letters)
    D, (values,) = _scaled((_word_map(c, letters, max_degree, drop_above=True),))
    if letters is None:
        letters = sorted({l for w in c for l in w.letters}, key=lambda l: (l.name, l.tag))
        if not letters:
            raise ValidationError("cannot infer letters from an empty cumulant map; "
                                  "pass letters explicitly")
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
    anything beyond the truncation degree.
    """

    __slots__ = ("letters", "max_degree", "coefficients")

    def __init__(self, letters, max_degree: int, coefficients: Mapping[Word, Fraction]):
        self.letters = tuple(letters)
        self.max_degree = _degree(max_degree)
        self.coefficients = _word_map(coefficients, self.letters, max_degree, drop_above=True)

    def coefficient(self, w: Word) -> Fraction:
        return self.coefficients.get(w, Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.max_degree == other.max_degree
                and self.coefficients == other.coefficients)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.coefficients)
        for w, v in other.coefficients.items():
            out[w] = out.get(w, 0) + v
        return TruncatedSeries(self.letters, self.max_degree, out)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out: dict[Word, Fraction] = {}
        n = self.max_degree
        for u, cu in self.coefficients.items():
            for v, cv in other.coefficients.items():
                if len(u) + len(v) <= n:
                    key = u.concat(v)
                    out[key] = out.get(key, 0) + cu * cv
        return TruncatedSeries(self.letters, self.max_degree, out)

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
    table = {"m": None, "r": CumulantKind.FREE, "eta": CumulantKind.BOOLEAN}
    key = str(which).lower()
    if key not in table:
        raise ValidationError(f"unknown series {which!r}; expected M, R or eta")
    if table[key] is None:
        coeffs = dict(d.moments)
    else:
        coeffs = to_cumulants(d, table[key])
    return TruncatedSeries(d.letters, d.max_degree, coeffs)
