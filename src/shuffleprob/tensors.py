"""Formal linear combinations of two-fold tensors of bar words.

A :class:`TensorSum` stores a map ``(BarWord, BarWord) -> coefficient`` with
no explicit zeros.  Coefficients are exact: the one constructor reads each
by the package's rational rule (``words.parse_rational``), so a float or a
``Decimal`` raises ValidationError, and keeps it as an int when integral,
else a Fraction.  It also merges repeated pairs and drops zero
coefficients.  Every tensor is built by it: sums, scalar multiples (the
scalar read by the same rule), bar products, the unit and the public
coproducts of :mod:`.coproducts`.  Sums and bar products take tensors
only, and refuse anything else with TypeError.  The product is
componentwise concatenation of bar words,
``(a (x) b) * (a' (x) b') = (a|a') (x) (b|b')``, extended bilinearly — the
multiplication used when a coproduct is extended from words to bar words.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain

from .words import BarWord, EMPTY_BAR, _exact

Pair = tuple[BarWord, BarWord]


class TensorSum:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Pair, Fraction] | Iterable[tuple[Pair, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data = {}
        for key, coeff in items:
            coeff = _exact(coeff)
            if coeff:
                data[key] = data.get(key, 0) + coeff
                if not data[key]:
                    del data[key]
        self.terms = data

    @classmethod
    def unit(cls) -> "TensorSum":
        """The tensor 1 (x) 1."""
        return cls({(EMPTY_BAR, EMPTY_BAR): 1})

    def coefficient(self, left: BarWord, right: BarWord):
        return self.terms.get((left, right), 0)

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, TensorSum) and self.terms == other.terms

    def __add__(self, other: "TensorSum") -> "TensorSum":
        if not isinstance(other, TensorSum):
            return NotImplemented
        return TensorSum(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "TensorSum") -> "TensorSum":
        if not isinstance(other, TensorSum):
            return NotImplemented
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar) -> "TensorSum":
        scalar = _exact(scalar)
        return TensorSum({k: scalar * c for k, c in self.terms.items()})

    def bar_mul(self, other: "TensorSum") -> "TensorSum":
        """Componentwise bar product, bilinear in both arguments."""
        if not isinstance(other, TensorSum):
            raise TypeError(f"bar_mul takes a TensorSum, got {type(other).__name__}")
        return TensorSum(((a.concat(a2), b.concat(b2)), c * c2)
                         for (a, b), c in self.terms.items()
                         for (a2, b2), c2 in other.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms.items(),
                                key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())):
            coeff = "" if c == 1 else f"{c}*"
            bits.append(f"{coeff}{a!r}(x){b!r}")
        return " + ".join(bits)
