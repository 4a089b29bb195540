"""Formal linear combinations of two-fold tensors of bar words.

A :class:`TensorSum` stores a map ``(BarWord, BarWord) -> coefficient`` with
no explicit zeros.  Coefficients are exact (int or Fraction).  The product is
componentwise concatenation of bar words,
``(a (x) b) * (a' (x) b') = (a|a') (x) (b|b')``, extended bilinearly — the
multiplication used when a coproduct is extended from words to bar words.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .words import BarWord, EMPTY_BAR

Pair = tuple[BarWord, BarWord]


class TensorSum:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Pair, Fraction] | Iterable[tuple[Pair, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data = {}
        for key, coeff in items:
            if coeff:
                data[key] = data.get(key, 0) + coeff
                if not data[key]:
                    del data[key]
        self.terms = data

    @classmethod
    def _raw(cls, data: dict) -> "TensorSum":
        # Internal: adopt an already-cleaned dict without copying.
        out = object.__new__(cls)
        out.terms = data
        return out

    @classmethod
    def unit(cls) -> "TensorSum":
        """The tensor 1 (x) 1."""
        return cls._raw({(EMPTY_BAR, EMPTY_BAR): 1})

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
        data = dict(self.terms)
        for key, coeff in other.terms.items():
            new = data.get(key, 0) + coeff
            if new:
                data[key] = new
            else:
                data.pop(key, None)
        return TensorSum._raw(data)

    def __sub__(self, other: "TensorSum") -> "TensorSum":
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar) -> "TensorSum":
        if not scalar:
            return TensorSum._raw({})
        return TensorSum._raw({k: scalar * c for k, c in self.terms.items()})

    def bar_mul(self, other: "TensorSum") -> "TensorSum":
        """Componentwise bar product, bilinear in both arguments."""
        data: dict[Pair, Fraction] = {}
        for (a, b), c in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a.concat(a2), b.concat(b2))
                new = data.get(key, 0) + c * c2
                if new:
                    data[key] = new
                else:
                    del data[key]
        return TensorSum._raw(data)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms.items(),
                                key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())):
            coeff = "" if c == 1 else f"{c}*"
            bits.append(f"{coeff}{a!r}(x){b!r}")
        return " + ".join(bits)
