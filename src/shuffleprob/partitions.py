"""Set-partition moment formulas, kept independent of the algebraic engine.

This module is the validation oracle: cumulant-to-moment sums over all /
non-crossing / interval set partitions, with the tree-factorial weight for
the monotone family, and three cumulant-to-cumulant sums over the
irreducible non-crossing partitions.  Nothing here touches coproducts or
functionals, so a bug would have to be reproduced twice, combinatorially and
algebraically, to go unnoticed.

The sums run in plain ints.  The partitions of each sum are laid out once
per degree, as their distinct blocks, and each call reads every block value
of its word once.  A value must be an int or a Fraction (a float would be
read as its binary expansion), else ValidationError.  The values are scaled
to one common denominator, the weights to another, and each call builds one
Fraction, through the public constructor.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import DomainError, ValidationError
from .words import Word

MAX_N = 10  # Bell(10) = 115975; the oracle is never needed beyond that


class PartitionFamily(enum.Enum):
    ALL = "all"
    NON_CROSSING = "non-crossing"
    INTERVAL = "interval"


class SetPartition:
    """A partition of {1,...,n}: disjoint nonempty sorted blocks, sorted by min."""

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        seen = [i for b in blocks for i in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise DomainError(f"blocks {blocks} do not partition [{n}]")
        self.n = n
        self.blocks = blocks
        self._hash = hash((n, blocks))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, SetPartition) and (self.n, self.blocks) == (other.n, other.blocks)

    def __repr__(self):
        inner = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"SetPartition({self.n}, {inner})"

    def is_interval(self) -> bool:
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)

    def _nesting(self) -> list[int | None] | None:
        """One scan of [n], in which each block opens at its first point and
        closes at its last: for each block, the innermost block open when
        it opens, or None if two blocks cross, which they do iff some point
        returns to a block that is not the innermost open one."""
        label = {}
        for k, b in enumerate(self.blocks):
            label.update(dict.fromkeys(b, k))
        parents: list[int | None] = []
        stack: list[int] = []
        for i in range(1, self.n + 1):
            k = label[i]
            b = self.blocks[k]
            if i == b[0]:
                parents.append(stack[-1] if stack else None)
                stack.append(k)
            elif stack[-1] != k:
                return None
            if i == b[-1]:
                stack.pop()
        return parents

    def is_non_crossing(self) -> bool:
        return self._nesting() is not None

    def nesting_parents(self) -> list[int | None]:
        """Index of the innermost block strictly nesting each block.

        Defined for non-crossing partitions only, where the blocks open at
        a block's first point are those nesting it; a crossing partition
        raises DomainError.
        """
        parents = self._nesting()
        if parents is None:
            raise DomainError("nesting parents are defined for non-crossing partitions only")
        return parents


def tree_factorial(partition: SetPartition) -> int:
    """Forest factorial of the nesting forest of a non-crossing partition:
    the product, over blocks, of the number of blocks in the subtree hanging
    from (and including) that block."""
    parents = partition._nesting()
    if parents is None:
        raise DomainError("tree factorial is defined for non-crossing partitions only")
    k = len(partition.blocks)
    sizes = [1] * k
    # Children have strictly larger minima than their parent, so a reversed
    # min-sorted sweep accumulates subtree sizes bottom-up.
    for i in range(k - 1, -1, -1):
        p = parents[i]
        if p is not None:
            sizes[p] += sizes[i]
    return math.prod(sizes)


@lru_cache(maxsize=16)
def enumerate_partitions(n: int, family: PartitionFamily = PartitionFamily.ALL
                         ) -> tuple[SetPartition, ...]:
    """All set partitions of [n] in the family, via restricted-growth strings.

    Each position joins an open block, in label order, or opens a new one,
    so only the strings of the family are grown.  Every block is open in the
    full family.  In the non-crossing family, joining a block closes the
    blocks opened after it, since a later position in one of them would
    cross it; in the interval family only the newest block is open.
    """
    if not 1 <= n <= MAX_N:
        raise DomainError(f"partition enumeration supports 1 <= n <= {MAX_N}, got {n}")
    out = []
    labels = [0] * n

    def grow(i: int, top: int, open_: tuple):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(top + 1)]
            for pos in range(n):
                blocks[labels[pos]].append(pos + 1)
            out.append(SetPartition(n, blocks))
            return
        for k, lab in enumerate(open_):
            labels[i] = lab
            grow(i + 1, top, open_ if family is PartitionFamily.ALL else open_[:k + 1])
        labels[i] = top + 1
        grow(i + 1, top + 1,
             (top + 1,) if family is PartitionFamily.INTERVAL else open_ + (top + 1,))

    labels[0] = 0
    grow(1, 0, (0,))
    return tuple(out)


#: Each oracle sum: its family, whether it runs over the irreducible
#: partitions only (1 and n in one block), and the weight of a partition.
#: The moment sums are keyed by kind, the cumulant-to-cumulant sums by
#: (kind from, kind to): Lehner (2002) and Belinschi-Nica (2008) for
#: free <-> boolean, Arizmendi-Hasebe-Lehner-Vargas (2015), Thm 1.1, for
#: monotone -> boolean.
_SUMS = {
    "free": (PartitionFamily.NON_CROSSING, False, lambda p: 1),
    "boolean": (PartitionFamily.INTERVAL, False, lambda p: 1),
    "monotone": (PartitionFamily.NON_CROSSING, False,
                 lambda p: Fraction(1, tree_factorial(p))),
    ("free", "boolean"): (PartitionFamily.NON_CROSSING, True, lambda p: 1),
    ("boolean", "free"): (PartitionFamily.NON_CROSSING, True,
                          lambda p: -1 if len(p.blocks) % 2 == 0 else 1),
    ("monotone", "boolean"): (PartitionFamily.NON_CROSSING, True,
                              lambda p: Fraction(1, tree_factorial(p))),
}


@lru_cache(maxsize=64)  # every (n, sum) the oracle uses
def _layout(n: int, key):
    """The partitions of [n] that the sum ``_SUMS[key]`` runs over, laid out
    once: the distinct blocks, each as its 0-based positions; for each
    partition the indices of its blocks among them, n minus its number of
    blocks, and the numerator of its weight; and the weights' common
    denominator, the lcm of theirs."""
    family, irreducible, weight = _SUMS[key]
    index: dict[tuple[int, ...], int] = {}
    rows = []
    for p in enumerate_partitions(n, family):
        if irreducible and p.blocks[0][-1] != n:
            continue
        ids = tuple(index.setdefault(b, len(index)) for b in p.blocks)
        rows.append((ids, *weight(p).as_integer_ratio()))
    scale = math.lcm(*(den for _, _, den in rows))
    return (tuple(tuple(i - 1 for i in b) for b in index),
            tuple((ids, n - len(ids), num * (scale // den)) for ids, num, den in rows), scale)


def _oracle_sum(cumulants: Mapping[Word, Fraction], w: Word, key) -> Fraction:
    """The sum ``_SUMS[key]`` at w, in ints over one common denominator.

    The cumulant of a block is that of w's subword at its positions, 0 where
    it is missing; a word is the tuple of its letters, so the plain tuple of
    the letters looks up the same entry.  Each block value is read once, and
    must be an int or a Fraction.  With D the lcm of their denominators and a
    the numerators scaled to D, a partition with k blocks adds its weight's
    numerator times D^(n - k) times the product of its blocks' a, and the one
    Fraction built divides the total by D^n and the weights' denominator."""
    n = len(w)
    blocks, rows, scale = _layout(n, key)
    get, letter = cumulants.get, w.__getitem__
    ratios = []
    for b in blocks:
        sub = tuple(map(letter, b))
        v = get(sub, 0)
        if not isinstance(v, (int, Fraction)):
            raise ValidationError(f"the value at {Word(sub)!r} must be an int or a "
                                  f"Fraction, got {type(v).__name__}")
        ratios.append(v.as_integer_ratio())
    d = math.lcm(*(q for p, q in ratios if p))
    nums = [p * (d // q) for p, q in ratios]
    power = [d ** j for j in range(n)]
    total = sum(math.prod(map(nums.__getitem__, ids), start=wt * power[j])
                for ids, j, wt in rows)
    return Fraction(total, scale * d ** n)


def oracle_moments(cumulants: Mapping[Word, Fraction], kind, w: Word) -> Fraction:
    """Moment of a word from a cumulant map, by direct partition summation.

    ``kind`` is "free" (non-crossing sum), "boolean" (interval sum) or
    "monotone" (non-crossing sum weighted by inverse tree factorials); the
    corresponding enum values are accepted too.  Missing cumulant entries
    count as zero.  The block cumulant of a block V is the cumulant of the
    subword of ``w`` at the positions of V; every block value read must be
    an int or a Fraction, else ValidationError.  The sum runs in ints over
    one common denominator, and one Fraction is built per call.
    """
    kind = getattr(kind, "value", kind)
    if kind not in ("free", "boolean", "monotone"):
        raise DomainError(f"unknown cumulant kind {kind!r}")
    return _oracle_sum(cumulants, w, kind) if w else Fraction(1)


def oracle_convert(cumulants: Mapping[Word, Fraction], kind_from, kind_to,
                   w: Word) -> Fraction:
    """Cumulant of w of kind_to from a cumulant map of kind_from, by direct
    summation over NC_irr(n), the non-crossing partitions of [n] with 1 and
    n in one block:

        boolean from free:      b(w) = sum kappa_pi(w)
        free from boolean:      kappa(w) = sum (-1)^(|pi| - 1) b_pi(w)
        boolean from monotone:  b(w) = sum h_pi(w) / tau(pi)!

    Block values are read, and summed, as in :func:`oracle_moments`.  The
    other pairs of kinds have no such formula here and raise DomainError.
    """
    pair = (getattr(kind_from, "value", kind_from), getattr(kind_to, "value", kind_to))
    if pair not in _SUMS:
        raise DomainError(f"no partition formula for {pair[0]} to {pair[1]} cumulants")
    return _oracle_sum(cumulants, w, pair) if w else Fraction(0)


def bell_number(n: int) -> int:
    """Bell numbers by the triangle recurrence (for enumeration cross-checks)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)
