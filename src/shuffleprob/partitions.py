"""Set-partition moment formulas, kept independent of the algebraic engine.

This module is the validation oracle: cumulant-to-moment sums over all /
non-crossing / interval set partitions, with the tree-factorial weight for
the monotone family, and three cumulant-to-cumulant sums over the
irreducible non-crossing partitions.  Nothing here touches coproducts or
functionals, so a bug would have to be reproduced twice, combinatorially and
algebraically, to go unnoticed.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import DomainError
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

    def is_non_crossing(self) -> bool:
        # Two blocks cross iff, scanning their union, block membership
        # alternates at least four times (pattern x..y..x..y).
        blocks = self.blocks
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                merged = sorted((p, 0) for p in blocks[i]) + sorted((p, 1) for p in blocks[j])
                merged.sort()
                switches = 1
                last = merged[0][1]
                for _, src in merged[1:]:
                    if src != last:
                        switches += 1
                        last = src
                if switches >= 4:
                    return False
        return True

    def nesting_parents(self) -> list[int | None]:
        """Index of the innermost block strictly nesting each block.

        Only meaningful for non-crossing partitions, where the blocks nesting
        a given one are totally ordered by their spans.
        """
        parents: list[int | None] = []
        for i, b in enumerate(self.blocks):
            best = None
            for j, other in enumerate(self.blocks):
                if j == i:
                    continue
                if other[0] < b[0] and other[-1] > b[-1]:
                    if best is None or other[0] > self.blocks[best][0]:
                        best = j
            parents.append(best)
        return parents


def tree_factorial(partition: SetPartition) -> int:
    """Forest factorial of the nesting forest of a non-crossing partition:
    the product, over blocks, of the number of blocks in the subtree hanging
    from (and including) that block."""
    if not partition.is_non_crossing():
        raise DomainError("tree factorial is defined for non-crossing partitions only")
    parents = partition.nesting_parents()
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
    """All set partitions of [n] in the family, via restricted-growth strings."""
    if not 1 <= n <= MAX_N:
        raise DomainError(f"partition enumeration supports 1 <= n <= {MAX_N}, got {n}")
    out = []
    labels = [0] * n

    def grow(i: int, top: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(top + 1)]
            for pos in range(n):
                blocks[labels[pos]].append(pos + 1)
            p = SetPartition(n, blocks)
            if family is PartitionFamily.NON_CROSSING and not p.is_non_crossing():
                return
            if family is PartitionFamily.INTERVAL and not p.is_interval():
                return
            out.append(p)
            return
        for lab in range(top + 2):
            labels[i] = lab
            grow(i + 1, max(top, lab))

    labels[0] = 0
    grow(1, 0)
    return tuple(out)


def oracle_moments(cumulants: Mapping[Word, Fraction], kind, w: Word) -> Fraction:
    """Moment of a word from a cumulant map, by direct partition summation.

    ``kind`` is "free" (non-crossing sum), "boolean" (interval sum) or
    "monotone" (non-crossing sum weighted by inverse tree factorials); the
    corresponding enum values are accepted too.  Missing cumulant entries
    count as zero.  The block cumulant of a block V is the cumulant of the
    subword of ``w`` at the positions of V.
    """
    kind = getattr(kind, "value", kind)
    n = len(w)
    if n == 0:
        return Fraction(1)
    if kind == "free":
        parts, weighted = enumerate_partitions(n, PartitionFamily.NON_CROSSING), False
    elif kind == "boolean":
        parts, weighted = enumerate_partitions(n, PartitionFamily.INTERVAL), False
    elif kind == "monotone":
        parts, weighted = enumerate_partitions(n, PartitionFamily.NON_CROSSING), True
    else:
        raise DomainError(f"unknown cumulant kind {kind!r}")
    total = Fraction(0)
    for p in parts:
        prod = _block_product(cumulants, w, p)
        if prod:
            total += Fraction(prod, tree_factorial(p)) if weighted else prod
    return total


def _block_product(cumulants: Mapping[Word, Fraction], w: Word, p: SetPartition):
    """The product over the blocks V of p of the cumulant of w's subword at V."""
    prod = Fraction(1)
    for block in p.blocks:
        c = cumulants.get(w.subword(block), 0)
        if not c:
            return 0
        prod *= c
    return prod


#: The weight of an irreducible partition pi in each cumulant-to-cumulant
#: sum: Lehner (2002) and Belinschi-Nica (2008) for free <-> boolean,
#: Arizmendi-Hasebe-Lehner-Vargas (2015), Thm 1.1, for monotone -> boolean.
_CONVERT_WEIGHTS = {
    ("free", "boolean"): lambda p: 1,
    ("boolean", "free"): lambda p: -1 if len(p.blocks) % 2 == 0 else 1,
    ("monotone", "boolean"): lambda p: Fraction(1, tree_factorial(p)),
}


def oracle_convert(cumulants: Mapping[Word, Fraction], kind_from, kind_to,
                   w: Word) -> Fraction:
    """Cumulant of w of kind_to from a cumulant map of kind_from, by direct
    summation over NC_irr(n), the non-crossing partitions of [n] with 1 and
    n in one block:

        boolean from free:      b(w) = sum kappa_pi(w)
        free from boolean:      kappa(w) = sum (-1)^(|pi| - 1) b_pi(w)
        boolean from monotone:  b(w) = sum h_pi(w) / tau(pi)!

    Block values are read as in :func:`oracle_moments`.  The other pairs of
    kinds have no such formula here and raise DomainError.
    """
    pair = (getattr(kind_from, "value", kind_from), getattr(kind_to, "value", kind_to))
    weight = _CONVERT_WEIGHTS.get(pair)
    if weight is None:
        raise DomainError(f"no partition formula for {pair[0]} to {pair[1]} cumulants")
    n = len(w)
    total = Fraction(0)
    if n == 0:
        return total
    for p in enumerate_partitions(n, PartitionFamily.NON_CROSSING):
        if p.blocks[0][-1] == n:  # the block of 1 holds n
            prod = _block_product(cumulants, w, p)
            if prod:
                total += weight(p) * prod
    return total


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
