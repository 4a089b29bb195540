"""Machine checks of the coalgebra structure on basis bar words.

Verified on every basis word and bar word up to a degree bound:

- coassociativity and the two counit laws of the full coproduct;
- the splitting of the full coproduct into the two unreduced halves;
- the three half-coproduct coassociativity axioms of the reduced halves
  (left-left, mixed, right-right);
- the module compatibilities: a half-coproduct of a bar product is the half
  on its first word times the full coproduct of each later word.  Since
  :mod:`.coproducts` builds it as that product, the check compares it with
  an expansion written here, from one position subset per word.  Each
  word's subsets are built once per check, and the expansion keys its terms
  by the plain tuples of the words of their legs, so it builds no bar word.

Three-fold tensors are assembled as plain dicts keyed by bar-word triples;
only arity three is ever needed.  Two-fold ones are keyed by the pair of
the legs' tuples of words.
"""

from __future__ import annotations

import itertools

from .coproducts import Side, _terms
from .errors import DomainError
from .reporting import CheckResult, Report
from .words import BarWord, Word, all_barwords


def _triple(terms: tuple, right: bool, side: Side, mode: str) -> dict:
    """Apply a coproduct to the left or the right leg of each of the flat
    terms: the three-fold tensor sum of c * c2 * (that leg split in place)."""
    out: dict = {}
    for x, y, c in terms:
        for u, v, c2 in _terms(y if right else x, side, mode):
            key = (x, u, v) if right else (u, v, y)
            newc = out.get(key, 0) + c * c2
            if newc:
                out[key] = newc
            else:
                del out[key]
    return out


def _tensor(*entries: tuple) -> dict:
    """The sum of the flat terms of entries, keyed by the words of their
    legs, (x.words, y.words); the coefficients of a side are positive, so
    none cancels."""
    out: dict = {}
    for x, y, c in itertools.chain(*entries):
        key = x.words, y.words
        out[key] = out.get(key, 0) + c
    return out


def _counit_side(terms: tuple, left: bool) -> dict:
    """Project the chosen leg to degree zero and collect the other leg."""
    out: dict = {}
    for x, y, c in terms:
        if left and not x.words:
            out[y] = out.get(y, 0) + c
        elif not left and not y.words:
            out[x] = out.get(x, 0) + c
    return {k: v for k, v in out.items() if v}


def _subsets(w: Word, first: bool, side: Side) -> list:
    """The position subsets of w, each as (the picked letters as a tuple of
    one word, or the empty tuple if none; the maximal runs of the rest).
    As the first word of a product, w holds its first position on the left
    side and avoids it on the right."""
    n, out = len(w), []
    for mask in range(1 << n):
        if first and bool(mask & 1) != (side is Side.LEFT):
            continue
        picked = tuple(w[i] for i in range(n) if mask >> i & 1)
        runs = tuple(tuple(w[i] for i in run) for kept, run in
                     itertools.groupby(range(n), key=lambda i: mask >> i & 1) if not kept)
        out.append(((picked,) if picked else (), runs))
    return out


def _expansion(b: BarWord, side: Side, subsets: dict) -> dict:
    """The terms of a half-coproduct on the bar product b, summed from
    position subsets without :mod:`.coproducts`: one subset per word, the
    first word's holding its first position on the left side and avoiding
    it on the right.  The picked letters of each word make the left bar
    word, the maximal runs of the rest the right bar word.  A term is keyed
    by the pair of plain tuples of the words of its legs, as in
    :func:`_tensor`, and no bar word is built.  ``subsets`` caches each
    word's subsets by (word, whether it is the first) across the bar words
    of one check."""
    out = {((), ()): 1}
    for k, w in enumerate(b.words):
        choices = subsets.get((w, k == 0))
        if choices is None:
            choices = subsets[w, k == 0] = _subsets(w, k == 0, side)
        grown: dict = {}
        for (xs, ys), c in out.items():
            for x, runs in choices:
                key = (xs + x, ys + runs)
                grown[key] = grown.get(key, 0) + c
        out = grown
    return out


def check_axioms(letters, max_degree: int) -> Report:
    """Run the whole coalgebra suite; each identity reports its first
    counterexample (in graded order) or a pass."""
    report = Report("coalgebra")
    letters = tuple(letters)
    bars = all_barwords(letters, max_degree)

    def find(name, predicate):
        """predicate(b): None, or the (b, lhs, rhs) witness of a failure at b."""
        fail = None
        for b in bars:
            try:
                fail = predicate(b)
            except DomainError as exc:
                # A corrupted half-coproduct can push a unit onto a leg where
                # the reduced maps are undefined; that is itself a failure.
                fail = (b, str(exc), "well-defined legs")
            if fail is not None:
                break
        report.add(CheckResult.from_mismatch(name, fail))

    def counit_law(b):
        full = _terms(b, Side.FULL, "all")
        for left in (True, False):
            got = _counit_side(full, left)
            if got != {b: 1}:
                return b, got, {b: 1}
        return None

    find("counit-laws", counit_law)

    def split(b):
        full = _tensor(_terms(b, Side.FULL, "all"))
        halves = _tensor(_terms(b, Side.LEFT, "all"), _terms(b, Side.RIGHT, "all"))
        if full != halves:
            return b, f"{len(full)} terms", f"{len(halves)} terms (half sum)"
        return None

    find("coproduct-splits-into-halves", split)

    def coassociative(name, mode, lhs, rhs, notes):
        """(inner (x) id) o outer against (id (x) inner) o outer, with lhs and
        rhs each an (outer, inner) pair of sides, on the terms of mode."""
        def check(b):
            split_left = _triple(_terms(b, lhs[0], mode), False, lhs[1], mode)
            split_right = _triple(_terms(b, rhs[0], mode), True, rhs[1], mode)
            return (b, *notes) if split_left != split_right else None
        find(name, check)

    L, R, F = Side.LEFT, Side.RIGHT, Side.FULL
    coassociative("coassociativity", "all", (F, F), (F, F),
                  ("(D (x) id) o D", "(id (x) D) o D"))
    # Reduced-half axioms: left-left, mixed, right-right.
    coassociative("half-unshuffle-coassoc-left", "reduced", (L, L), (L, F),
                  ("(Dl (x) id) o Dl", "(id (x) Dbar) o Dl"))
    coassociative("half-unshuffle-coassoc-mixed", "reduced", (L, R), (R, L),
                  ("(Dr (x) id) o Dl", "(id (x) Dl) o Dr"))
    coassociative("half-unshuffle-coassoc-right", "reduced", (R, F), (R, R),
                  ("(Dbar (x) id) o Dr", "(id (x) Dr) o Dr"))

    # Module compatibilities on the bar products of bounded total degree.
    def product_compat(side: Side):
        subsets: dict = {}

        def check(b):
            if len(b.words) > 1 and (_tensor(_terms(b, side, "all"))
                                     != _expansion(b, side, subsets)):
                return b, "half of product", "half (x) full, multiplied"
            return None
        return check

    find("product-compat-left", product_compat(Side.LEFT))
    find("product-compat-right", product_compat(Side.RIGHT))

    return report
