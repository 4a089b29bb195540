"""Machine checks of the coalgebra structure on basis bar words.

Verified on every basis word and bar word up to a degree bound:

- coassociativity and the two counit laws of the full coproduct;
- the splitting of the full coproduct into the two unreduced halves;
- the three half-coproduct coassociativity axioms of the reduced halves
  (left-left, mixed, right-right);
- the module compatibilities: a half-coproduct of a bar product is the half
  on the first factor times the full coproduct of the second.

Three-fold tensors are assembled as plain dicts keyed by bar-word triples;
only arity three is ever needed.
"""

from __future__ import annotations

from .coproducts import Side, unshuffle_bar
from .errors import DomainError
from .reporting import CheckResult, Report
from .tensors import TensorSum
from .words import all_barwords


def _triple(ts: TensorSum, right: bool, side: Side, reduced: bool) -> dict:
    """Apply a coproduct to the left or the right leg of each term: the
    three-fold tensor sum of c * c2 * (that leg split in place)."""
    out: dict = {}
    for (x, y), c in ts:
        for (u, v), c2 in unshuffle_bar(y if right else x, side, reduced):
            key = (x, u, v) if right else (u, v, y)
            newc = out.get(key, 0) + c * c2
            if newc:
                out[key] = newc
            else:
                del out[key]
    return out


def _counit_side(ts: TensorSum, left: bool) -> dict:
    """Project the chosen leg to degree zero and collect the other leg."""
    out: dict = {}
    for (x, y), c in ts:
        if left and not x.words:
            out[y] = out.get(y, 0) + c
        elif not left and not y.words:
            out[x] = out.get(x, 0) + c
    return {k: v for k, v in out.items() if v}


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
        full = unshuffle_bar(b, Side.FULL)
        for left in (True, False):
            got = _counit_side(full, left)
            if got != {b: 1}:
                return b, got, {b: 1}
        return None

    find("counit-laws", counit_law)

    def split(b):
        full = unshuffle_bar(b, Side.FULL)
        halves = unshuffle_bar(b, Side.LEFT) + unshuffle_bar(b, Side.RIGHT)
        if full != halves:
            return b, f"{len(full)} terms", f"{len(halves)} terms (half sum)"
        return None

    find("coproduct-splits-into-halves", split)

    def coassociative(name, reduced, lhs, rhs, notes):
        """(inner (x) id) o outer against (id (x) inner) o outer, with lhs and
        rhs each an (outer, inner) pair of sides."""
        def check(b):
            split_left = _triple(unshuffle_bar(b, lhs[0], reduced), False, lhs[1], reduced)
            split_right = _triple(unshuffle_bar(b, rhs[0], reduced), True, rhs[1], reduced)
            return (b, *notes) if split_left != split_right else None
        find(name, check)

    L, R, F = Side.LEFT, Side.RIGHT, Side.FULL
    coassociative("coassociativity", False, (F, F), (F, F),
                  ("(D (x) id) o D", "(id (x) D) o D"))
    # Reduced-half axioms: left-left, mixed, right-right.
    coassociative("half-unshuffle-coassoc-left", True, (L, L), (L, F),
                  ("(Dl (x) id) o Dl", "(id (x) Dbar) o Dl"))
    coassociative("half-unshuffle-coassoc-mixed", True, (L, R), (R, L),
                  ("(Dr (x) id) o Dl", "(id (x) Dl) o Dr"))
    coassociative("half-unshuffle-coassoc-right", True, (R, F), (R, R),
                  ("(Dbar (x) id) o Dr", "(id (x) Dr) o Dr"))

    # Module compatibilities on bar products a|b of bounded total degree.
    def product_compat(side: Side):
        for a in bars:
            room = max_degree - a.degree
            for b in bars:  # graded by degree: nothing later fits either
                if b.degree > room:
                    break
                lhs = unshuffle_bar(a.concat(b), side)
                rhs = unshuffle_bar(a, side).bar_mul(unshuffle_bar(b, Side.FULL))
                if lhs != rhs:
                    return a.concat(b), "half of product", "half (x) full, multiplied"
        return None

    for side, name in ((Side.LEFT, "product-compat-left"), (Side.RIGHT, "product-compat-right")):
        report.add(CheckResult.from_mismatch(name, product_compat(side)))

    return report
