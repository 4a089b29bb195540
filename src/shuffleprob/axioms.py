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


def _triple_left(ts: TensorSum, side: Side, reduced: bool) -> dict:
    """Apply a coproduct to the left legs: sum c * (split x) (x) y."""
    out: dict = {}
    for (x, y), c in ts:
        for (u, v), c2 in unshuffle_bar(x, side, reduced):
            key = (u, v, y)
            newc = out.get(key, 0) + c * c2
            if newc:
                out[key] = newc
            else:
                del out[key]
    return out


def _triple_right(ts: TensorSum, side: Side, reduced: bool) -> dict:
    out: dict = {}
    for (x, y), c in ts:
        for (u, v), c2 in unshuffle_bar(y, side, reduced):
            key = (x, u, v)
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
        for b in bars:
            try:
                fail = predicate(b)
            except DomainError as exc:
                # A corrupted half-coproduct can push a unit onto a leg where
                # the reduced maps are undefined; that is itself a failure.
                fail = {"element": repr(b), "lhs": str(exc), "rhs": "well-defined legs"}
            if fail is not None:
                report.add(CheckResult(name, "fail", fail))
                return
        report.add(CheckResult.ok(name))

    def witness(b, note):
        return {"element": repr(b), "lhs": note[0], "rhs": note[1]}

    def counit_law(b):
        full = unshuffle_bar(b, Side.FULL)
        lhs = _counit_side(full, left=True)
        rhs = _counit_side(full, left=False)
        if lhs != {b: 1}:
            return witness(b, (repr(lhs), f"{{{b!r}: 1}}"))
        if rhs != {b: 1}:
            return witness(b, (repr(rhs), f"{{{b!r}: 1}}"))
        return None

    find("counit-laws", counit_law)

    def split(b):
        full = unshuffle_bar(b, Side.FULL)
        halves = unshuffle_bar(b, Side.LEFT) + unshuffle_bar(b, Side.RIGHT)
        if full != halves:
            return witness(b, (f"{len(full)} terms", f"{len(halves)} terms (half sum)"))
        return None

    find("coproduct-splits-into-halves", split)

    def coassoc(b):
        full = unshuffle_bar(b, Side.FULL)
        lhs = _triple_left(full, Side.FULL, False)
        rhs = _triple_right(full, Side.FULL, False)
        if lhs != rhs:
            return witness(b, ("(D (x) id) o D", "(id (x) D) o D"))
        return None

    find("coassociativity", coassoc)

    # Reduced-half axioms: left-left, mixed, right-right.
    def axiom_left_left(b):
        prec = unshuffle_bar(b, Side.LEFT, reduced=True)
        lhs = _triple_left(prec, Side.LEFT, True)
        rhs = _triple_right(prec, Side.FULL, True)
        if lhs != rhs:
            return witness(b, ("(Dl (x) id) o Dl", "(id (x) Dbar) o Dl"))
        return None

    find("half-unshuffle-coassoc-left", axiom_left_left)

    def axiom_mixed(b):
        prec = unshuffle_bar(b, Side.LEFT, reduced=True)
        succ = unshuffle_bar(b, Side.RIGHT, reduced=True)
        lhs = _triple_left(prec, Side.RIGHT, True)
        rhs = _triple_right(succ, Side.LEFT, True)
        if lhs != rhs:
            return witness(b, ("(Dr (x) id) o Dl", "(id (x) Dl) o Dr"))
        return None

    find("half-unshuffle-coassoc-mixed", axiom_mixed)

    def axiom_right_right(b):
        succ = unshuffle_bar(b, Side.RIGHT, reduced=True)
        lhs = _triple_left(succ, Side.FULL, True)
        rhs = _triple_right(succ, Side.RIGHT, True)
        if lhs != rhs:
            return witness(b, ("(Dbar (x) id) o Dr", "(id (x) Dr) o Dr"))
        return None

    find("half-unshuffle-coassoc-right", axiom_right_right)

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
                    return {"element": repr(a.concat(b)),
                            "lhs": "half of product",
                            "rhs": "half (x) full, multiplied"}
        return None

    for side, name in ((Side.LEFT, "product-compat-left"), (Side.RIGHT, "product-compat-right")):
        fail = product_compat(side)
        report.add(CheckResult(name, "fail", fail) if fail else CheckResult.ok(name))

    return report
