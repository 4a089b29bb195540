"""Seeded defects for the mutation-sensitivity tests.

The verification suites must be able to detect a broken primitive.  Each
known defect is one row of a table: the module and name of the one function
it corrupts, and a builder of that function's broken twin from the clean one.

- ``"drop-left-singleton"``   — the left half-coproduct omits the S={1} term;
- ``"skip-bernoulli-2"``      — the Magnus recursion omits its m=2 term;
- ``"flip-ad-conjugator"``    — ``ad_action`` conjugates by the exponential
                                of the negated argument.

:func:`inject_defect` swaps the twin in wherever the package binds the clean
function and puts the clean one back on exit, so no engine module knows a
defect, and importing the package does not load this one.  Entering and
leaving a defect clears the coproduct caches; a functional node keeps the
functions it was built with, so build nodes inside the context.  Entering a
defect that is already active only counts it.  For tests only; not thread
safe.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import coproducts
from .coproducts import Side
from .words import BarWord


def _drop_left_singleton(by_first_run):
    def twin(w, side, single_run):
        terms = by_first_run(w, side, single_run)
        if side is not Side.LEFT:
            return terms
        singleton = (BarWord._of((w[:1],)), BarWord._of((w[1:],)))
        return tuple([t for t in terms if t[:2] != singleton])
    return twin


#: Each defect: (module, name of the function it corrupts, twin builder).
_TWINS = {
    "drop-left-singleton": ("coproducts", "_by_first_run", _drop_left_singleton),
    "skip-bernoulli-2": ("magnus", "_magnus_coeff",
                         lambda coeff: lambda m: Fraction(0) if m == 2 else coeff(m)),
    "flip-ad-conjugator": ("functionals", "ad_action",
                           lambda ad_action: lambda g1, g2: ad_action(-1 * g1, g2)),
}

DEFECTS = frozenset(_TWINS)

#: The number of open contexts of each active defect.
_active: dict[str, int] = {}


def is_active(name: str) -> bool:
    return name in _active


@contextmanager
def inject_defect(name: str):
    if name not in DEFECTS:
        raise ValueError(f"unknown defect {name!r}; expected one of {sorted(DEFECTS)}")
    first = name not in _active
    if first:
        module, attr, build = _TWINS[name]
        # the module by import_module: the package attribute ``magnus`` is
        # the function, and ``shuffleprob.ad_action`` is a second binding
        clean = getattr(importlib.import_module(f"{__package__}.{module}"), attr)
        homes = [m for key, m in list(sys.modules.items())
                 if key.partition(".")[0] == __package__ and vars(m).get(attr) is clean]
        twin = build(clean)
        coproducts.clear_caches()
        for m in homes:
            setattr(m, attr, twin)
    _active[name] = _active.get(name, 0) + 1
    try:
        yield
    finally:
        _active[name] -= 1
        if first:
            del _active[name]
            for m in homes:
                setattr(m, attr, clean)
            coproducts.clear_caches()
