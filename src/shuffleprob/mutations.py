"""Seeded-defect hooks used by the mutation-sensitivity tests.

The verification suites must be able to detect a broken primitive.  Rather
than monkeypatching internals (which would fight the memo caches), the three
known defects are first-class switches consulted by the code they corrupt:

- ``"drop-left-singleton"``   — the left half-coproduct omits the S={1} term;
- ``"skip-bernoulli-2"``      — the Magnus recursion omits its m=2 term;
- ``"flip-ad-conjugator"``    — ``ad_action`` conjugates by the exponential
                                of the negated argument.

These exist for tests only.  Enabling a defect clears the coproduct caches so
no stale correct values survive; suites build their functionals fresh per run.
Not thread safe.
"""

from __future__ import annotations

from contextlib import contextmanager

DEFECTS = frozenset({"drop-left-singleton", "skip-bernoulli-2", "flip-ad-conjugator"})

_active: set[str] = set()


def is_active(name: str) -> bool:
    return name in _active


@contextmanager
def inject_defect(name: str):
    if name not in DEFECTS:
        raise ValueError(f"unknown defect {name!r}; expected one of {sorted(DEFECTS)}")
    from . import coproducts

    coproducts.clear_caches()
    _active.add(name)
    try:
        yield
    finally:
        _active.discard(name)
        coproducts.clear_caches()
