"""Layer probes of the traced run: each times calls into one module's
public functions on the workload's shapes, after the op stream.

Probes that enumerate every bar word use the workload's probe shape,
because a cold sweep over all bar words costs 3.4 s at 2 letters degree 6,
3.4 s at 3 letters degree 5, and 71 s for one letter at degree 12 (2 cores,
Python 3.11); the probe shapes stay at or below those sizes.  ``coproducts.op_cold_ms`` covers the workload's largest shape
instead, from the cold and warm cost of real ``to_cumulants`` calls.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from time import perf_counter

import spans

FUNCTIONAL_PROBES = ("conv", "hs_left", "hs_right", "inverse", "exp_left", "exp_right",
                     "exp_star", "log_left", "log_right", "log_star", "ad_action")


def _ms(fn):
    start = perf_counter()
    result = fn()
    return (perf_counter() - start) * 1000, result


def _random_values(rng, words):
    return {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in words}


def run_probes(workload, seed, context):
    import shuffleprob as sp
    from shuffleprob import coproducts, partitions, words as wd
    from shuffleprob.axioms import check_axioms
    from shuffleprob.coproducts import Side, unshuffle_bar

    rng = random.Random(f"probe:{workload.name}:{seed}")
    out = {}
    as_letters = lambda names: tuple(sp.Letter(x) for x in names)

    def enum_all():
        for names, n in workload.shapes:
            tuple(wd.barwords_up_to(as_letters(names), n))
            tuple(wd.words_up_to(as_letters(names), n))
    out["words.enum_ms"], _ = _ms(enum_all)

    names, n = workload.probe_shape
    letters = as_letters(names)
    bars = tuple(wd.barwords_up_to(letters, n))
    words = tuple(wd.words_up_to(letters, n))
    sides = (Side.FULL, Side.LEFT, Side.RIGHT)

    def sweep():
        return sum(len(unshuffle_bar(b, s)) for s in sides for b in bars)
    coproducts.clear_caches()
    out["coproducts.cold_ms"], terms = _ms(sweep)
    out["coproducts.warm_ms"], _ = _ms(sweep)
    out["coproducts.terms"] = terms

    # cold minus warm cost of one to_cumulants call at the workload's
    # largest shape, each kind on freshly cleared caches; the mean of the kinds
    big_names, big_n = max(workload.shapes, key=lambda s: (len(s[0]) ** s[1], s[1]))
    big_letters = as_letters(big_names)
    d = sp.Distribution(big_letters, big_n,
                        _random_values(rng, wd.words_up_to(big_letters, big_n)))
    kinds = ("free", "boolean", "monotone")
    for kind in kinds:
        coproducts.clear_caches()
        cold, _ = _ms(lambda: sp.to_cumulants(d, kind))
        warm, _ = _ms(lambda: sp.to_cumulants(d, kind))
        out[f"coproducts.op_cold.{kind}_ms"] = cold - warm
    out["coproducts.op_cold_ms"] = sum(out[f"coproducts.op_cold.{k}_ms"] for k in kinds) / len(kinds)

    # fresh functional nodes on warm coproducts, evaluated on every word
    coproducts.clear_caches()
    sweep()
    kappa, kappa2 = (sp.infinitesimal(_random_values(rng, words)) for _ in range(2))
    phi, phi2 = (sp.character(_random_values(rng, words)) for _ in range(2))
    nodes = {
        "conv": lambda: sp.conv(phi, phi2), "hs_left": lambda: sp.hs_left(kappa, phi),
        "hs_right": lambda: sp.hs_right(phi, kappa), "inverse": lambda: sp.neumann_inverse(phi),
        "exp_left": lambda: sp.exp_left(kappa), "exp_right": lambda: sp.exp_right(kappa),
        "exp_star": lambda: sp.exp_star(kappa), "log_left": lambda: sp.log_left(phi),
        "log_right": lambda: sp.log_right(phi), "log_star": lambda: sp.log_star(phi),
        "ad_action": lambda: sp.ad_action(kappa, kappa2),
    }
    for name in FUNCTIONAL_PROBES:
        f = nodes[name]()
        out[f"functionals.{name}_ms"], _ = _ms(lambda: [f(w) for w in words])
    for key, build in (("magnus.magnus_ms", sp.magnus), ("magnus.inverse_ms", sp.magnus_inverse)):
        f = build(kappa)
        out[key], _ = _ms(lambda: [f(w) for w in words])

    # partitions: cold enumeration first, so the oracle then runs on cached tables
    top = min(n, partitions.MAX_N)
    partitions.enumerate_partitions.cache_clear()
    out["partitions.enumerate_ms"], _ = _ms(
        lambda: [partitions.enumerate_partitions(k, fam) for fam in partitions.PartitionFamily
                 for k in range(1, top + 1)])
    cum = {w: v for w, v in _random_values(rng, words).items() if len(w) <= top}
    out["partitions.oracle_ms"], _ = _ms(
        lambda: [sp.oracle_moments(cum, kind, w) for kind in kinds for w in words if len(w) <= top])

    out["axioms.check_ms"] = 0.0
    if workload.name == "verify-suites":
        out["axioms.check_ms"], _ = _ms(lambda: check_axioms(letters, n))

    out["cli.startup_ms"] = 0.0
    if workload.name == "cli-univariate":
        out["cli.startup_ms"] = spans.median([1000 * t for t in import_times(context, 5)])
    out["trace.span_us"] = spans.span_cost_us()
    return out


def import_times(context, count):
    """Wall time of a fresh interpreter that only imports the package."""
    return [spans.child_wall([sys.executable, "-c", "import shuffleprob"], cwd=context["root"],
                             env=context["child_env"])
            for _ in range(count)]
