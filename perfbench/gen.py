"""Seeded inputs for the three workloads.

Everything here is derived from the workload seed with ``random.Random``,
so the same seed yields byte-identical inputs.  The program under test only
ever sees the JSON texts built here (the documented schemas of
``shuffleprob.io``); the benchmark keeps its own copy of the maps for the
reference check.

The op mix of one cycle is fixed; the seed only draws the values.  That
keeps every run's mix of op kinds, shapes, densities and coefficient sizes
the same, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

from reference import KINDS, words_up_to

# lib-mixed: (letters, degree); 2 letters at degree 6-7, 3 letters at degree 5
LIB_SHAPES = ((("a", "b"), 6), (("a", "b"), 7), (("a", "b", "c"), 5))
CONVERT_PAIRS = (("free", "monotone"), ("boolean", "free"), ("monotone", "boolean"),
                 ("free", "boolean"), ("monotone", "free"), ("boolean", "monotone"))
CONVOLVE_KINDS = ("free", "boolean", "monotone-left", "monotone-right")
BP_TS = (Fraction(1), Fraction(1, 2), Fraction(2))
# numerator / denominator bounds of random coefficients
COEFF_BOUNDS = {"small": (3, 3), "large": (10 ** 4, 12)}

# cli-univariate: one cycle of (subcommand, kind, input family, degree).  For
# "moments" the kind is the family of the input cumulants; for "convert" it
# is the pair (from, to).
CLI_CYCLE = (
    ("cumulants", "free", "semicircle", 14),
    ("cumulants", "boolean", "bernoulli", 13),
    ("cumulants", "monotone", "point", 12),
    ("cumulants", "free", "dense", 12),
    ("cumulants", "boolean", "dense", 13),
    ("cumulants", "monotone", "dense", 11),
    ("moments", "free", "dense", 12),
    ("moments", "boolean", "semicircle", 14),
    ("moments", "monotone", "dense", 12),
    ("convert", ("free", "boolean"), "dense", 11),
    ("convert", ("monotone", "free"), "point", 11),
    ("convert", ("boolean", "monotone"), "dense", 11),
)
CLI_MAX_DEGREE = max(op[3] for op in CLI_CYCLE)

# verify-suites: (suite, degree); coalgebra at 5 so product_compat shows, and
# once more at 4 so the cycle has an odd number of ops and its median op is
# one suite's, not the midpoint between two
VERIFY_CYCLE = (("coalgebra", 5), ("shuffle", 4), ("magnus", 4), ("cumulants", 4),
                ("products", 4), ("bp", 4), ("coalgebra", 4))
VERIFY_LETTERS = ("a", "b")


def frac_str(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _value_map(values):
    return {".".join(w): frac_str(values[w])
            for w in sorted(values, key=lambda w: (len(w), w))}


def distribution_text(letters, n, moments) -> str:
    return json.dumps({"letters": list(letters), "max_degree": n,
                       "moments": _value_map(moments)})


def cumulant_text(kind, letters, n, values) -> str:
    return json.dumps({"kind": kind, "letters": list(letters), "max_degree": n,
                       "values": _value_map(values)})


def random_map(rng, letters, n, density, size):
    """Dense: every word gets a random rational.  Sparse: only words in
    which each letter occurs an even number of times, the support of a
    distribution symmetric in every variable."""
    num, den = COEFF_BOUNDS[size]
    out = {}
    for w in words_up_to(letters, n):
        if density == "sparse" and any(w.count(l) % 2 for l in letters):
            continue
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if v:
            out[w] = v
    return out


def lib_cycle(rng, cycle):
    """One cycle of lib-mixed ops: 13 calls on each of the three shapes.

    An op is (layer call, argument, input texts).  Density alternates op by
    op and coefficient size every second op, with the phase flipped each
    cycle, so two consecutive cycles cover every op in every combination.
    """
    ops = []
    for s, (letters, n) in enumerate(LIB_SHAPES):
        slot = itertools.count(cycle)

        def draw():
            j = next(slot)
            return random_map(rng, letters, n, ("dense", "sparse")[j % 2],
                              ("small", "large")[(j // 2) % 2])

        def dist():
            return distribution_text(letters, n, draw())

        for kind in KINDS:
            ops.append(("cumulants.to_cumulants", kind, (dist(),)))
        for kind in KINDS:
            ops.append(("cumulants.from_cumulants", kind,
                        (cumulant_text(kind, letters, n, draw()),)))
        kf, kt = CONVERT_PAIRS[(cycle + s) % len(CONVERT_PAIRS)]
        ops.append(("cumulants.convert", kt, (cumulant_text(kf, letters, n, draw()),)))
        for kind in CONVOLVE_KINDS:
            ops.append(("products.convolve", kind, (dist(), dist())))
        ops.append(("products.subordinate", ("left", "right")[cycle % 2], (dist(), dist())))
        ops.append(("products.bp", frac_str(BP_TS[cycle % len(BP_TS)]), (dist(),)))
    return ops


def univariate(rng, family, n, as_cumulants):
    """Univariate moment (or cumulant) sequence of a family, as a word map.

    semicircle: moments Catalan_k s^k in degree 2k, free cumulant s in degree 2;
    bernoulli:  moments s^k in degree 2k, boolean cumulant s in degree 2;
    point:      moments c^k, first cumulant c (every family);
    dense:      a random nonzero small rational in every degree.
    """
    p, q = rng.randint(1, 4), rng.randint(1, 4)
    if family == "dense":
        seq = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
               for _ in range(n)]
    elif family == "point":
        c = Fraction(p * rng.choice((-1, 1)), q)
        seq = [c] + [Fraction(0)] * (n - 1) if as_cumulants else [c ** k for k in range(1, n + 1)]
    else:
        s = Fraction(p, q)
        if as_cumulants:
            seq = [Fraction(0), s] + [Fraction(0)] * (n - 2)
        else:
            catalan = family == "semicircle"
            seq = [(math.comb(k, k // 2) // (k // 2 + 1) if catalan else 1) * s ** (k // 2)
                   if k % 2 == 0 else Fraction(0) for k in range(1, n + 1)]
    return {("a",) * (d + 1): v for d, v in enumerate(seq) if v}


def cli_cycle(rng, cycle):
    """One cycle of cli-univariate ops: (subcommand, kind, input text, degree)."""
    ops = []
    for sub, kind, family, n in CLI_CYCLE:
        if sub == "cumulants":
            text = distribution_text(("a",), n, univariate(rng, family, n, False))
        else:
            source = kind if sub == "moments" else kind[0]
            text = cumulant_text(source, ("a",), n, univariate(rng, family, n, True))
        ops.append((sub, kind, text, n))
    return ops


def verify_cycle(cycle):
    """One cycle of verify-suites ops: (suite, degree, suite seed).

    The suite seed is the cycle number, whatever the run seed: a suite's
    cost depends on the values its seed draws (shuffle at degree 4 takes
    0.27 s on one suite seed and 0.68 s on another), so suite seeds drawn
    from the run seed would make runs with different seeds time different
    work, and the rank statistics would jump between suites.
    """
    return [(suite, n, cycle) for suite, n in VERIFY_CYCLE]


def generate(workload, seed, cycles):
    """The ops of a run: a list of `cycles` cycles."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lib-mixed":
        return [lib_cycle(rng, c) for c in range(cycles)]
    if workload == "cli-univariate":
        return [cli_cycle(rng, c) for c in range(cycles)]
    if workload == "verify-suites":
        return [verify_cycle(c) for c in range(cycles)]
    raise ValueError(f"unknown workload {workload!r}")
