"""The distribution API against the classical univariate recursions.

``perfbench/reference.py`` writes the free, boolean and monotone
moment-cumulant relations of one variable (Lehner 2002;
Arizmendi-Hasebe-Lehner-Vargas 2015) without the package.  It is loaded
here from its file, read only.  The partition oracle stops at degree 5;
these checks reach the routes from degree 9 on, where free cumulants and
every conversion out of free or boolean go through the Magnus maps, and
the degree-40 semicircle goldens that the CLI diffs against.
"""

import importlib.util
import json
import random
from fractions import Fraction as F

import pytest

import shuffleprob as sp

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("perfbench_reference",
                                               ROOT / "perfbench" / "reference.py")
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

KINDS = ("free", "boolean", "monotone")
A = sp.Letter("a")
GOLDEN = ROOT / "tests" / "golden" / "cli"


def _word(d):
    return sp.Word((A,) * d)


def _sequence(values, n):
    """A univariate word map as the list indexed by degree, entry 0 unused."""
    return [F(0)] + [F(values.get(_word(d), 0)) for d in range(1, n + 1)]


def _random_sequence(seed, n):
    rng = random.Random(seed)
    return [F(0)] + [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]


def _prime_sequence(n):
    """Value i over the i-th prime at degree i: D is the product of n primes,
    and the Magnus routes run every iterate on int pairs."""
    primes = [p for p in range(2, 8 * n) if all(p % q for q in range(2, p))]
    return [F(0)] + [F(i, primes[i - 1]) for i in range(1, n + 1)]


def _as_map(seq):
    return {_word(d): v for d, v in enumerate(seq) if d and v}


@pytest.mark.parametrize("kind", KINDS)
def test_transforms_equal_the_univariate_recursions(kind):
    # past the free threshold (9), on random dense input and on primes at degree 24
    seed = KINDS.index(kind)
    for n, seq in ((22, _random_sequence(seed, 22)), (24, _prime_sequence(24))):
        mom = [F(1)] + seq[1:]
        d = sp.Distribution.univariate("a", mom[1:])
        want = ref.uni_cumulants(mom, kind, n)
        assert _sequence(sp.to_cumulants(d, kind), n)[1:] == want[1:], n
    for n, kappa in ((20, _random_sequence(seed + 10, 20)), (24, _prime_sequence(24))):
        got = sp.from_cumulants(_as_map(kappa), kind, (A,), n).moments
        assert _sequence(got, n)[1:] == ref.uni_moments(kappa, kind, n)[1:], n


@pytest.mark.parametrize("kind_from", KINDS)
def test_conversions_equal_the_univariate_recursions(kind_from):
    for kind_to, n, seed in zip((k for k in KINDS if k != kind_from), (21, 24), (4, 5)):
        for n, kappa in ((n, _random_sequence(seed + KINDS.index(kind_from), n)),
                         (24, _prime_sequence(24))):
            want = ref.uni_cumulants(ref.uni_moments(kappa, kind_from, n), kind_to, n)
            got = sp.convert(_as_map(kappa), kind_from, kind_to, n, (A,))
            assert _sequence(got, n)[1:] == want[1:], (kind_from, kind_to, n)


def _golden_sequence(name, key, n):
    values = json.loads((GOLDEN / name).read_text())[key]
    return [F(0)] + [F(values.get(".".join("a" * d), 0)) for d in range(1, n + 1)]


@pytest.mark.parametrize("kind", ("free", "monotone"))
def test_degree_forty_semicircle_goldens_equal_the_recursions(kind):
    # the goldens were written by the engine; the recursions share no code
    # with it.  The free recursion takes about half a second here.
    mom = _golden_sequence("in-semicircle-40.json", "moments", 40)
    mom[0] = F(1)
    want = _golden_sequence(f"cumulants-{kind}-semicircle-40.json", "values", 40)
    assert ref.uni_cumulants(mom, kind, 40)[1:] == want[1:]
