"""Property tests of the cumulant transforms against the partition oracle:
on random cumulant maps over 1-3 letters, every family's moments and the
conversions the oracle has formulas for equal its direct partition sums on
every word, and the transforms invert each other both ways round."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402

from shuffleprob import Distribution, convert, from_cumulants, to_cumulants  # noqa: E402
from shuffleprob.cumulants import CumulantKind  # noqa: E402
from shuffleprob.partitions import oracle_convert, oracle_moments  # noqa: E402
from shuffleprob.words import words_up_to  # noqa: E402

from test_scaling_properties import SETTINGS, cumulant_maps  # noqa: E402

KINDS = ("free", "boolean", "monotone")
#: The pairs of families that oracle_convert has a partition formula for.
ORACLE_PAIRS = (("free", "boolean"), ("boolean", "free"), ("monotone", "boolean"))


def nonzero(values):
    return {w: v for w, v in values.items() if v}


@SETTINGS
@given(cumulant_maps())
def test_moments_equal_the_oracle(drawn):
    letters, n, c = drawn
    for kind in KINDS:
        d = from_cumulants(c, kind, letters, n)
        for w in words_up_to(letters, n):
            assert d.moment(w) == oracle_moments(c, kind, w), (kind, w)


@SETTINGS
@given(cumulant_maps())
def test_cumulants_of_the_moments_give_the_map_back(drawn):
    letters, n, c = drawn
    for kind in KINDS:
        assert to_cumulants(from_cumulants(c, kind, letters, n), kind) == nonzero(c), kind


@SETTINGS
@given(cumulant_maps())
def test_convert_equals_the_oracle(drawn):
    letters, n, c = drawn
    for src, dst in ORACLE_PAIRS:
        got = convert(c, src, dst, n, letters)
        for w in words_up_to(letters, n):
            assert got.get(w, 0) == oracle_convert(c, src, dst, w), (src, dst, w)


@SETTINGS
@given(cumulant_maps())
def test_moments_of_the_cumulants_give_the_distribution_back(drawn):
    letters, n, m = drawn
    d = Distribution(letters, n, m)
    for kind in CumulantKind:
        back = from_cumulants(to_cumulants(d, kind), kind, letters, n)
        assert back.letters == d.letters and back.max_degree == n, kind
        assert back.moments == nonzero(d.moments), kind
