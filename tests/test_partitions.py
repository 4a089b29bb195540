import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from shuffleprob import DomainError, Letter, ValidationError, Word
from shuffleprob.partitions import (MAX_N, PartitionFamily, SetPartition, bell_number,
                                    catalan_number, enumerate_partitions,
                                    oracle_convert, oracle_moments, tree_factorial)
from shuffleprob.words import words_up_to

A = Letter("a")
B = Letter("b")


def test_a_family_is_read_by_member_or_by_value():
    for family in PartitionFamily:
        assert enumerate_partitions(4, family.value) == enumerate_partitions(4, family)
    assert [len(enumerate_partitions(4, f)) for f in ("all", "non-crossing", "interval")] \
        == [15, 14, 8]


def test_counts_match_the_classical_sequences():
    for n in range(1, MAX_N + 1):
        if n < 9:
            assert len(enumerate_partitions(n, PartitionFamily.ALL)) == bell_number(n)
        assert len(enumerate_partitions(n, PartitionFamily.NON_CROSSING)) == catalan_number(n)
        assert len(enumerate_partitions(n, PartitionFamily.INTERVAL)) == 2 ** (n - 1)


def test_small_examples():
    assert len(enumerate_partitions(4, PartitionFamily.NON_CROSSING)) == 14
    assert len(enumerate_partitions(3, PartitionFamily.INTERVAL)) == 4
    assert len(enumerate_partitions(1, PartitionFamily.ALL)) == 1


def test_out_of_range():
    with pytest.raises(DomainError):
        enumerate_partitions(0)
    with pytest.raises(DomainError):
        enumerate_partitions(11)


def test_family_enumerations_are_the_filtered_full_enumeration():
    # the pruned growth of each family against the predicates, in order, and
    # the non-crossing predicate against its four-point definition
    def crossing(p):
        return any(a < b < c < d for u in p.blocks for v in p.blocks if u != v
                   for a, c in itertools.combinations(u, 2)
                   for b, d in itertools.combinations(v, 2))

    for n in range(1, 8):
        everything = enumerate_partitions(n, PartitionFamily.ALL)
        assert all(p.is_non_crossing() != crossing(p) for p in everything)
        for family, keep in ((PartitionFamily.NON_CROSSING, SetPartition.is_non_crossing),
                             (PartitionFamily.INTERVAL, SetPartition.is_interval)):
            assert enumerate_partitions(n, family) == tuple(filter(keep, everything))


def test_predicates():
    crossing = SetPartition(4, [(1, 3), (2, 4)])
    assert not crossing.is_non_crossing()
    nested = SetPartition(4, [(1, 4), (2, 3)])
    assert nested.is_non_crossing() and not nested.is_interval()
    runs = SetPartition(4, [(1, 2), (3, 4)])
    assert runs.is_interval()


def test_tree_factorial_examples():
    assert tree_factorial(SetPartition(4, [(1, 2), (3, 4)])) == 1
    assert tree_factorial(SetPartition(4, [(1, 4), (2, 3)])) == 2
    assert tree_factorial(SetPartition(6, [tuple(range(1, 7))])) == 1
    deep = SetPartition(6, [(1, 6), (2, 5), (3, 4)])
    assert tree_factorial(deep) == 6
    with pytest.raises(DomainError):
        tree_factorial(SetPartition(4, [(1, 3), (2, 4)]))
    with pytest.raises(DomainError):
        SetPartition(4, [(1, 3), (2, 4)]).nesting_parents()
    assert SetPartition(6, [(1, 6), (2, 3), (4, 5)]).nesting_parents() == [None, 0, 0]


def test_oracle_free_pairings():
    c = {Word((A, A)): F(1)}
    assert oracle_moments(c, "free", Word((A,) * 4)) == 2
    assert oracle_moments(c, "free", Word((A,) * 6)) == 5


def test_oracle_monotone_weighted():
    c = {Word((A, A)): F(1), Word((A,) * 4): F(1, 2)}
    assert oracle_moments(c, "monotone", Word((A,) * 4)) == 2


def test_oracle_monotone_arcsine():
    # pure pair monotone cumulants give the arcsine moments
    c = {Word((A, A)): F(1)}
    assert oracle_moments(c, "monotone", Word((A,) * 4)) == F(3, 2)
    assert oracle_moments(c, "monotone", Word((A,) * 6)) == F(5, 2)


def test_oracle_boolean_intervals():
    c = {Word((A, A)): F(1)}
    assert oracle_moments(c, "boolean", Word((A,) * 6)) == 1


def test_oracle_degree_one_and_empty():
    c = {Word((A,)): F(7, 3)}
    for kind in ("free", "boolean", "monotone"):
        assert oracle_moments(c, kind, Word((A,))) == F(7, 3)
        assert oracle_moments(c, kind, Word()) == 1


def test_oracle_multivariate_positions():
    # blocks pick subwords at their positions: word abab, partition {13}{24}
    # crosses and is excluded from the free sum
    c = {Word((A, B)): F(1), Word((B, A)): F(1), Word((A, A)): F(1),
         Word((B, B)): F(1)}
    got = oracle_moments(c, "free", Word((A, B, A, B)))
    # non-crossing pairings of [4]: {12}{34} and {14}{23}
    expect = c[Word((A, B))] * c[Word((A, B))] + c[Word((A, B))] * c[Word((B, A))]
    assert got == expect


def test_monotone_weight_sum_denominator_divides_factorial():
    for n in range(1, 8):
        total = sum(F(1, tree_factorial(p))
                    for p in enumerate_partitions(n, PartitionFamily.NON_CROSSING))
        assert math.factorial(n) % total.denominator == 0


def test_oracle_convert_examples_and_domain():
    # semicircle: free cumulants {a^2: 1}; boolean b_2k = Catalan(k - 1)
    pair = {Word((A, A)): F(1)}
    got = [oracle_convert(pair, "free", "boolean", Word((A,) * n)) for n in range(7)]
    assert got == [0, 0, 1, 0, 1, 0, 2]
    boolean = {Word((A,) * n): F(v) for n, v in ((2, 1), (4, 1), (6, 2))}
    assert oracle_convert(boolean, "boolean", "free", Word((A,) * 6)) == 0
    assert oracle_convert(pair, "monotone", "boolean", Word((A,) * 4)) == F(1, 2)
    for pair_of_kinds in (("free", "monotone"), ("boolean", "monotone"),
                          ("monotone", "free"), ("free", "free")):
        with pytest.raises(DomainError):
            oracle_convert(pair, *pair_of_kinds, Word((A, A)))


@pytest.mark.parametrize("call,message", [
    (lambda: SetPartition(3, [[1, 2]]), "blocks ((1, 2),) do not partition [3]"),
    (lambda: SetPartition(2, [[1, 2], [2]]), "blocks ((1, 2), (2,)) do not partition [2]"),
    (lambda: SetPartition(2, [[0, 1, 2]]), "blocks ((0, 1, 2),) do not partition [2]"),
    (lambda: oracle_moments({Word((A,)): F(1)}, "gaussian", Word((A, A))),
     "unknown cumulant kind 'gaussian'"),
    (lambda: enumerate_partitions(4, "bogus"), "unknown partition family 'bogus'"),
    (lambda: enumerate_partitions(4, 3), "unknown partition family 3"),
    (lambda: enumerate_partitions(4, None), "unknown partition family None"),
    (lambda: enumerate_partitions(4, "ALL"), "unknown partition family 'ALL'"),
], ids=["a missing point", "a repeated point", "a point outside [n]", "unknown kind",
        "unknown family", "a family by int", "no family", "a family by member name"])
def test_oracle_refuses_what_it_does_not_define(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_the_oracle_imports_nothing_from_the_engine():
    import ast
    import pathlib
    import shuffleprob.partitions as module
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert imported == {"__future__", "enum", "math", "fractions", "functools", "typing",
                        "errors", "words"}, imported


def test_oracle_refuses_a_value_that_is_not_an_int_or_a_fraction():
    # a float would be read as its binary expansion: 0.5 * 0.5 + 1 = 1.25
    c = {Word((A,)): 0.5, Word((A, A)): 1}
    for call in (lambda: oracle_moments(c, "free", Word((A, A))),
                 lambda: oracle_convert(c, "free", "boolean", Word((A,) * 3))):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == "the value at a must be an int or a Fraction, got float"
    # a value that no block reads is not checked
    assert oracle_moments({Word((A,)): F(1, 2), Word((B,)): 0.5}, "free", Word((A, A))) == F(1, 4)
    assert oracle_moments({Word((A,)): True}, "boolean", Word((A,))) == 1


# The reference sums of the differential test below: a plain Fraction sum over
# the partitions of each family, with every block read by its positions.
_tree_factorial = functools.cache(tree_factorial)
_NC, _INTERVAL = PartitionFamily.NON_CROSSING, PartitionFamily.INTERVAL
_REFERENCE = {
    "free": (_NC, False, lambda p: 1),
    "boolean": (_INTERVAL, False, lambda p: 1),
    "monotone": (_NC, False, lambda p: F(1, _tree_factorial(p))),
    ("free", "boolean"): (_NC, True, lambda p: 1),
    ("boolean", "free"): (_NC, True, lambda p: (-1) ** (len(p.blocks) - 1)),
    ("monotone", "boolean"): (_NC, True, lambda p: F(1, _tree_factorial(p))),
}


def _reference_sum(values, key, w):
    family, irreducible, weight = _REFERENCE[key]
    n, total = len(w), F(0)

    @functools.cache
    def value(block):
        return values.get(w.subword(block), 0)

    for p in enumerate_partitions(n, family):
        if irreducible and not any(1 in b and n in b for b in p.blocks):
            continue
        blocks = list(map(value, p.blocks))
        if all(blocks):  # a partition with a zero block adds 0
            total += math.prod(blocks, start=F(weight(p)))
    return total


def _random_values(rng, words):
    """Missing entries, zeros, negative values, ints and Fractions with
    numerators and denominators up to 10**6."""
    out = {}
    for w in words:
        pick = rng.random()
        if pick < 0.15:
            continue
        if pick < 0.25:
            out[w] = rng.choice((0, F(0)))
        elif pick < 0.5:
            out[w] = rng.randint(-10 ** 6, 10 ** 6)
        else:
            out[w] = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
    return out


def test_oracle_sums_equal_plain_fraction_sums():
    rng = random.Random(2)
    words = [w for w in words_up_to((A, B), 6)]
    # at degree MAX_N, the letter and its square are set, so that partitions
    # with up to MAX_N blocks count; a missing value is None
    univariate = {Word((A,) * k): v for k, v in enumerate(
        (F(-999_983, 1_000_000), 10 ** 6, None, 0, F(999_999, 7), -31, F(-3, 999_998),
         None, F(0), F(123_457, 654_321)), 1) if v is not None}
    for values, targets in ((_random_values(rng, words), words),
                            (univariate, [Word((A,) * MAX_N)])):
        for w in targets:
            for kind in ("free", "boolean", "monotone"):
                assert oracle_moments(values, kind, w) == \
                    _reference_sum(values, kind, w), (kind, w)
            for pair in (("free", "boolean"), ("boolean", "free"), ("monotone", "boolean")):
                assert oracle_convert(values, *pair, w) == \
                    _reference_sum(values, pair, w), (pair, w)
