from fractions import Fraction as F

import pytest

from shuffleprob import DomainError, Letter, Word
from shuffleprob.partitions import (PartitionFamily, SetPartition, bell_number,
                                    catalan_number, enumerate_partitions,
                                    oracle_convert, oracle_moments, tree_factorial)

A = Letter("a")
B = Letter("b")


def test_counts_match_the_classical_sequences():
    for n in range(1, 9):
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
    import math
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
], ids=["a missing point", "a repeated point", "a point outside [n]", "unknown kind"])
def test_oracle_refuses_what_it_does_not_define(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
