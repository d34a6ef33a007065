from collections import Counter
from itertools import permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schur_isotropy.errors import SizeGuard
from schur_isotropy.partitions import Partition
from schur_isotropy.tableaux import (
    Tableau,
    count_ssyt,
    enumerate_ssyt,
    weight_vectors,
)

from conftest import partitions


# the eight fillings of (2,1) with entries up to 3, in reading-word order
TWO_ONE_FILLINGS = [
    ((1, 1), (2,)),
    ((1, 1), (3,)),
    ((1, 2), (2,)),
    ((1, 2), (3,)),
    ((1, 3), (2,)),
    ((1, 3), (3,)),
    ((2, 2), (3,)),
    ((2, 3), (3,)),
]


def test_enumerate_two_one_alphabet_three():
    tableaux = enumerate_ssyt(Partition((2, 1)), 3)
    assert [t.rows for t in tableaux] == TWO_ONE_FILLINGS


def test_enumerate_edge_cases():
    assert enumerate_ssyt(Partition((1, 1, 1)), 2) == []
    assert [t.rows for t in enumerate_ssyt(Partition((2,)), 2)] == [
        ((1, 1),),
        ((1, 2),),
        ((2, 2),),
    ]
    empties = enumerate_ssyt(Partition(), 3)
    assert len(empties) == 1 and empties[0].rows == ()


def test_enumeration_order_is_lexicographic():
    tableaux = enumerate_ssyt(Partition((2, 2)), 4)
    words = [sum(t.rows, ()) for t in tableaux]
    assert words == sorted(words)


def test_count_known_values():
    assert count_ssyt(Partition((2, 1)), 3) == 8
    assert count_ssyt(Partition((1, 1, 1)), 5) == 10
    assert count_ssyt(Partition(), 0) == 1
    assert count_ssyt(Partition((3, 1)), 0) == 0


def test_count_single_row_is_binomial():
    for d in range(1, 7):
        for k in range(0, 9):
            assert count_ssyt(Partition((d,)), k) == comb(d + k - 1, d)


def test_count_single_column_is_binomial():
    for d in range(1, 7):
        for k in range(0, 9):
            assert count_ssyt(Partition((1,) * d), k) == comb(k, d)


def test_weight_vectors_two_one():
    weights = weight_vectors(Partition((2, 1)), 3)
    assert Counter(weights) == Counter(
        [
            (2, 1, 0),
            (2, 0, 1),
            (1, 2, 0),
            (1, 1, 1),
            (1, 1, 1),
            (1, 0, 2),
            (0, 2, 1),
            (0, 1, 2),
        ]
    )


def test_weight_vectors_edges():
    assert weight_vectors(Partition((1, 1, 1)), 3) == [(1, 1, 1)]
    assert weight_vectors(Partition((1,)), 2) == [(1, 0), (0, 1)]


@given(partitions(max_size=5), st.integers(min_value=0, max_value=4))
def test_enumeration_agrees_with_count_and_weights(lam, k):
    tableaux = enumerate_ssyt(lam, k)
    assert len(tableaux) == count_ssyt(lam, k)
    weights = weight_vectors(lam, k)
    assert len(weights) == len(tableaux)
    assert sum(sum(w) for w in weights) == lam.size * len(tableaux)


def test_weight_multiset_is_symmetric():
    for lam in [Partition((2, 1)), Partition((3,)), Partition((2, 2))]:
        weights = Counter(weight_vectors(lam, 3))
        for sigma in permutations(range(3)):
            permuted = Counter(tuple(w[sigma[i]] for i in range(3)) for w in weights.elements())
            assert permuted == weights


def test_size_guard():
    with pytest.raises(SizeGuard) as excinfo:
        enumerate_ssyt(Partition((2, 1)), 3, max_tableaux=7)
    assert "8" in str(excinfo.value)
    # counting itself is uncapped
    assert count_ssyt(Partition((2, 1)), 3) == 8


def test_tableau_validation():
    Tableau(((1, 1), (2,)))
    with pytest.raises(ValueError):
        Tableau(((2, 1),))  # row decreases
    with pytest.raises(ValueError):
        Tableau(((1, 1), (1,)))  # column not strict
    with pytest.raises(ValueError):
        Tableau(((1,), (2, 2)))  # row lengths increase
    with pytest.raises(ValueError):
        Tableau(((0,),))  # entries are positive


def test_tableau_weight_and_shape():
    t = Tableau(((1, 3), (2,)))
    assert t.shape == Partition((2, 1))
    assert t.weight(4) == (1, 1, 1, 0)
