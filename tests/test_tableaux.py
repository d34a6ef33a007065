from collections import Counter
from itertools import permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schur_isotropy.chern import weight_counts
from schur_isotropy.errors import SizeGuard
from schur_isotropy.partitions import Partition, partitions_up_to
from schur_isotropy.tableaux import count_ssyt, weight_vectors

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


def _weight(rows, max_entry):
    return tuple(sum(row.count(v) for row in rows) for v in range(1, max_entry + 1))


def test_enumerate_two_one_alphabet_three():
    # with a fourth letter, the fillings that do not use it keep their order
    assert [w[:3] for w in weight_vectors(Partition((2, 1)), 4) if w[3] == 0] == [
        _weight(rows, 3) for rows in TWO_ONE_FILLINGS
    ]


def test_enumerate_edge_cases():
    assert weight_vectors(Partition((1, 1, 1)), 2) == []
    # fillings 11, 12, 22 of a single row of two boxes
    assert weight_vectors(Partition((2,)), 2) == [(2, 0), (1, 1), (0, 2)]
    assert weight_vectors(Partition(), 3) == [(0, 0, 0)]
    assert weight_vectors(Partition(), 0) == [()]
    with pytest.raises(ValueError):
        weight_vectors(Partition((1,)), -1)


def test_enumeration_order_is_lexicographic():
    # (2,2) with entries up to 4: the 20 fillings as reading words, sorted
    words = sorted(
        (a, b, c, d)
        for a in range(1, 5) for b in range(a, 5)
        for c in range(a + 1, 5) for d in range(max(b + 1, c), 5)
    )
    assert weight_vectors(Partition((2, 2)), 4) == [_weight([w], 4) for w in words]


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
    assert weight_vectors(Partition((2, 1)), 3) == [
        _weight(rows, 3) for rows in TWO_ONE_FILLINGS
    ]


def test_weight_vectors_edges():
    assert weight_vectors(Partition((1, 1, 1)), 3) == [(1, 1, 1)]
    assert weight_vectors(Partition((1,)), 2) == [(1, 0), (0, 1)]


@given(partitions(max_size=5), st.integers(min_value=0, max_value=4))
def test_enumeration_agrees_with_count_and_weights(lam, k):
    weights = weight_vectors(lam, k)
    assert len(weights) == count_ssyt(lam, k)
    assert all(len(w) == k and sum(w) == lam.size for w in weights)


def test_weight_multiset_is_symmetric():
    for lam in [Partition((2, 1)), Partition((3,)), Partition((2, 2))]:
        weights = Counter(weight_vectors(lam, 3))
        for sigma in permutations(range(3)):
            permuted = Counter(tuple(w[sigma[i]] for i in range(3)) for w in weights.elements())
            assert permuted == weights


def test_a_long_row_walks_without_recursion():
    # a walk that recursed once per cell would overflow the interpreter stack
    assert weight_vectors(Partition((1200,)), 1) == [(1200,)]
    assert len(weight_vectors(Partition((1200,)), 2)) == 1201


def test_size_guard():
    with pytest.raises(SizeGuard) as excinfo:
        weight_vectors(Partition((2, 1)), 3, max_tableaux=7)
    assert "8" in str(excinfo.value)
    # counting itself is uncapped
    assert count_ssyt(Partition((2, 1)), 3) == 8


def test_the_size_guard_trips_just_below_the_count():
    # the cap is checked against hook-content, which must equal the count
    for lam in filter(None, partitions_up_to(5)):
        for k in range(len(lam), 6):
            count = count_ssyt(lam, k)
            assert len(weight_vectors(lam, k, max_tableaux=count)) == count
            with pytest.raises(SizeGuard) as excinfo:
                weight_vectors(lam, k, max_tableaux=count - 1)
            assert str(excinfo.value) == (
                f"{count} tableaux of shape {lam.as_text()} with entries"
                f" up to {k} exceeds the cap {count - 1}"
            )


def _fillings(lam, max_entry):
    """Every semistandard filling as a reading word, built cell by cell in lex order."""
    cells = [(r, c) for r, width in enumerate(lam) for c in range(width)]
    word = {}

    def extend(i):
        if i == len(cells):
            yield tuple(word[cell] for cell in cells)
            return
        r, c = cells[i]
        low = max(word.get((r, c - 1), 1), word.get((r - 1, c), 0) + 1)
        for value in range(low, max_entry + 1):
            word[r, c] = value
            yield from extend(i + 1)
        word.pop((r, c), None)

    return list(extend(0))


def test_weights_follow_the_reading_words_in_order():
    # a cell-by-cell walk that shares nothing with the row walk, its bounds on
    # first entries or its forced rows
    for lam in partitions_up_to(6):
        for k in range(7):
            words = _fillings(lam, k) if len(lam) <= k else []
            expected = [tuple(word.count(v) for v in range(1, k + 1)) for word in words]
            assert weight_vectors(lam, k) == expected, (lam, k)


def test_a_tall_column_walks_only_its_filling():
    # a walk that tried every row entry up to max_entry would take about half
    # an hour here, though the column has a single filling
    assert weight_vectors(Partition((1,) * 30), 30) == [(1,) * 30]
    # a hook: its column is forced to 1..30 and its arm box takes any entry
    hook = weight_vectors(Partition((2,) + (1,) * 29), 30)
    assert len(hook) == count_ssyt(Partition((2,) + (1,) * 29), 30)
    # more rows than the interpreter's recursion limit: the walk keeps an
    # explicit stack, so height costs no call depth
    assert weight_vectors(Partition((1,) * 1200), 1200) == [(1,) * 1200]
    assert weight_vectors(Partition((2,) * 1200), 1200) == [(2,) * 1200]
    # a tall 2-column hook: the arm box takes each entry once, in order.  Its
    # first row's entries stop where the column below still fits, and the
    # rows beneath it are forced, so the h fillings cost no h^2 row steps
    for h in (200, 1200):
        tall = weight_vectors(Partition((2,) + (1,) * (h - 1)), h)
        assert tall == [tuple(1 + (i == arm) for i in range(h)) for arm in range(h)]


def test_the_weight_table_counts_every_filling():
    # the branching rule against the walk, for every shape of size <= 7 (the
    # empty one and those with more rows than k among them) at k = 0..6; one
    # table serves all of them, as it does across k in a flip search
    table, checked = {}, 0
    for lam in partitions_up_to(7):
        for k in range(7):
            expected = Counter(weight_vectors(lam, k))
            assert weight_counts(lam, k, table) == expected, (lam, k)
            checked += 1
    assert checked == 315
    assert weight_counts(Partition(), 3, {}) == {(0, 0, 0): 1}
    assert weight_counts(Partition((1, 1, 1)), 2, {}) == {}
    assert weight_counts(Partition((2, 1)), 3, {}) == Counter(weight_vectors((2, 1), 3))
    # a plain tuple is read as the Partition it spells
    assert weight_counts((1,), 3, {}) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    # an alphabet deeper than the recursion limit, and a tall hook's table
    column = Partition((1,) * 1100)
    assert weight_counts(column, 1100, {}) == {(1,) * 1100: 1}
    hook = Partition((2,) + (1,) * 199)
    assert weight_counts(hook, 200, {}) == Counter(weight_vectors(hook, 200))
