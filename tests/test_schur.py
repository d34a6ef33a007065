from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from schur_isotropy.partitions import Partition, partitions_up_to
from schur_isotropy.proofs import (
    _CROSS_CHECK_LIMIT,
    dim_schur_module,
    dimension_ratio_gain,
    schur_ones_recurrence,
    symmetric_power_ratio_gain,
)
from schur_isotropy.schur import schur_ones_hook_content
from schur_isotropy.tableaux import count_ssyt

from closed_forms import hook_shape_dimension, two_row_rectangle_dimension
from conftest import partitions


def test_hook_content_known_values():
    assert schur_ones_hook_content(Partition((2, 1)), 3) == 8
    assert schur_ones_hook_content(Partition(), 5) == 1
    assert schur_ones_hook_content(Partition((1, 1, 1, 1)), 3) == 0
    assert schur_ones_hook_content(Partition((2, 2)), 4) == 20


def test_recurrence_known_values():
    assert schur_ones_recurrence(Partition((2, 1)), 3) == 8
    assert schur_ones_recurrence(Partition((1, 1, 1, 1)), 3) == 0
    assert schur_ones_recurrence(Partition((2, 2)), 4) == 20
    assert schur_ones_recurrence(Partition(), 0) == 1
    assert schur_ones_recurrence(Partition((3,)), 0) == 0


def test_dim_schur_module():
    assert dim_schur_module(Partition((2, 1)), 3).value == 8
    assert dim_schur_module(Partition((1, 1, 1)), 5).value == 10
    assert dim_schur_module(Partition(), 7).value == 1
    dv = dim_schur_module(Partition((2, 1)), 3)
    assert (dv.shape, dv.n) == (Partition((2, 1)), 3)


@given(partitions(max_size=6), st.integers(min_value=0, max_value=6))
def test_three_routes_agree(lam, n):
    hook = schur_ones_hook_content(lam, n)
    assert hook == schur_ones_recurrence(lam, n)
    assert hook == count_ssyt(lam, n)


def _weyl_dimension(lam, n):
    """prod over i < j <= n of (lam_i - lam_j + j - i)/(j - i)."""
    if len(lam) > n:
        return 0
    parts = list(lam) + [0] * (n - len(lam))
    value = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            value *= Fraction(parts[i] - parts[j] + j - i, j - i)
    assert value.denominator == 1
    return value.numerator


# many bounded parts, so tall and wide shapes both come up
_LARGE_SHAPES = st.lists(st.integers(min_value=1, max_value=12), max_size=9).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@given(_LARGE_SHAPES, st.integers(min_value=0, max_value=16))
@example(Partition((3000, 1500)), 5)
@example(Partition((5, 5, 5)), 20)
def test_hook_content_matches_weyl_beyond_the_cross_check(lam, n):
    # dim_schur_module re-derives only small inputs by the recurrence
    assume(lam.size > _CROSS_CHECK_LIMIT or n > _CROSS_CHECK_LIMIT)
    assert schur_ones_hook_content(lam, n) == _weyl_dimension(lam, n)


def test_zero_exactly_when_too_many_rows():
    for lam in partitions_up_to(6):
        for n in range(0, 7):
            value = schur_ones_hook_content(lam, n)
            assert (value == 0) == (len(lam) > n)


def test_strictly_increasing_in_alphabet():
    for lam in partitions_up_to(6):
        if not lam:
            continue
        previous = schur_ones_hook_content(lam, len(lam))
        for n in range(len(lam) + 1, 8):
            current = schur_ones_hook_content(lam, n)
            assert current > previous, (lam, n)
            previous = current


def test_hook_shape_closed_form():
    for d in range(2, 7):
        for n in range(2, 9):
            assert hook_shape_dimension(d, n) == schur_ones_hook_content(
                Partition((d, 1)), n
            )


def test_two_row_rectangle_closed_form():
    for d in range(2, 6):
        for n in range(2, 9):
            assert two_row_rectangle_dimension(d, n) == schur_ones_hook_content(
                Partition((d, d)), n
            )
    assert two_row_rectangle_dimension(3, 1) == 0
    assert two_row_rectangle_dimension(3, 0) == 0


def test_ratio_gain_nonnegative():
    for lam in partitions_up_to(6):
        if not lam:
            continue
        for k in range(2, 8):
            assert dimension_ratio_gain(lam, k) >= 0, (lam, k)


def test_ratio_gain_unit_fraction():
    for lam in partitions_up_to(6):
        for k in range(2, 8):
            if 2 <= len(lam) <= k - 1:
                assert dimension_ratio_gain(lam, k) >= Fraction(1, k), (lam, k)


def test_ratio_gain_at_least_one():
    skipped = {Partition((1,)), Partition((2,)), Partition((1, 1))}
    for lam in partitions_up_to(6):
        if not lam or lam in skipped:
            continue
        for k in range(3, 8):
            if len(lam) <= k - 2:
                assert dimension_ratio_gain(lam, k) >= 1, (lam, k)


def test_symmetric_power_ratio_gain():
    for d in range(3, 9):
        for alpha in range(2, 9):
            assert symmetric_power_ratio_gain(d, alpha) >= 1, (d, alpha)
    # the gain also matches the single-row shape computed the generic way
    for d in range(3, 6):
        for alpha in range(2, 6):
            assert symmetric_power_ratio_gain(d, alpha) == dimension_ratio_gain(
                Partition((d,)), alpha
            )


def test_rejects_negative_alphabet():
    with pytest.raises(ValueError):
        schur_ones_hook_content(Partition((2, 1)), -1)
    with pytest.raises(ValueError):
        schur_ones_recurrence(Partition((2, 1)), -1)
    with pytest.raises(ValueError):
        dimension_ratio_gain(Partition((2, 1)), 1)
