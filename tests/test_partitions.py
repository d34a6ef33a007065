import pytest
from hypothesis import given
from hypothesis import strategies as st

from schur_isotropy.errors import (
    MalformedInput,
    NonPositivePart,
    NotWeaklyDecreasing,
)
from schur_isotropy.isotropy import decide
from schur_isotropy.partitions import (
    Partition,
    horizontal_strip_predecessors,
    parse_partition,
    partitions_of,
    partitions_up_to,
    strip_full_height_columns,
)

from conftest import partitions


def test_parse_basic():
    assert parse_partition("2,1") == Partition((2, 1))
    assert parse_partition("") == Partition()
    assert parse_partition("   ") == Partition()
    assert parse_partition(" 3 , 2 , 2 ") == Partition((3, 2, 2))


def test_parse_rejects_unsorted_instead_of_sorting():
    with pytest.raises(NotWeaklyDecreasing):
        parse_partition("1,2")
    with pytest.raises(NotWeaklyDecreasing, match="parts 1,2 increase"):
        parse_partition("3,1,2")


def test_parse_rejects_nonpositive_parts():
    with pytest.raises(NonPositivePart):
        parse_partition("0")
    with pytest.raises(NonPositivePart):
        parse_partition("3,0")
    with pytest.raises(NonPositivePart):
        parse_partition("-1")
    with pytest.raises(NonPositivePart):
        parse_partition("2,3,0")


def test_parse_rejects_malformed_tokens():
    with pytest.raises(MalformedInput):
        parse_partition("a")
    with pytest.raises(MalformedInput):
        parse_partition("2,,1")
    with pytest.raises(MalformedInput):
        parse_partition("2.5")


def test_constructor_strips_trailing_zeros():
    assert Partition((2, 1, 0, 0)) == Partition((2, 1))
    assert Partition((0,)) == Partition()


def test_constructor_validates():
    with pytest.raises(NotWeaklyDecreasing):
        Partition((1, 2))
    with pytest.raises(NonPositivePart):
        Partition((2, -1))


def test_a_partition_passes_through_unchanged():
    lam = Partition((3, 1))
    assert Partition(lam) is lam
    empty = Partition()
    assert Partition(empty) is empty
    # every other input is still normalized or validated
    assert type(Partition([3, 1])) is Partition
    assert Partition([3, 1]) == lam
    assert Partition((3, 1, 0)) == lam
    assert Partition(p for p in (3, 1)) == lam
    with pytest.raises(NotWeaklyDecreasing):
        Partition([1, 3])
    with pytest.raises(NonPositivePart):
        Partition((3, -1))
    with pytest.raises(MalformedInput):
        Partition((3, 1.0))
    with pytest.raises(MalformedInput):
        Partition(("3", "1"))


@pytest.mark.parametrize("parts", [(True,), (2, True), (2, False), (2, 0.0)])
def test_constructor_rejects_bools_and_non_integer_zeros(parts):
    with pytest.raises(MalformedInput):
        Partition(parts)
    with pytest.raises(MalformedInput):
        decide(parts, 3, 6)


def test_partition_accessors():
    lam = Partition((3, 1))
    assert len(lam) == 2
    assert lam.size == 4
    assert lam[0] == 3
    assert lam.part(1) == 3
    assert lam.part(2) == 1
    assert lam.part(3) == 0
    assert lam.as_text() == "3,1"
    assert Partition().as_text() == ""


def test_conjugate_known_values():
    assert Partition((3, 2, 1)).conjugate() == Partition((3, 2, 1))
    assert Partition((4, 2)).conjugate() == Partition((2, 2, 1, 1))
    assert Partition().conjugate() == Partition()


@given(partitions(max_size=10))
def test_conjugate_is_an_involution(lam):
    # the conjugate is built without a second validation, so check it here
    assert lam.conjugate() == Partition(tuple(lam.conjugate()))
    assert type(lam.conjugate()) is Partition
    assert lam.conjugate().conjugate() == lam


@given(partitions(max_size=10))
def test_conjugate_preserves_size(lam):
    assert lam.conjugate().size == lam.size


def test_horizontal_strip_predecessors_two_one():
    assert horizontal_strip_predecessors(Partition((2, 1))) == [
        Partition((2, 1)),
        Partition((2,)),
        Partition((1, 1)),
        Partition((1,)),
    ]


def test_horizontal_strip_predecessors_edges():
    assert horizontal_strip_predecessors(Partition((1,))) == [
        Partition((1,)),
        Partition(),
    ]
    assert horizontal_strip_predecessors(Partition()) == [Partition()]
    assert horizontal_strip_predecessors(Partition((3,))) == [
        Partition((j,)) for j in (3, 2, 1, 0)
    ]


def _is_horizontal_strip(lam, mu):
    """Independent oracle straight from the definition: mu fits inside lam
    and the skew difference has at most one box in every column."""
    if not lam.contains(mu):
        return False
    lam_cols = lam.conjugate()
    mu_cols = mu.conjugate()
    return all(
        lam_cols[c] - mu_cols.part(c + 1) <= 1 for c in range(len(lam_cols))
    )


def test_strip_predecessors_match_column_definition():
    for lam in partitions_up_to(6):
        preds = set(horizontal_strip_predecessors(lam))
        for mu in partitions_up_to(lam.size):
            assert (mu in preds) == _is_horizontal_strip(lam, mu), (lam, mu)


def test_strip_full_height_columns():
    assert strip_full_height_columns(Partition((3, 3, 1))) == Partition((2, 2))
    assert strip_full_height_columns(Partition((4, 4, 4))) == Partition()
    assert strip_full_height_columns(Partition((2, 1))) == Partition((1,))


def test_partitions_of_order_and_count():
    fours = list(partitions_of(4))
    assert fours == [
        Partition((4,)),
        Partition((3, 1)),
        Partition((2, 2)),
        Partition((2, 1, 1)),
        Partition((1, 1, 1, 1)),
    ]
    # partition numbers p(0)..p(8)
    counts = [sum(1 for _ in partitions_of(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


@given(partitions(max_size=8))
def test_parse_round_trip(lam):
    assert parse_partition(lam.as_text()) == lam
