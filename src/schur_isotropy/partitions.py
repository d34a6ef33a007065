"""Partition shapes: parsing, conjugation, strips, and enumeration by size."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from .errors import (
    EmptyPartition,
    MalformedInput,
    NonPositivePart,
    NotWeaklyDecreasing,
)


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.

    Trailing zeros are stripped on construction, so every shape has a single
    canonical value and the empty partition is ``Partition()``.  Constructing
    from a ``Partition`` returns it unchanged, without validating it again;
    any other iterable is validated.  Instances compare and hash as plain
    tuples, which also gives lexicographic order.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts
        parts = tuple(parts)
        for p in parts:
            # bool is an int subclass, but True is no part and False no zero
            if isinstance(p, bool) or not isinstance(p, int):
                raise MalformedInput(f"part {p!r} is not an integer")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        previous = None
        for p in parts:
            if p <= 0:
                raise NonPositivePart(f"part {p} is not positive")
            if previous is not None and p > previous:
                raise NotWeaklyDecreasing(f"parts {previous},{p} increase")
            previous = p
        return super().__new__(cls, parts)

    def __repr__(self) -> str:
        return f"Partition({', '.join(map(str, self))})"

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self)

    def conjugate(self) -> "Partition":
        """Shape reflected along the main diagonal."""
        # from the bottom row up, each row adds the columns beyond the rows
        # below it; the heights come out valid, so they skip the validation
        heights = []
        for rows in range(len(self), 0, -1):
            heights += [rows] * (self[rows - 1] - len(heights))
        return tuple.__new__(Partition, heights)

    def is_rectangle(self) -> bool:
        """True when all parts are equal (vacuously true for the empty shape)."""
        return len(set(self)) <= 1

    def as_text(self) -> str:
        """Canonical interchange form "a,b,c"; empty string for the empty shape."""
        return ",".join(map(str, self))


def parse_partition(text: str) -> Partition:
    """Parse the canonical "a,b,c" form, tolerating whitespace.

    Input that is not sorted weakly decreasing is rejected rather than
    silently sorted, so typos surface instead of becoming a conjugate mix-up.
    """
    if text.strip() == "":
        return Partition()
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            parts.append(int(token))
        except ValueError:
            raise MalformedInput(f"cannot parse part {token!r}") from None
    for p in parts:
        if p <= 0:
            raise NonPositivePart(f"part {p} is not positive")
    return Partition(parts)


def horizontal_strip_predecessors(shape: Partition) -> list[Partition]:
    """All shapes obtained by deleting at most one box per column.

    Returns every ``mu`` with ``shape[i+1] <= mu[i] <= shape[i]`` (so the
    skew difference is a horizontal strip), including ``shape`` itself, in
    lexicographically decreasing order.  The empty shape yields ``[()]``.
    """
    if not shape:
        return [Partition()]
    ranges = []
    for i, width in enumerate(shape):
        low = shape[i + 1] if i + 1 < len(shape) else 0
        ranges.append(range(low, width + 1))
    # each choice is weakly decreasing with positive parts but perhaps the
    # last, so dropping a last 0 leaves it valid without the validation
    strips = [choice if choice[-1] else choice[:-1] for choice in product(*ranges)]
    return sorted((tuple.__new__(Partition, mu) for mu in strips), reverse=True)


def strip_full_height_columns(shape: Partition) -> Partition:
    """Delete every column whose height equals the number of rows.

    A rectangle strips all the way down to the empty shape.
    """
    if not shape:
        raise EmptyPartition("nothing to strip")
    return Partition(p - shape[-1] for p in shape)


def partitions_of(total: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``total`` in lexicographically decreasing order."""
    if max_part is None or max_part > total:
        max_part = total
    if total == 0:
        yield Partition()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(total - first, first):
            yield Partition((first,) + tuple(rest))


def partitions_up_to(max_size: int) -> Iterator[Partition]:
    """All partitions of size 0 through ``max_size``, smaller sizes first."""
    for total in range(max_size + 1):
        yield from partitions_of(total)
