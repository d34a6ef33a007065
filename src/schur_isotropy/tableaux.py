"""Semistandard tableau enumeration, counting, and weight vectors."""

from __future__ import annotations

from itertools import combinations

from .errors import SizeGuard
from .partitions import Partition

DEFAULT_ENUMERATION_CAP = 1_000_000


class Tableau:
    """A filling of a shape with rows weakly increasing and columns strictly increasing."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        for i, row in enumerate(rows):
            if not row:
                raise ValueError("empty row in tableau")
            if i and len(row) > len(rows[i - 1]):
                raise ValueError("row lengths must be weakly decreasing")
            for j, value in enumerate(row):
                if value < 1:
                    raise ValueError(f"entry {value} is not positive")
                if j and row[j - 1] > value:
                    raise ValueError(f"row {i + 1} is not weakly increasing")
                if i and rows[i - 1][j] >= value:
                    raise ValueError(f"column {j + 1} is not strictly increasing")
        self.rows = rows

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self.rows)

    def weight(self, max_entry: int) -> tuple[int, ...]:
        """Length ``max_entry`` vector whose i-th slot counts entries equal to i+1."""
        counts = [0] * max_entry
        for row in self.rows:
            for value in row:
                counts[value - 1] += 1
        return tuple(counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tableau({[list(row) for row in self.rows]})"


def count_ssyt(shape: Partition, max_entry: int) -> int:
    """Exact number of semistandard fillings with entries in 1..max_entry.

    Runs a memoized column-by-column dynamic program (columns are strictly
    increasing subsets; adjacent columns must weakly increase along rows), so
    counting stays feasible far beyond the enumeration cap.  Deliberately
    independent of the hook-content evaluation so the two can cross-check
    each other.
    """
    if max_entry < 0:
        raise ValueError(f"max_entry must be nonnegative, got {max_entry}")
    shape = Partition(shape)
    if not shape:
        return 1
    if len(shape) > max_entry:
        return 0
    heights = shape.conjugate()
    fillings = {
        h: list(combinations(range(1, max_entry + 1), h)) for h in set(heights)
    }
    # ways[filling of column j] = number of completions of the columns to its right
    ways = {filling: 1 for filling in fillings[heights[-1]]}
    for j in range(len(heights) - 2, -1, -1):
        right_height = heights[j + 1]
        new_ways = {}
        for left in fillings[heights[j]]:
            total = 0
            for right, count in ways.items():
                if all(right[i] >= left[i] for i in range(right_height)):
                    total += count
            if total:
                new_ways[left] = total
        ways = new_ways
    return sum(ways.values())


def enumerate_ssyt(
    shape: Partition,
    max_entry: int,
    max_tableaux: int = DEFAULT_ENUMERATION_CAP,
) -> list[Tableau]:
    """All semistandard fillings in a fixed lexicographic order.

    The order is lexicographic on the row-major reading word.  Raises
    SizeGuard when the predicted count exceeds ``max_tableaux``; a shape
    with more rows than ``max_entry`` yields the empty list.
    """
    if max_entry < 0:
        raise ValueError(f"max_entry must be nonnegative, got {max_entry}")
    shape = Partition(shape)
    if not shape:
        return [Tableau(())]
    if len(shape) > max_entry:
        return []
    predicted = count_ssyt(shape, max_entry)
    if predicted > max_tableaux:
        raise SizeGuard(
            f"{predicted} tableaux of shape {shape.as_text()} with entries"
            f" up to {max_entry} exceeds the cap {max_tableaux}"
        )
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid = [[0] * width for width in shape]
    found: list[Tableau] = []

    def fill(index: int) -> None:
        if index == len(cells):
            found.append(Tableau(tuple(tuple(row) for row in grid)))
            return
        r, c = cells[index]
        lowest = 1
        if c:
            lowest = max(lowest, grid[r][c - 1])
        if r:
            lowest = max(lowest, grid[r - 1][c] + 1)
        for value in range(lowest, max_entry + 1):
            grid[r][c] = value
            fill(index + 1)
        grid[r][c] = 0

    fill(0)
    return found


def weight_vectors(
    shape: Partition,
    max_entry: int,
    max_tableaux: int = DEFAULT_ENUMERATION_CAP,
) -> list[tuple[int, ...]]:
    """Weight vector of every filling, with multiplicity, in enumeration order."""
    return [
        tableau.weight(max_entry)
        for tableau in enumerate_ssyt(shape, max_entry, max_tableaux)
    ]
