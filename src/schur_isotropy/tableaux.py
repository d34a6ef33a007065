"""Semistandard tableaux of a shape: the reference walk and count.

``count_ssyt`` counts fillings column by column without listing them;
``weight_vectors`` walks every filling row by row and records only its
weight.  Both oracle routes read that multiset from ``schur.weight_counts``,
built from smaller shapes; the tests check it against this walk.  No oracle
call loads this module; ``self-check`` reruns the count.  The walk's size
cap is checked against Weyl's dimension product, which equals the number of
fillings; ``count_ssyt`` stays an independent count of it.
"""

from __future__ import annotations

from itertools import accumulate, combinations, combinations_with_replacement, islice
from math import comb
from operator import add, gt
from typing import Iterator

from .errors import DEFAULT_ENUMERATION_CAP
from .partitions import Partition
from .schur import _refuse_over_fillings, schur_ones_hook_content


def count_ssyt(shape: Partition, max_entry: int) -> int:
    """Exact number of semistandard fillings with entries in 1..max_entry.

    Runs a memoized column-by-column dynamic program (columns are strictly
    increasing subsets; adjacent columns must weakly increase along rows), so
    counting stays feasible far beyond the enumeration cap.  Deliberately
    independent of Weyl's dimension product so the two can cross-check
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


def _rows_between(start: int, end: int, width: int) -> int:
    """Number of nondecreasing rows of ``width`` entries from range(start, end)."""
    return comb(max(end - start, 0) + width - 1, width)


def weight_vectors(
    shape: Partition,
    max_entry: int,
    max_tableaux: int = DEFAULT_ENUMERATION_CAP,
) -> list[tuple[int, ...]]:
    """Weight vector of every semistandard filling, with multiplicity.

    Slot i of a weight counts the entries equal to i+1.  Fillings are
    walked in lexicographic order of their row-major reading word, and the
    weights come out in that order.  Raises SizeGuard before any walk when
    the count of fillings, predicted by Weyl's dimension product, exceeds
    ``max_tableaux``; a shape with more rows than ``max_entry`` yields the
    empty list.
    """
    if max_entry < 0:
        raise ValueError(f"max_entry must be nonnegative, got {max_entry}")
    shape = Partition(shape)
    if not shape:
        return [(0,) * max_entry]
    if len(shape) > max_entry:
        return []
    predicted = schur_ones_hook_content(shape, max_entry)
    _refuse_over_fillings(shape, max_entry, predicted, max_tableaux)
    heights = shape.conjugate()

    # Beneath a row whose every column has exactly as many free entries left
    # as cells, the rest of the filling is forced: column c takes
    # above[c]+1..max_entry.  forced() gives what those entries add to the
    # weight (slot v gains the columns with above[c] <= v), or None.
    def forced(r: int, above: tuple[int, ...]) -> Iterator[int] | None:
        width = shape[r]
        if any(max_entry - above[c] != heights[c] - r for c in range(width)):
            return None
        starts = [0] * (max_entry + 1)
        for c in range(width):
            starts[above[c]] += 1
        return accumulate(starts)

    # stack[r]: the row above row r and the nondecreasing rows, in lex order,
    # tried beneath it; rows[r]: the one placed, taken back on return to r.
    # A row's entries stop where its last column has room for the cells
    # below, and its first entry where the first column has; without these
    # bounds a tall column would cost exponential time for its single
    # filling, and a tall hook's first row h^2/2 dead tries.  The rows with
    # a first entry below first_end are a prefix of the lex order.
    def below(r: int, above: tuple[int, ...]) -> tuple[tuple[int, ...], Iterator]:
        width, start = shape[r], above[0] + 1
        end = max_entry + r + 2 - heights[width - 1]
        first_end = max(start, max_entry + r + 2 - heights[0])
        tries = _rows_between(start, end, width) - _rows_between(first_end, end, width)
        candidates = combinations_with_replacement(range(start, end), width)
        return above, islice(candidates, tries)

    rest = forced(0, (0,) * shape[0])
    if rest is not None:
        return [tuple(islice(rest, max_entry))]
    rows, counts, found = [], [0] * max_entry, []
    stack = [below(0, (0,) * shape[0])]
    while stack:
        if len(rows) == len(stack):
            for value in rows.pop():
                counts[value - 1] -= 1
        last = len(stack) == len(shape)
        above, tries = stack[-1]
        for row in tries:
            if not all(map(gt, row, above)):
                continue
            for value in row:
                counts[value - 1] += 1
            if last:
                found.append(tuple(counts))
            else:
                rest = forced(len(stack), row)
                if rest is None:
                    rows.append(row)
                    stack.append(below(len(rows), row))
                    break
                found.append(tuple(map(add, counts, rest)))
            for value in row:
                counts[value - 1] -= 1
        else:
            stack.pop()
    return found
