"""Exact evaluation of Schur polynomials at (1, ..., 1): dim S_shape(C^n).

The one dimension function is Weyl's product (Fulton and Harris, Thm. 6.3)
by blocks of equal parts; ``proofs`` holds the horizontal-strip recurrence
that checks it.  The value is the number of fillings, which the enumeration
cap reads.  ``fillings`` builds them by the branching rule as a count and
one column per entry, the weights of the fillings read across the columns:
those weights are the Chern roots that ``chern`` packs.  ``weight_counts``
counts the same rows into the weight multiset that ``sympoly`` multiplies.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .errors import InternalNonIntegral, SizeGuard, ZeroBundle, _refuse_over
from .partitions import Partition, horizontal_strip_predecessors

# the most steps of Weyl's product, never more than the boxes; on a 2-core
# x86_64 a staircase of 1000 rows (500500 steps) takes about 25 s, and one of
# 1413 rows, just under the cap, about 80 s
_STEP_CAP = 10**6


def schur_ones_hook_content(shape: Partition, n: int) -> int:
    """Weyl's product over rows i < j <= n of (shape_i - shape_j + j - i)/(j - i).

    A pair of rows inside a block of equal parts gives 1.  A block of a rows
    against a later one of b rows (the n - rows zero rows last), d apart in
    part, gives C(d + t, b)/C(t, b) per upper row or C(a + t, b)/C(t, b) per
    unit of d, whichever are fewer, t counting up from the distance between
    the blocks' last rows: a row (d) is C(n+d-1, d) and a column 1^d C(n, d).
    Steps over _STEP_CAP, counted as min(a, part) per later block, raise
    SizeGuard before the first.  The division at the end must be exact; a
    shape with more rows than n has the value 0.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    shape = Partition(shape)
    if len(shape) > n:
        return 0
    ends = {part: row for row, part in enumerate(shape, 1)}  # each part, its block's last row
    if len(shape) * len(ends) > _STEP_CAP:  # the steps are at most this; count them closer
        tops = (0, *ends.values())
        bound = sum(min(end - top, part) * (len(ends) - upper)
                    for upper, ((part, end), top) in enumerate(zip(ends.items(), tops)))
        _refuse_over(bound, _STEP_CAP, "steps of Weyl's product")
    blocks = [*ends.items(), (0, n)]
    numerator = denominator = 1
    top = 0
    for upper, (part, end) in enumerate(ends.items()):
        above, first = end - top, end
        over = under = 1  # this block's factors; the running product grows once per block
        for lower, stop in blocks[upper + 1:]:
            below, diff = stop - first, part - lower
            steps, width = (above, diff) if above < diff else (diff, above)
            for t in range(stop - end, stop - end + steps):
                over *= comb(width + t, below)
                under *= comb(t, below)
            first = stop
        numerator *= over
        denominator *= under
        top = end
    dimension, remainder = divmod(numerator, denominator)
    if remainder:
        raise InternalNonIntegral(f"Weyl's product for {shape!r}, n={n}"
                                  f" gave {numerator}/{denominator}")
    return dimension


def _refuse_over_fillings(shape: Partition, max_entry: int, count: int, cap: int) -> None:
    """Raise SizeGuard when count, the fillings up to max_entry, exceeds cap."""
    if count > cap:
        raise SizeGuard(
            f"{count} tableaux of shape {shape.as_text()} with entries"
            f" up to {max_entry} exceeds the cap {cap}"
        )


def _refuse_zero_bundle(shape: Partition, k: int) -> None:
    """Raise ZeroBundle when shape has more than k rows."""
    if len(shape) > k:
        raise ZeroBundle(
            f"shape {shape.as_text()} has more than k={k} rows; the bundle is zero"
        )


def fillings(shape: Partition, max_entry: int, table: dict) -> tuple[int, list[list[int]]]:
    """(count, columns) of the semistandard fillings of shape with entries up
    to max_entry: column j lists, one entry per filling, how many j + 1s it
    has.  By the branching rule, the fillings of (shape, m) are those of
    (mu, m - 1), over the mu with shape/mu a horizontal strip (the entries
    m), each with |shape| - |mu| entries m: each column joins the strips'
    columns, and the last is new.  The shapes each alphabet needs are listed
    from max_entry down, then built up one alphabet at a time, in the memory
    of two however large max_entry is.  ``table`` keeps each
    (shape, max_entry) asked for and answers it again; the columns belong to
    it, so a caller reads them and changes none.
    """
    shape = Partition(shape)
    levels, level, m = [], {shape: None}, max_entry
    while level:  # per alphabet, the shapes to build with their strips, and the known
        build, known, below = {}, {}, {}
        for lam in level:
            found = table.get((lam, m))
            if found:
                known[lam] = found
            elif not lam:
                known[lam] = 1, [[0]] * m
            elif len(lam) > m:
                known[lam] = 0, [[]] * m
            else:  # a strip that keeps m rows leaves no filling with m - 1 entries
                strips = horizontal_strip_predecessors(lam)
                if len(lam) == m:
                    strips = [mu for mu in strips if len(mu) < m]
                build[lam] = strips
                below.update(dict.fromkeys(strips))
        levels.append((build, known))
        level, m = below, m - 1
    built = {}
    while levels:  # up from the last alphabet, the one below it dropped as it goes
        below, m = built, m + 1
        build, built = levels.pop()
        for lam, strips in build.items():
            count, columns, size = 0, [[] for _ in range(m)], sum(lam)
            for mu in strips:
                c, part = below[mu]
                count += c
                any(map(list.extend, columns, part))  # extend gives None: all run
                columns[-1] += [size - sum(mu)] * c
            built[lam] = count, columns
    table[shape, max_entry] = built[shape]
    return built[shape]


def weight_counts(shape: Partition, max_entry: int, table: dict) -> Counter:
    """{weight: the number of fillings with it}, the multiset of
    tableaux.weight_vectors, from the rows of fillings(shape, max_entry,
    table): slot j of a weight counts the entries j + 1.
    """
    count, columns = fillings(shape, max_entry, table)
    return Counter(zip(*columns) if columns else [()] * count)
