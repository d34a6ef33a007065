"""Exact evaluation of Schur polynomials at (1, ..., 1): dim S_shape(C^n).

The one dimension function: C(n+d-1, d) for a row (d), C(n, d) for a
column 1^d, the hook-content product otherwise.  The verification route,
the horizontal-strip recurrence, lives in ``proofs`` with the identities
that compare the two.  The value is the number of fillings, which the
enumeration cap reads; ``weight_counts`` lists their weights, the Chern
roots that both oracle routes, ``chern`` and ``sympoly``, read.
"""

from __future__ import annotations

from math import comb

from .errors import InternalNonIntegral, SizeGuard, ZeroBundle
from .partitions import Partition, horizontal_strip_predecessors

# the most boxes the hook-content product takes; its time grows about as the
# square of the boxes: (200000, 2) takes about 20 s, the cap about 10 minutes
_BOX_CAP = 10**6


def schur_ones_hook_content(shape: Partition, n: int) -> int:
    """Product over boxes of (n + content)/(hook length), exactly.

    The box in row i, column j has content j - i and hook length
    (shape[i] - j) + (conjugate[j] - i) + 1.  Numerators and hook lengths
    are multiplied as integers row by row and divided once at the end,
    which must be exact.  A shape with more rows than n picks up a zero
    factor and the value is 0.  A one-row or one-column shape takes the
    product's closed form, a binomial, without the quadratic product; any
    other shape over _BOX_CAP boxes raises SizeGuard before it is conjugated.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    shape = Partition(shape)
    if len(shape) == 1:
        return comb(n + shape[0] - 1, shape[0])
    if shape and shape[0] == 1:
        return comb(n, len(shape))
    if shape.size > _BOX_CAP:
        raise SizeGuard(f"a shape of {shape.size} boxes exceeds the box cap {_BOX_CAP}")
    heights = shape.conjugate()
    numerator = hooks = 1
    for i, width in enumerate(shape, start=1):
        for j in range(1, width + 1):
            numerator *= n + j - i
            hooks *= (width - j) + (heights[j - 1] - i) + 1
    if numerator % hooks:
        raise InternalNonIntegral(
            f"hook-content product for {shape!r}, n={n} gave {numerator}/{hooks}"
        )
    return numerator // hooks


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


def weight_counts(shape: Partition, max_entry: int, table: dict) -> dict[tuple, int]:
    """{weight: the number of fillings with it}, the multiset of
    tableaux.weight_vectors, by the branching rule: W(shape, m) is the union
    over the mu with shape/mu a horizontal strip (the entries m) of
    W(mu, m - 1) times |shape| - |mu|.  The shapes each alphabet needs are
    listed from max_entry down, then built up one alphabet at a time, in the
    memory of two however large max_entry is.  ``table`` keeps each
    (shape, max_entry) asked for and answers it again.
    """
    shape = Partition(shape)
    levels, m = [{shape: None}], max_entry  # per alphabet, shapes and strips
    while m and levels[-1]:
        below = {}
        for lam in levels[-1]:
            if lam and (lam, m) not in table and len(lam) <= m:
                levels[-1][lam] = strips = horizontal_strip_predecessors(lam)
                below.update(dict.fromkeys(strips))
        levels.append(below)
        m -= 1
    built = {}
    for m, level in zip(range(m, max_entry + 1), reversed(levels)):
        built, below = {}, built
        for lam, strips in level.items():
            found = built[lam] = table.get((lam, m), {} if lam else {(0,) * m: 1})
            for mu in strips or ():
                last = (lam.size - mu.size,)
                for weight, count in below[mu].items():
                    weight += last
                    found[weight] = found.get(weight, 0) + count
    table[shape, max_entry] = built[shape]
    return built[shape]
