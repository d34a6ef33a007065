"""Exact evaluation of Schur polynomials at (1, ..., 1) by the hook-content product.

The verification route, the horizontal-strip recurrence, lives in
``proofs`` with the identities that compare the two.
"""

from __future__ import annotations

from .errors import InternalNonIntegral
from .partitions import Partition


def schur_ones_hook_content(shape: Partition, n: int) -> int:
    """Product over boxes of (n + content)/(hook length), exactly.

    The box in row i, column j has content j - i and hook length
    (shape[i] - j) + (conjugate[j] - i) + 1.  Numerators and hook lengths
    are multiplied as integers row by row and divided once at the end,
    which must be exact.  A shape with more rows than n picks up a zero
    factor and the value is 0.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    shape = Partition(shape)
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
