"""Exact evaluation of Schur polynomials at (1, ..., 1).

Two independent routes are provided: the hook-content product (the
production path) and the horizontal-strip recurrence (a verification
path), plus closed forms for hook and two-row rectangle shapes used as
golden values by the test suite.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .errors import InternalMismatch, InternalNonIntegral
from .partitions import Partition, horizontal_strip_predecessors

# fractions, with the decimal and numbers modules it loads, is imported only
# by the functions that build a Fraction, so importing the package skips it.
if TYPE_CHECKING:
    from fractions import Fraction

# Below this size the production value is re-derived by the recurrence on
# every call and the two must agree.
_CROSS_CHECK_LIMIT = 8


class DimensionValue(NamedTuple):
    """Dimension of the degree-``shape`` symmetry module over C^n."""

    value: int
    shape: Partition
    n: int


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


def schur_ones_recurrence(shape: Partition, n: int) -> int:
    """Evaluate by branching over horizontal-strip predecessors.

    Uses s(shape, n) = sum of s(mu, n-1) over all mu obtained by removing a
    horizontal strip, with s(empty, j) = 1 and s(mu, 0) = 0 for nonempty mu.
    Memoized on (shape, n) within one call.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    memo: dict[tuple[Partition, int], int] = {}

    def evaluate(shape: Partition, n: int) -> int:
        if not shape:
            return 1
        if n == 0 or len(shape) > n:
            return 0
        key = (shape, n)
        if key not in memo:
            memo[key] = sum(
                evaluate(mu, n - 1) for mu in horizontal_strip_predecessors(shape)
            )
        return memo[key]

    return evaluate(Partition(shape), n)


def dim_schur_module(shape: Partition, n: int) -> DimensionValue:
    """Dimension via hook-content, cross-checked by the recurrence on small inputs."""
    shape = Partition(shape)
    value = schur_ones_hook_content(shape, n)
    if shape.size <= _CROSS_CHECK_LIMIT and n <= _CROSS_CHECK_LIMIT:
        alternate = schur_ones_recurrence(shape, n)
        if alternate != value:
            raise InternalMismatch(
                f"hook-content {value} != recurrence {alternate}"
                f" for {shape!r}, n={n}"
            )
    return DimensionValue(value, shape, n)


def hook_shape_dimension(d: int, n: int) -> int:
    """Closed form for the shape (d, 1): d(n-1)/(d+1) * C(n+d-1, d)."""
    from fractions import Fraction

    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    value = Fraction(d * (n - 1), d + 1) * comb(n + d - 1, d)
    if value.denominator != 1:
        raise InternalNonIntegral(f"hook closed form gave {value} for d={d}, n={n}")
    return value.numerator


def two_row_rectangle_dimension(d: int, n: int) -> int:
    """Closed form for the shape (d, d): (n+d-1)/((n-1)(d+1)) * C(n+d-2, d)^2."""
    from fractions import Fraction

    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    if n < 2:
        return 0
    value = Fraction(n + d - 1, (n - 1) * (d + 1)) * comb(n + d - 2, d) ** 2
    if value.denominator != 1:
        raise InternalNonIntegral(
            f"rectangle closed form gave {value} for d={d}, n={n}"
        )
    return value.numerator


def dimension_ratio_gain(shape: Partition, k: int) -> Fraction:
    """s(1^k)/k - s(1^(k-1))/(k-1) as an exact rational, for k >= 2.

    The decision procedure leans on lower bounds for this gain: it is
    nonnegative for every nonempty shape, at least 1/k when the shape has
    between 2 and k-1 rows, and at least 1 when the shape has at most k-2
    rows and is none of (1), (2), (1,1).
    """
    from fractions import Fraction

    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return Fraction(schur_ones_hook_content(shape, k), k) - Fraction(
        schur_ones_hook_content(shape, k - 1), k - 1
    )


def symmetric_power_ratio_gain(d: int, alpha: int) -> Fraction:
    """C(d+a-1, d)/a - C(d+a-2, d)/(a-1), the single-row ratio gain, for a >= 2."""
    from fractions import Fraction

    if alpha < 2:
        raise ValueError(f"alpha must be at least 2, got {alpha}")
    return Fraction(comb(d + alpha - 1, d), alpha) - Fraction(
        comb(d + alpha - 2, d), alpha - 1
    )
