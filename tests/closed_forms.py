"""Closed forms for the dimension of two shape families, used as golden values."""

from fractions import Fraction
from math import comb

from schur_isotropy.errors import InternalNonIntegral


def hook_shape_dimension(d: int, n: int) -> int:
    """Closed form for the shape (d, 1): d(n-1)/(d+1) * C(n+d-1, d)."""
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    value = Fraction(d * (n - 1), d + 1) * comb(n + d - 1, d)
    if value.denominator != 1:
        raise InternalNonIntegral(f"hook closed form gave {value} for d={d}, n={n}")
    return value.numerator


def two_row_rectangle_dimension(d: int, n: int) -> int:
    """Closed form for the shape (d, d): (n+d-1)/((n-1)(d+1)) * C(n+d-2, d)^2."""
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
