"""Non-vanishing of the top Chern class of Schur-functor bundles on Gr(k, n).

Builds the splitting-principle product of linear forms indexed by tableau
weights, starting from the Vandermonde product and dropping every monomial
with an exponent >= n as it multiplies, then reads the Schur coefficients
of the shapes inside the k x (n - k) box; every other class vanishes on the
Grassmannian.  What survives decides the verdict; this is the
machine-checkable counterpart of the closed-form decision rules and is used
to cross-validate them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidRange, ZeroBundle
from .partitions import Partition
from .schur import schur_ones_hook_content
from .sympoly import DEFAULT_TERM_CAP, box_schur_expand
from .tableaux import DEFAULT_ENUMERATION_CAP, weight_vectors

SHORTCUT_NONE = "none"
SHORTCUT_DEGREE = "degree-exceeds-top"
SHORTCUT_EMPTY = "empty-weights"


@dataclass(frozen=True)
class ChernVerdict:
    """Outcome of the top-Chern-class test.

    ``degree`` is the bundle rank (the module dimension over C^k) and equals
    the cohomological degree of the class; ``surviving`` lists the Schur
    coefficients of the shapes inside the k x (n - k) box, in lex order.
    """

    nonzero: bool
    degree: int
    surviving: tuple[tuple[Partition, int], ...]
    shortcut: str


def top_chern_nonzero(
    shape: Partition,
    k: int,
    n: int,
    max_tableaux: int = DEFAULT_ENUMERATION_CAP,
    max_terms: int | None = DEFAULT_TERM_CAP,
) -> ChernVerdict:
    """Decide whether the top Chern class survives on Gr(k, n).

    When the class degree already exceeds dim Gr(k, n) = k(n - k), the class
    is zero without any polynomial work.  The empty shape contributes a zero
    Chern root (its single weight vector is all zeros), so its class is zero
    as well.  ``max_terms`` caps every intermediate product, the Vandermonde
    factors included.
    """
    if k < 1 or k > n:
        raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={n}")
    shape = Partition(shape)
    if len(shape) > k:
        raise ZeroBundle(
            f"shape {shape.as_text()} has more than k={k} rows; the bundle is zero"
        )
    degree = schur_ones_hook_content(shape, k)
    if degree > k * (n - k):
        return ChernVerdict(False, degree, (), SHORTCUT_DEGREE)
    if not shape:
        return ChernVerdict(False, degree, (), SHORTCUT_EMPTY)
    weights = weight_vectors(shape, k, max_tableaux)
    surviving = tuple(box_schur_expand(weights, k, n, max_terms).items())
    return ChernVerdict(bool(surviving), degree, surviving, SHORTCUT_NONE)
