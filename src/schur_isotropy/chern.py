"""Non-vanishing of the top Chern class of Schur-functor bundles on Gr(k, n).

Two exact computations of the same class, the machine-checkable counterpart
of the closed-form decision rules:

``top_chern_nonzero`` builds the splitting-principle product of linear forms
indexed by tableau weights, starting from the Vandermonde product and
dropping every monomial with an exponent >= n as it multiplies, then reads
the Schur coefficients of the shapes inside the k x (n - k) box; every
other class vanishes on the Grassmannian.  What survives decides the verdict
and is reported.

``localization_integrals`` computes one number per n, the degree of the
class times sigma_1^(k(n-k)-D), as an Atiyah-Bott sum over the C(n, k)
torus-fixed points (Atiyah and Bott, Topology 1984); one pass over the
fixed points of the largest n serves every smaller n too.  The bundle is
globally generated, so the class is a nonnegative sum of Schubert classes
(Fulton and Lazarsfeld, Ann. Math. 1983) and sigma_1^m meets each of them
positively: the number is positive exactly when the class is nonzero.
``run_sweep`` takes its oracle verdicts from it wherever its predicted cost
is under LOCALIZATION_COST_CAP.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import combinations
from math import comb, factorial, prod
from operator import add
from typing import Iterable, NamedTuple

from .errors import (
    InternalCheckError,
    InternalNonIntegral,
    InvalidRange,
    SizeGuard,
    ZeroBundle,
)
from .partitions import Partition
from .schur import schur_ones_hook_content
from .sympoly import DEFAULT_TERM_CAP, box_schur_expand
from .tableaux import DEFAULT_ENUMERATION_CAP, weight_vectors

SHORTCUT_NONE = "none"
SHORTCUT_DEGREE = "degree-exceeds-top"
SHORTCUT_EMPTY = "empty-weights"

# The localization_cost, at any one n, above which localization_integrals
# refuses to start.
# Measured at the cap on a 2-core x86_64: about 1-2 s for k >= 2, about 7 s
# at k = 1 (n near 5480), where each point's integers run to n * log2(n) bits.
LOCALIZATION_COST_CAP = 30_000_000


class ChernVerdict(NamedTuple):
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


def localization_cost(k: int, n: int, degree: int) -> int:
    """Predicted work of the localization sum on Gr(k, n) for a bundle of rank degree.

    Each of the C(n, k) fixed points makes one pass over the distinct
    weights (at most degree of them) and multiplies its k(n - k) linear
    factors, which also set the size of its integers.
    """
    return comb(n, k) * (degree + k * (n - k))


def localization_integrals(
    shape: Partition,
    k: int,
    ns: Iterable[int],
    max_tableaux: int = DEFAULT_ENUMERATION_CAP,
) -> dict[int, int]:
    """The degree of c_D(S_shape(S^*)) * sigma_1^(k(n-k)-D) on Gr(k, n), per n in ns.

    Atiyah-Bott localization: a fixed point of Gr(k, n) is a k-subset I of
    0..n-1, where each tableau weight w gives the Chern root w.t_I, the lift
    of sigma_1 is the sum of t_I and the tangent weights are t_j - t_i (i in
    I, j not in I).  One pass over the subsets of 0..N-1, N the largest n,
    answers every n at once: a point I is a fixed point of Gr(k, n) for
    every n > max(I), and its product of roots times V(I)^2 does not depend
    on n, so it is formed once and added to each such n's sum.

    The torus weights are t_i = 2i - (N - 1), centred on 0 so that many
    roots and lifts vanish and their points are skipped.  Any distinct
    weights give the same integral, and with tangent weights 2(j - i) their
    product over all j != i is 2^(n-1) (-1)^i i! (n-1-i)!: the sum runs over
    plain integers, V(I)^2 * prod (-1)^i C(n-1, i) standing in for the
    inverse tangent Euler class, and ends in one exact division by
    ((n-1)!)^k * 2^(k(n-k)), which undoes the factor 2 on each of the
    k(n-k) roots and lifts of a term.  A remainder or a negative value
    raises InternalCheckError.  Positive exactly when the top Chern class
    is nonzero (see the module docstring); 0 without work when D > k(n - k).
    Raises SizeGuard before any work when localization_cost at some n
    exceeds LOCALIZATION_COST_CAP.
    """
    if k < 1:
        raise InvalidRange(f"k must be positive, got {k}")
    ns = sorted(set(ns))
    for n in ns:
        if n < k:
            raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={n}")
    shape = Partition(shape)
    if len(shape) > k:
        raise ZeroBundle(
            f"shape {shape.as_text()} has more than k={k} rows; the bundle is zero"
        )
    degree = schur_ones_hook_content(shape, k)
    values = dict.fromkeys(ns, 0)
    work = [n for n in ns if shape and degree <= k * (n - k)]
    for n in work:
        cost = localization_cost(k, n, degree)
        if cost > LOCALIZATION_COST_CAP:
            raise SizeGuard(
                f"localization on Gr({k},{n}) predicts cost {cost}"
                f" ({comb(n, k)} fixed points times {degree} + {k * (n - k)}),"
                f" over the cap {LOCALIZATION_COST_CAP}"
            )
    if not work:
        return values
    largest = work[-1]
    t = [2 * i - (largest - 1) for i in range(largest)]
    weights, mults = zip(*Counter(weight_vectors(shape, k, max_tableaux)).items())
    # steps[s][i]: what entry s = i adds to the dot product with each weight
    steps = [[[c * ti for c in column] for ti in t] for column in zip(*weights)]
    # per n: the signed binomials and the power of sigma_1; first[m] is the
    # index of the first n > m
    signed = [[(-1) ** i * comb(n - 1, i) for i in range(n)] for n in work]
    exponents = [k * (n - k) - degree for n in work]
    first = [bisect_right(work, m) for m in range(largest)]
    totals = [0] * len(work)
    # prefix[s] holds, for the first s entries of a fixed point: the partial
    # dot products with every weight, the squared Vandermonde of the entries
    # and the partial lift.  Fixed points come in lex order, so consecutive
    # ones share all but a short suffix.
    prefix = [([0] * len(mults), 1, 0)] + [None] * k
    start = 0
    for point in combinations(range(largest), k):
        for s in range(start, k):
            i = point[s]
            dots, vandermonde, lift = prefix[s]
            prefix[s + 1] = (
                list(map(add, dots, steps[s][i])),
                vandermonde * prod(i - a for a in point[:s]) ** 2,
                lift + t[i],
            )
        start = k - 1
        while start and point[start] == largest - k + start:
            start -= 1
        dots, vandermonde, lift = prefix[k]
        if 0 in dots:
            continue
        product = prod(map(pow, dots, mults)) * vandermonde
        for j in range(first[point[-1]], len(work)):
            power = lift ** exponents[j]
            if power:
                totals[j] += product * (power * prod(map(signed[j].__getitem__, point)))
    for n, total in zip(work, totals):
        top = k * (n - k)
        if (k * (k - 1) // 2 + top) % 2:
            total = -total
        value, remainder = divmod(total, factorial(n - 1) ** k << top)
        if remainder:
            raise InternalNonIntegral(
                f"localization sum for {shape.as_text()} on Gr({k},{n}) is not"
                f" divisible by ((n-1)!)^k * 2^(k(n-k))"
            )
        if value < 0:
            raise InternalCheckError(
                f"localization integral for {shape.as_text()} on Gr({k},{n}) is"
                f" negative ({value})"
            )
        values[n] = value
    return values
