"""Top Chern classes of Schur-functor bundles on Gr(k, n), by localization.

The machine-checkable counterpart of the closed-form decision rules: the
sign of the class's degree against a power of sigma_1, from its Chern
roots, one per semistandard filling of the shape with entries up to k, its
weight, from the table of ``schur.fillings``.  The ``oracle`` command's
truncated Schur expansion (``sympoly``) reads the same roots as the
table's weight multiset, ``schur.weight_counts``; the two routes import
nothing from each other.

``localization_integrals`` computes, per shape and n at one k, the degree of
the class times sigma_1^(k(n-k)-D) as an Atiyah-Bott sum over the C(n, k)
torus-fixed points (Atiyah and Bott, Topology 1984), from each shape's
fillings, by one pass over Gr(k, n) per n for all the shapes asking for
it, visiting only the points whose sigma_1 lift is not negative.  The
bundle is globally generated, so the class is a nonnegative sum of
Schubert classes (Fulton and Lazarsfeld, Ann. Math. 1983) and sigma_1^m
meets each of them positively: the number is positive exactly when the
class is nonzero.

``flip_points`` finds, per (shape, k), the first n at which the class is
nonzero, from the sign of the localization integral; isotropy is monotone
in n, so the class is nonzero at every larger n.  A search walks each
Gr(k, n) at most once, for all its pairs there, and packs each k's
fillings once per lane width its passes need.
``isotropy.run_sweep`` reads its oracle column from one search; no
decision rule reads this module.
"""

from __future__ import annotations

from array import array
from itertools import combinations, starmap
from math import comb, factorial, prod
from operator import mul, sub
from sys import byteorder
from typing import Iterable, Mapping

from .errors import (
    InternalCheckError,
    InternalNonIntegral,
    InvalidRange,
    SizeGuard,
)
from .partitions import Partition
from .schur import _refuse_zero_bundle, fillings, schur_ones_hook_content, weight_counts

# The localization_cost at any one (shape, n) above which localization_integrals
# refuses to start.  Measured at the cap on a 2-core x86_64: about 0.3-0.9 s
# for k >= 2, about 5 s at k = 1 (n near 5480), where each point's integers
# run to n * log2(n) bits.
LOCALIZATION_COST_CAP = 30_000_000


def localization_cost(k: int, n: int, degree: int) -> int:
    """Predicted work of the localization sum on Gr(k, n) for a bundle of rank degree.

    Each of the C(n, k) fixed points multiplies one root per filling
    (degree of them) and its k(n - k) linear factors, which also set the
    size of its integers.  It bounds a symmetric pass from above (about half
    of the points, and at each degree roots and |S|(|S| + 1)/2 <= k(n - k)
    factors of V(S)^2 and signs), and is kept as it is so that no input
    moves between an answer and SizeGuard.
    """
    return comb(n, k) * (degree + k * (n - k))


def _refuse_over_cap(k: int, n: int, degree: int) -> None:
    """Raise SizeGuard when localization_cost(k, n, degree) exceeds the cap."""
    cost = localization_cost(k, n, degree)
    if cost > LOCALIZATION_COST_CAP:
        raise SizeGuard(
            f"localization on Gr({k},{n}) predicts cost {cost}"
            f" ({comb(n, k)} fixed points times {degree} + {k * (n - k)}),"
            f" over the cap {LOCALIZATION_COST_CAP}"
        )


def _lanes(shapes: list[Partition], k: int, n: int, table: dict) -> tuple:
    """(packed, offset, typecode, spans, reach): the shapes' fillings (over
    ``table``) as w-bit lanes, one per filling, sum(v * 2^(w * lane)) per
    coordinate, w the least width for their roots on Gr(k, n), which holds
    them up to Gr(k, reach); offset is 2^(w-1) in every lane, spans[shape] =
    (a, b) for its lanes a..b-1.  Sums and multiples of packed integers pack
    the lane by lane sums and multiples while each stays in
    [-2^(w-1), 2^(w-1)), as roots do."""
    spans, columns = {}, [[] for _ in range(k)]
    for shape in shapes:
        count, coordinates = fillings(shape, k, table)
        a = len(columns[0])
        for column, part in zip(columns, coordinates):
            column += part
        spans[shape] = a, a + count
    size = max(1, *map(sum, shapes))  # a root w.t_I on Gr(k, n) is less than size * n
    typecode = next(c for c in "hiq" if size * n < 1 << 8 * array(c).itemsize - 1)
    width, lanes = 8 * array(typecode).itemsize, len(columns[0])
    offset = ((1 << width * lanes) - 1) // ((1 << width) - 1) << width - 1
    # weights are nonnegative and below 2^(w-1): each packs unsigned, as it is
    packed = [int.from_bytes(array(typecode.upper(), column).tobytes(), byteorder)
              for column in columns]
    return packed, offset, typecode, spans, ((1 << width - 1) - 1) // size


def _pass(k: int, n: int, batch: list, lanes: tuple) -> dict[Partition, int]:
    """{shape: its integral on Gr(k, n)} for each (shape, degree) of ``batch``,
    by one symmetric pass over the fixed points (see localization_integrals)
    that reads the roots from ``lanes``, packed by _lanes with reach >= n."""
    packed, offset, typecode, spans, _ = lanes
    shapes = [(*spans[shape], k * (n - k) - degree) for shape, degree in batch]
    # t_i = 2i - (n-1): twice the lanes' sums at t_i = i, less (n-1) times their sum
    totals, shift = [0] * len(batch), offset - (n - 1) * sum(packed)
    signed = [(-1) ** i * comb(n - 1, i) for i in range(n)]
    size = offset.bit_length() // 8  # the top bit of offset is the last lane's
    for point in combinations(range(n), k):
        lift = 2 * sum(point) - k * (n - 1)
        if lift < 0:
            continue
        # the offset makes every lane nonnegative, so none borrows from the
        # next; flipping each lane's top bit then leaves its two's complement
        partial = (2 * sum(map(mul, packed, point)) + shift) ^ offset
        dots = array(typecode, partial.to_bytes(size, byteorder))
        euler = None
        for j, (a, b, m) in enumerate(shapes):
            roots = dots[a:b]
            if 0 in roots or m and not lift:
                continue
            if euler is None:  # doubled when the lift is positive
                s = point if 2 * k <= n else set(range(n)).difference(point)
                v = prod(starmap(sub, combinations(s, 2)))
                euler = v * v * prod(map(signed.__getitem__, s)) << (lift > 0)
            totals[j] += lift ** m * prod(roots) * euler
    r = min(k, n - k)  # |S|
    odd = (r * (r - 1) // 2 + k * (n - k) * (2 * k <= n)) % 2
    denominator = factorial(n - 1) ** r << k * (n - k)
    values = {}
    for (shape, _), total in zip(batch, totals):
        value, remainder = divmod(-total if odd else total, denominator)
        if remainder:
            raise InternalNonIntegral(
                f"localization sum for {shape.as_text()} on Gr({k},{n}) is not"
                f" divisible by ((n-1)!)^{r} * 2^{k * (n - k)}"
            )
        if value < 0:
            raise InternalCheckError(
                f"localization integral for {shape.as_text()} on Gr({k},{n}) is"
                f" negative ({value})"
            )
        values[shape] = value
    return values


def localization_integrals(
    runs: Mapping[Partition, Iterable[int]], k: int
) -> dict[Partition, dict[int, int]]:
    """{shape: {n: the degree of c_D(S_shape(S^*)) * sigma_1^(k(n-k)-D) on
    Gr(k, n)}} for each shape and n of ``runs``, a map from shape to its n.

    Atiyah-Bott localization, one pass over Gr(k, n) per n (_pass) for the
    shapes asking for it, their roots the lanes of packed integers (_lanes): a
    fixed point is a k-subset I of 0..n-1, where the weight w of each filling
    gives the Chern root w.t_I, the lift of sigma_1 is the sum of t_I and the
    tangent weights are t_j - t_i (i in I, j not in I).  Any distinct t give
    the same integral, and t_i = 2i - (n-1) are symmetric: n-1-I negates the
    roots, lift and tangent weights of I, 2k(n-k) signs, so a pass skips each
    point with a negative lift and counts one with a positive lift twice.
    The inverse Euler class is then, up to a sign fixed by k and n, V(S)^2 *
    prod_{i in S} (-1)^i C(n-1, i) over ((n-1)!)^|S| * 2^(k(n-k)), S the
    smaller of I and its complement: the sum is of plain integers, with one
    exact division.  A remainder or a negative value raises
    InternalCheckError.  Positive exactly when the top Chern class is nonzero
    (see the module docstring); 0 without work when D > k(n - k).  Raises
    SizeGuard before any work when localization_cost at some (shape, n)
    exceeds LOCALIZATION_COST_CAP.
    """
    if k < 1:
        raise InvalidRange(f"k must be positive, got {k}")
    values, passes, table = {}, {}, {}
    for shape, ns in runs.items():
        shape, ns = Partition(shape), sorted(set(ns))
        if ns and ns[0] < k:
            raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={ns[0]}")
        _refuse_zero_bundle(shape, k)
        degree = schur_ones_hook_content(shape, k)
        values[shape] = dict.fromkeys(ns, 0)
        for n in (n for n in ns if shape and degree <= k * (n - k)):
            _refuse_over_cap(k, n, degree)
            passes.setdefault(n, []).append((shape, degree))
    for n, batch in passes.items():
        lanes = _lanes([shape for shape, _ in batch], k, n, table)
        for shape, value in _pass(k, n, batch, lanes).items():
            values[shape][n] = value
    return values


def flip_points(
    degrees: Mapping[tuple[Partition, int], int], max_n: int
) -> dict[tuple[Partition, int], int]:
    """{(shape, k): the first n <= max_n at which the top Chern class on
    Gr(k, n) is nonzero, or max_n + 1 when there is none} for each pair of
    ``degrees``, a map from (shape, k) to its class degree D.

    Isotropy is monotone in n (see the README), so each pair reads zero
    below one flip point and nonzero from it on.  Below n0 = k + ceil(D/k)
    the class degree exceeds dim Gr(k, n) and the class is zero without
    work, so a pair is asked at each n from max(k + 1, n0) to its first
    positive value.  Each Gr(k, n) is walked at most once: a round makes one
    pass per k, at its least pending n, for every pair pending there.  Each
    k's weights are packed at its first pass and again when a later n needs
    wider lanes.  A pair with more rows than k raises ZeroBundle as it is
    queued, before any work.  A round first checks the localization_cost of
    every pending pair's candidate (k by first appearance, then pair order),
    so one over LOCALIZATION_COST_CAP raises SizeGuard before any pass of it.
    """
    flips, pending, lanes, table = {}, {}, {}, {}
    for (shape, k), degree in degrees.items():
        flips[shape, k] = min(max(k + 1, k - (-degree // k)), max_n + 1)
        if flips[shape, k] <= max_n:
            _refuse_zero_bundle(shape, k)
            pending.setdefault(k, []).append(shape)
    while pending:
        for k, shapes in pending.items():  # every candidate, before any pass
            for shape in shapes:
                _refuse_over_cap(k, flips[shape, k], degrees[shape, k])
        for k, shapes in pending.items():
            n = min(flips[shape, k] for shape in shapes)
            if k not in lanes or lanes[k][-1] < n:  # first, or past its width
                lanes[k] = _lanes(shapes, k, n, table)
            batch = [(s, degrees[s, k]) for s in shapes if flips[s, k] == n]
            for shape, value in _pass(k, n, batch, lanes[k]).items():
                flips[shape, k] += not value
                if value or n == max_n:
                    shapes.remove(shape)
        pending = {k: shapes for k, shapes in pending.items() if shapes}
    return flips
