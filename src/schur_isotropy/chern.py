"""Non-vanishing of the top Chern class of Schur-functor bundles on Gr(k, n).

Two exact computations of the same class, the machine-checkable counterpart
of the closed-form decision rules:

``top_chern_nonzero`` builds the splitting-principle product of linear forms
indexed by tableau weights, starting from the Vandermonde product and
dropping every monomial with an exponent >= n as it multiplies, then reads
the Schur coefficients of the shapes inside the k x (n - k) box; every
other class vanishes on the Grassmannian.  What survives decides the verdict
and is reported.  The filling walk (``tableaux``) and the expansion
(``sympoly``) are imported by its first call that needs them, so neither the
package import nor any decision loads them.

``localization_integrals`` computes, per shape and n at one k, the degree of
the class times sigma_1^(k(n-k)-D) as an Atiyah-Bott sum over the C(n, k)
torus-fixed points (Atiyah and Bott, Topology 1984), from each shape's
weight_counts, by one pass per n that visits only the points whose sigma_1
lift is not negative.  The bundle is globally generated, so the class is a
nonnegative sum of Schubert classes (Fulton and Lazarsfeld, Ann. Math. 1983)
and sigma_1^m meets each of them positively: the number is positive exactly
when the class is nonzero.

``flip_points`` finds, per (shape, k), the first n at which the class is
nonzero, from the sign of the localization integral; isotropy is monotone
in n, so the class is nonzero at every larger n.  It is the only route to a
yes/no verdict: ``isotropy.decide`` reads its k = 2 fallback from a search
for its one pair, and ``isotropy.run_sweep`` reads its oracle column and
its fallback from one search, which shares one weight table.
``top_chern_nonzero`` serves the ``oracle`` command's Schur coefficients.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from math import comb, factorial, prod
from operator import mul
from sys import byteorder
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    DegreeGuard,
    InternalCheckError,
    InternalNonIntegral,
    InvalidRange,
    SizeGuard,
    ZeroBundle,
)
from .partitions import Partition, horizontal_strip_predecessors
from .schur import schur_ones_hook_content

# Caps of the expansion route: fillings walked, and terms of any product.
DEFAULT_ENUMERATION_CAP = 1_000_000
DEFAULT_TERM_CAP = 5_000_000

SHORTCUT_NONE = "none"
SHORTCUT_DEGREE = "degree-exceeds-top"
SHORTCUT_EMPTY = "empty-weights"

# The localization_cost at any one (shape, n) above which localization_integrals
# refuses to start.  Measured at the cap on a 2-core x86_64: about 0.3-0.9 s
# for k >= 2, about 5 s at k = 1 (n near 5480), where each point's integers
# run to n * log2(n) bits.
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
    # the Vandermonde product alone has k! terms, none cut at n >= k; a walk
    # over its own cap (degree fillings) raises SizeGuard first
    if max_terms is not None and factorial(k) > max_terms and degree <= max_tableaux:
        raise DegreeGuard(
            f"{factorial(k)} terms at degree {k * (k - 1) // 2} exceeds the cap"
            f" {max_terms}"
        )
    from .sympoly import box_schur_expand
    from .tableaux import weight_vectors

    weights = weight_vectors(shape, k, max_tableaux)
    surviving = tuple(box_schur_expand(weights, k, n, max_terms).items())
    return ChernVerdict(bool(surviving), degree, surviving, SHORTCUT_NONE)


def localization_cost(k: int, n: int, degree: int) -> int:
    """Predicted work of the localization sum on Gr(k, n) for a bundle of rank degree.

    Each of the C(n, k) fixed points makes one pass over the distinct
    weights (at most degree of them) and multiplies its k(n - k) linear
    factors, which also set the size of its integers.  It bounds a symmetric
    pass from above (about half of the points, and at each at most degree
    roots and |S|(|S| + 1)/2 <= k(n - k) factors of V(S)^2 and signs), and is
    kept as it is so that no input moves between an answer and SizeGuard.
    """
    return comb(n, k) * (degree + k * (n - k))


def _pack(values: Iterable[int], offset: int, typecode: str) -> int:
    """sum(v * 2^(w * lane)): the values as the w-bit lanes of one integer.

    ``typecode`` is the signed array type of a lane and ``offset`` holds
    2^(w-1) in every lane.  Packing is linear: sums and integer multiples of
    packed integers pack the lane by lane sums and multiples, as long as
    every lane stays within [-2^(w-1), 2^(w-1)).
    """
    half = 1 << 8 * array(typecode).itemsize - 1
    unsigned = array(typecode.upper(), [v + half for v in values])
    return int.from_bytes(unsigned.tobytes(), byteorder) - offset


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


def localization_integrals(
    runs: Mapping[Partition, Iterable[int]], k: int, table: dict | None = None
) -> dict[Partition, dict[int, int]]:
    """{shape: {n: the degree of c_D(S_shape(S^*)) * sigma_1^(k(n-k)-D) on
    Gr(k, n)}} for each shape and n of ``runs``, a map from shape to its n.

    Atiyah-Bott localization, one pass per n for the shapes that ask for it:
    a fixed point of Gr(k, n) is a k-subset I of 0..n-1, where each weight w
    of weight_counts (over ``table``, which callers may share) gives the Chern
    root w.t_I, the lift of sigma_1 is the sum of t_I and the tangent weights
    are t_j - t_i (i in I, j not in I).  The roots of a pass's shapes are the
    lanes of one packed integer.  Any distinct t give the same integral, and
    t_i = 2i - (n-1) are symmetric: n-1-I negates the roots, lift and tangent
    weights of I, 2k(n-k) signs, so a pass skips each point with a negative
    lift and counts one with a positive lift twice.  The inverse Euler class
    is then, up to a sign fixed by k and n, V(S)^2 * prod_{i in S} (-1)^i
    C(n-1, i) over ((n-1)!)^|S| * 2^(k(n-k)), S the smaller of I and its
    complement: the sum is of plain integers, with one exact division.  A
    remainder or a negative value raises InternalCheckError.  Positive exactly
    when the top Chern class is nonzero (see the module docstring); 0 without
    work when D > k(n - k).  Raises SizeGuard before any work when
    localization_cost at some (shape, n) exceeds LOCALIZATION_COST_CAP.
    """
    if k < 1:
        raise InvalidRange(f"k must be positive, got {k}")
    values, passes = {}, {}
    for shape, ns in runs.items():
        shape, ns = Partition(shape), sorted(set(ns))
        if ns and ns[0] < k:
            raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={ns[0]}")
        if len(shape) > k:
            raise ZeroBundle(
                f"shape {shape.as_text()} has more than k={k} rows; the bundle is zero"
            )
        degree = schur_ones_hook_content(shape, k)
        values[shape] = dict.fromkeys(ns, 0)
        for n in (n for n in ns if shape and degree <= k * (n - k)):
            cost = localization_cost(k, n, degree)
            if cost > LOCALIZATION_COST_CAP:
                raise SizeGuard(
                    f"localization on Gr({k},{n}) predicts cost {cost}"
                    f" ({comb(n, k)} fixed points times {degree} + {k * (n - k)}),"
                    f" over the cap {LOCALIZATION_COST_CAP}"
                )
            passes.setdefault(n, []).append((shape, degree))
    table = {} if table is None else table
    for n, batch in passes.items():
        # columns[s]: coordinate s of every shape's distinct weights, one lane each;
        # per shape its lanes a..b-1, their multiplicities and its lift power
        shapes, columns = [], [[] for _ in range(k)]
        for shape, degree in batch:
            weights, mults = zip(*weight_counts(shape, k, table).items())
            a = len(columns[0])
            for column, coordinates in zip(columns, zip(*weights)):
                column.extend(coordinates)
            shapes.append((a, a + len(mults), mults, k * (n - k) - degree))
        # a root w.t_I is less than size * n in size
        bound = max(shape.size for shape, _ in batch) * n
        typecode = next(c for c in "hiq" if bound < 1 << 8 * array(c).itemsize - 1)
        width, lanes = 8 * array(typecode).itemsize, len(columns[0])
        offset = ((1 << width * lanes) - 1) // ((1 << width) - 1) << width - 1
        packed = [_pack(column, offset, typecode) for column in columns]
        # t_i = 2i - (n-1): twice the lanes' sums at t_i = i, less (n-1) times their sum
        totals, shift = [0] * len(batch), offset - (n - 1) * sum(packed)
        signed = [(-1) ** i * comb(n - 1, i) for i in range(n)]
        for point in combinations(range(n), k):
            lift = 2 * sum(point) - k * (n - 1)
            if lift < 0:
                continue
            # the offset makes every lane nonnegative, so none borrows from the
            # next; flipping each lane's top bit then leaves its two's complement
            partial = (2 * sum(map(mul, packed, point)) + shift) ^ offset
            dots = array(typecode, partial.to_bytes(lanes * width // 8, byteorder))
            euler = None
            for j, (a, b, mults, m) in enumerate(shapes):
                roots = dots[a:b]
                if 0 in roots or m and not lift:
                    continue
                if euler is None:  # doubled when the lift is positive
                    s = point if 2 * k <= n else set(range(n)).difference(point)
                    v = prod(y - x for x, y in combinations(s, 2))
                    euler = v * v * prod(map(signed.__getitem__, s)) << (lift > 0)
                totals[j] += lift ** m * prod(map(pow, roots, mults)) * euler
        r = min(k, n - k)  # |S|
        odd = (r * (r - 1) // 2 + k * (n - k) * (2 * k <= n)) % 2
        denominator = factorial(n - 1) ** r << k * (n - k)
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
            values[shape][n] = value
    return values


def flip_points(
    degrees: Mapping[tuple[Partition, int], int], max_n: int
) -> dict[tuple[Partition, int], int]:
    """{(shape, k): the first n <= max_n at which the top Chern class on
    Gr(k, n) is nonzero, or max_n + 1 when there is none} for each pair of
    ``degrees``, a map from (shape, k) to its class degree D.

    Isotropy is monotone in n (the forms on C^n with an isotropic k-plane
    are closed, so when the generic one has such a plane every one does,
    and every form on C^(n+1) restricts to one of them on a hyperplane), so
    each pair reads zero below one flip point and nonzero from it on.
    Below n0 = k + ceil(D/k) the class degree exceeds dim Gr(k, n) and the
    class is zero without work, so a pair starts at max(k + 1, n0).  Each
    round makes one localization_integrals call per k that asks every pair
    still pending there for one n, and a pair leaves at its first positive
    value.  All calls share one weight table.  A candidate n whose
    localization_cost is over LOCALIZATION_COST_CAP raises the sum's
    SizeGuard before its call does any work.
    """
    flips = {
        (shape, k): min(max(k + 1, k - (-degree // k)), max_n + 1)
        for (shape, k), degree in degrees.items()
    }
    pending, table = [pair for pair in degrees if flips[pair] <= max_n], {}
    while pending:
        asked, nonzero = {}, {}
        for shape, k in pending:
            asked.setdefault(k, {})[shape] = [flips[shape, k]]
        for k, runs in asked.items():
            values = localization_integrals(runs, k, table)
            for shape, [n] in runs.items():
                nonzero[shape, k] = values[shape][n] > 0
        for pair in pending:
            if not nonzero[pair]:
                flips[pair] += 1
        pending = [
            pair for pair in pending if not nonzero[pair] and flips[pair] <= max_n
        ]
    return flips
