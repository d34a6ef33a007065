"""Non-vanishing of the top Chern class of Schur-functor bundles on Gr(k, n).

Two exact computations of the same class, the machine-checkable counterpart
of the closed-form decision rules:

``top_chern_nonzero`` builds the splitting-principle product of linear forms
indexed by tableau weights, starting from the Vandermonde product and
dropping every monomial with an exponent >= n as it multiplies, then reads
the Schur coefficients of the shapes inside the k x (n - k) box; every
other class vanishes on the Grassmannian.  What survives decides the verdict
and is reported.

``localization_integrals`` computes, per shape and n at one k, the degree of
the class times sigma_1^(k(n-k)-D) as an Atiyah-Bott sum over the C(n, k)
torus-fixed points (Atiyah and Bott, Topology 1984), from each shape's
tableaux.weight_counts; one pass over the fixed points of the largest n
serves every shape and n of a call.  The
bundle is globally generated, so the class is a nonnegative sum of Schubert
classes (Fulton and Lazarsfeld, Ann. Math. 1983) and sigma_1^m meets each
of them positively: the number is positive exactly when the class is
nonzero.

``flip_points`` finds, per (shape, k), the first n at which the class is
nonzero, from the sign of the localization integral, or from
``top_chern_nonzero`` where the sum's predicted cost is over
LOCALIZATION_COST_CAP; isotropy is monotone in n, so the class is nonzero
at every larger n.  ``isotropy.run_sweep`` reads its oracle column and its
k = 2 fallback from one such search, which shares one weight table.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from math import comb, factorial, prod
from operator import itemgetter
from sys import byteorder
from typing import Iterable, Mapping, NamedTuple

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
from .tableaux import DEFAULT_ENUMERATION_CAP, weight_counts, weight_vectors

SHORTCUT_NONE = "none"
SHORTCUT_DEGREE = "degree-exceeds-top"
SHORTCUT_EMPTY = "empty-weights"

# The localization_cost at any one (shape, n) above which localization_integrals
# refuses to start; a batch is predicted to cost at most its shapes' passes.
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


def localization_integrals(
    runs: Mapping[Partition, Iterable[int]], k: int, table: dict | None = None
) -> dict[Partition, dict[int, int]]:
    """{shape: {n: the degree of c_D(S_shape(S^*)) * sigma_1^(k(n-k)-D) on
    Gr(k, n)}} for each shape and n of ``runs``, a map from shape to its n.

    Atiyah-Bott localization: a fixed point of Gr(k, n) is a k-subset I of
    0..n-1, where each tableau weight w gives the Chern root w.t_I, the lift of
    sigma_1 is the sum of t_I and the tangent weights are t_j - t_i (i in I, j
    not in I).  I is a fixed point for every n > max(I), so one lex-ordered pass
    over the subsets of 0..N-1, N the largest n, serves every shape and n.  The
    lift is formed once per point for all shapes; V(I)^2, and its product with
    the signed binomials of I once per n, only at a point where some shape has a
    nonzero term (the binomials of the first k - 1 entries once per n, for all
    points that share them).  The distinct weights and multiplicities come from
    tableaux.weight_counts over ``table``, which callers may share (a fresh one
    by default).  The roots of all shapes are the lanes of one packed integer,
    which moves by one multiply-add per changed entry and is unpacked once per
    point.  A shape forms its product of roots (those of each multiplicity
    multiplied first, then raised to it once) only when none is zero and the
    lift's power k(n-k) - D at its first n > max(I) is nonzero, raises the lift
    to that power once per such n, and visits only the points of its own largest
    n, so a batch is predicted to cost at most its shapes' separate passes, plus
    the lane arithmetic: a machine word per distinct weight and point.

    The torus weights are t_i = i - floor((N - 1)/2), centred on 0 so that
    many roots and lifts vanish and their points are skipped.  Any distinct
    weights give the same integral, and with tangent weights j - i their
    product over all j != i is (-1)^i i! (n-1-i)!: the sum runs over plain
    integers, V(I)^2 * prod (-1)^i C(n-1, i) standing in for the inverse
    tangent Euler class, and ends in one exact division by ((n-1)!)^k.  A
    remainder or a negative value raises InternalCheckError.  Positive
    exactly when the top Chern class is nonzero (see the module docstring);
    0 without work when D > k(n - k).  Raises SizeGuard before any work when
    localization_cost at some (shape, n) exceeds LOCALIZATION_COST_CAP.
    """
    if k < 1:
        raise InvalidRange(f"k must be positive, got {k}")
    values, batch = {}, []
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
        work = [n for n in ns if shape and degree <= k * (n - k)]
        for n in work:
            cost = localization_cost(k, n, degree)
            if cost > LOCALIZATION_COST_CAP:
                raise SizeGuard(
                    f"localization on Gr({k},{n}) predicts cost {cost}"
                    f" ({comb(n, k)} fixed points times {degree} + {k * (n - k)}),"
                    f" over the cap {LOCALIZATION_COST_CAP}"
                )
        if work:
            batch.append((shape, degree, work))
    largest = max((work[-1] for *_, work in batch), default=0)
    t = [i - (largest - 1) // 2 for i in range(largest)]
    needed = {n for *_, work in batch for n in work}
    signed = {n: [(-1) ** i * comb(n - 1, i) for i in range(n)] for n in needed}
    # columns[s]: coordinate s of every shape's distinct weights, one lane
    # each, packed below so that one multiply-add by t_i moves the dot
    # products of all shapes at once.  Per shape: its lanes a..b-1 and groups,
    # the runs (x, y, m) of its lanes that share the multiplicity m
    sums, columns = [], [[] for _ in range(k)]
    table = {} if table is None else table
    for shape, degree, work in batch:
        counted = weight_counts(shape, k, table).items()
        weights, mults = zip(*sorted(counted, key=itemgetter(1)))
        a = len(columns[0])
        for column, coordinates in zip(columns, zip(*weights)):
            column.extend(coordinates)
        ends = [y for y in range(1, len(mults)) if mults[y] != mults[y - 1]]
        groups = [(x, y, mults[x]) for x, y in zip([0] + ends, ends + [len(mults)])]
        sums.append((a, a + len(mults), groups, degree, work, [0] * len(work)))
    # a root w.t_I, and each partial sum of it, is less than size * N in size
    bound = max((shape.size for shape, *_ in batch), default=0) * largest
    typecode = next(c for c in "hiq" if bound < 1 << 8 * array(c).itemsize - 1)
    width, lanes = 8 * array(typecode).itemsize, len(columns[0])
    offset = ((1 << width * lanes) - 1) // ((1 << width) - 1) << width - 1
    packed = [_pack(column, offset, typecode) for column in columns]
    size = lanes * width // 8  # bytes
    # shared[s]: V^2, the lift and the packed dot products of the first s
    # entries; heads: the signed binomials of the first k - 1, per n; tails[i]:
    # what a last entry i adds, with the offset that unpacking needs
    last = k - 1
    shared = [(1, 0, 0)] + [None] * last
    tails = [packed[last] * x + offset for x in t]
    start, heads = 0, {}
    for point in combinations(range(largest), k):
        top = point[-1]
        if start < last:
            heads = {}
            for s in range(start, last):
                i = point[s]
                vandermonde, lift, partial = shared[s]
                shared[s + 1] = (
                    vandermonde * prod(map(i.__sub__, point[:s])) ** 2,
                    lift + t[i],
                    partial + packed[s] * t[i],
                )
        vandermonde, lift, partial = shared[last]
        lift += t[top]
        # unpacked: adding the offset makes every lane nonnegative, so none
        # borrows from the next, and flipping each lane's top bit then leaves
        # its two's complement
        partial = (partial + tails[top]) ^ offset
        dots = array(typecode, partial.to_bytes(size, byteorder))
        # per n, V^2 times the signed binomials of the whole point; V^2 is
        # completed by the last entry only at a point with a nonzero term
        factors, whole = {}, None
        for a, b, groups, degree, work, totals in sums:
            if top >= work[-1]:
                continue
            roots = dots[a:b]
            if 0 in roots:
                continue
            product = None
            for j, n in enumerate(work):
                if n <= top:
                    continue
                power = lift ** (k * (n - k) - degree)
                if not power:
                    break  # the lift is 0, and so is every larger power of it
                if product is None:
                    product = prod(prod(roots[x:y]) ** m for x, y, m in groups)
                factor = factors.get(n)
                if factor is None:
                    if whole is None:
                        whole = vandermonde * prod(map(top.__sub__, point[:-1])) ** 2
                    head = heads.get(n)
                    if head is None:
                        head = heads[n] = prod(map(signed[n].__getitem__, point[:-1]))
                    factor = factors[n] = head * signed[n][top] * whole
                totals[j] += power * product * factor
        start = last
        while start and point[start] == largest - k + start:
            start -= 1
    for (shape, _, work), (*_, totals) in zip(batch, sums):
        for n, total in zip(work, totals):
            if (k * (k - 1) // 2 + k * (n - k)) % 2:
                total = -total
            value, remainder = divmod(total, factorial(n - 1) ** k)
            if remainder:
                raise InternalNonIntegral(
                    f"localization sum for {shape.as_text()} on Gr({k},{n}) is not"
                    f" divisible by ((n-1)!)^k"
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
    localization_cost is over LOCALIZATION_COST_CAP is answered by
    top_chern_nonzero instead.
    """
    flips = {
        (shape, k): min(max(k + 1, k - (-degree // k)), max_n + 1)
        for (shape, k), degree in degrees.items()
    }
    pending, table = [pair for pair in degrees if flips[pair] <= max_n], {}
    while pending:
        asked, nonzero = {}, {}
        for pair in pending:
            (shape, k), n = pair, flips[pair]
            if localization_cost(k, n, degrees[pair]) <= LOCALIZATION_COST_CAP:
                asked.setdefault(k, {})[shape] = [n]
            else:
                nonzero[pair] = top_chern_nonzero(shape, k, n).nonzero
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
