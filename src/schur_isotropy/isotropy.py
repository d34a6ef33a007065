"""Decision rules for generic isotropic subspaces of forms with Young-type symmetry.

A form of symmetry type ``shape`` on C^n generically vanishes on some
k-dimensional subspace exactly when n clears a dimension threshold.  The
threshold is dim(module over C^k)/k + k for shapes with at least two rows
and two columns (k >= 3); single-row and single-column shapes follow the
binomial criteria of Tevelev together with the exceptional families: the
two degree-2 shapes, alternating (n-2)-forms with n even, and alternating
3-forms on C^7.  The one uncovered corner (k = 2 with a two-row,
two-column shape) reads the flip point of the top Chern class that
``chern.flip_points`` finds.  ``run_sweep`` compares the rules with that
class over a grid of small instances, at the flip points of one such search,
reading the corner from them too.

The degree-2 shapes flip at different points.  A generic symmetric form
(shape (2,)) is nondegenerate, so its isotropic subspaces have dimension
at most floor(n/2): it is k-isotropic iff n >= 2k.  A generic skew form
(shape (1,1)) has rank 2*floor(n/2); its kernel plus a Lagrangian subspace
of the rank part is isotropic of dimension ceil(n/2); modulo the kernel
every isotropic subspace is isotropic for a nondegenerate form, so none is
larger.  It is k-isotropic iff n >= 2k-1.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from . import chern
from .errors import EmptyPartition, InvalidRange, OutOfTheoremScope, ZeroModule
from .partitions import Partition, partitions_up_to
from .schur import schur_ones_hook_content

RULE_MAIN = "main-theorem"
RULE_TEVELEV_SYMMETRIC = "tevelev-symmetric"
RULE_TEVELEV_SKEW = "tevelev-skew"
RULE_EXCEPTION_DEGREE_2 = "exception-degree-2"
RULE_EXCEPTION_SKEW_DEGREE_2 = "exception-skew-degree-2"
RULE_EXCEPTION_SKEW_N_MINUS_2 = "exception-skew-n-minus-2"
RULE_EXCEPTION_SKEW_3_N7 = "exception-skew-3-n7"
RULE_DEGREE_1 = "degree-1"
RULE_TRIVIAL = "trivial-zero-module"
RULE_ORACLE_FALLBACK = "oracle-fallback"

# run_sweep's oracle column covers k <= SWEEP_K_CAP and class degrees <=
# SWEEP_DIM_CAP; the k = 2 fallback is bounded only by the localization cap.
SWEEP_DIM_CAP = 40
SWEEP_K_CAP = 6

class Verdict(NamedTuple):
    """Isotropy decision plus the rule that produced it.

    ``threshold_n`` is the smallest ambient dimension giving isotropy under
    the applied rule; it is absent for rules whose criterion is on k and for
    the trivial/oracle rules.
    """

    isotropic: bool
    rule: str
    threshold_n: int | None
    detail: str


class AgreementCase(NamedTuple):
    """One (shape, k, n) instance compared between decision rule and oracle."""

    shape: Partition
    k: int
    n: int
    isotropic: bool
    rule: str
    threshold_n: int | None
    oracle_nonzero: bool | None

    @property
    def agree(self) -> bool | None:
        if self.oracle_nonzero is None:
            return None
        return self.isotropic == self.oracle_nonzero


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def threshold_n(shape: Partition, k: int) -> int:
    """Least n with n >= dim(module over C^k)/k + k, by exact integer arithmetic."""
    shape = Partition(shape)
    if not shape:
        raise EmptyPartition("threshold is undefined for the empty shape")
    if k < 1:
        raise InvalidRange(f"k must be positive, got {k}")
    if len(shape) > k:
        raise ZeroModule(f"shape {shape.as_text()} has more than k={k} rows")
    return k + _ceil_div(schur_ones_hook_content(shape, k), k)


def decide(shape: Partition, k: int, n: int) -> Verdict:
    """Route (shape, k, n) to the applicable rule and decide isotropy.

    The k = 2 corner reads its flip point from chern.flip_points, which
    raises SizeGuard when a candidate n is over the localization cost cap."""
    shape = Partition(shape)
    if not shape:
        raise EmptyPartition("the empty symmetry type carries no decision")
    if k < 1 or k > n:
        raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={n}")
    return _route(
        shape, k, lambda dim: chern.flip_points({(shape, k): dim}, n)[shape, k]
    )(n)


def _route(
    shape: Partition, k: int, flip: Callable[[int], int]
) -> Callable[[int], Verdict]:
    """decide's rule for a nonempty shape at k, as a map from n >= k to its
    Verdict; flip(dim), the first n at which the class of degree dim is
    nonzero (past every n asked for when there is none), answers k = 2."""
    rows = len(shape)

    if rows > k:
        return lambda n: Verdict(
            True, RULE_TRIVIAL, None,
            f"shape has {rows} rows > k={k}: the module over any k-plane is zero,"
            " so every form restricts to zero",
        )

    if shape == (1,):
        t, rule = k + 1, RULE_DEGREE_1
        detail = (
            f"a generic linear functional has a {k}-dimensional zero subspace"
            f" iff n >= {t}"
        )
    elif shape == (2,):
        t, rule = 2 * k, RULE_EXCEPTION_DEGREE_2
        detail = f"degree-2 forms are isotropic iff n >= 2k = {t}"
    elif shape == (1, 1):
        t, rule = 2 * k - 1, RULE_EXCEPTION_SKEW_DEGREE_2
        detail = f"alternating 2-forms are isotropic iff n >= 2k-1 = {t}"
    elif shape[0] == 1:
        d = rows  # single column of height d >= 3
        t = k + _ceil_div(comb(k, d), k)
        detail = (
            f"alternating {d}-forms are isotropic iff n >= C({k},{d})/{k} + {k};"
            f" minimal n = {t}"
        )

        def single_column(n: int) -> Verdict:
            if d == n - 2 and n % 2 == 0:
                return Verdict(
                    k <= n - 2, RULE_EXCEPTION_SKEW_N_MINUS_2, None,
                    f"alternating (n-2)-forms with n={n} even are isotropic"
                    f" iff k <= {n - 2}",
                )
            if d == 3 and n == 7:
                return Verdict(
                    k <= 4, RULE_EXCEPTION_SKEW_3_N7, None,
                    "alternating 3-forms on C^7 are isotropic iff k <= 4",
                )
            return Verdict(n >= t, RULE_TEVELEV_SKEW, t, detail)

        return single_column
    elif rows == 1:
        d = shape[0]  # single row of length d >= 3
        t, rule = k + _ceil_div(comb(d + k - 1, d), k), RULE_TEVELEV_SYMMETRIC
        detail = (
            f"symmetric {d}-forms are isotropic iff n >= C({d + k - 1},{d})/{k}"
            f" + {k}; minimal n = {t}"
        )
    elif k >= 3:
        dim = schur_ones_hook_content(shape, k)
        t, rule = k + _ceil_div(dim, k), RULE_MAIN  # threshold_n, one hook-content
        detail = f"isotropic iff n >= dim/k + k = {dim}/{k} + {k}; minimal n = {t}"
    else:
        # k == 2 with a two-row, two-column shape: no closed-form rule is
        # stated, so the class's flip point answers directly.
        dim = schur_ones_hook_content(shape, k)

        def fallback(n: int) -> Verdict:
            nonzero = n >= flip(dim)
            return Verdict(
                nonzero, RULE_ORACLE_FALLBACK, None,
                f"outside the closed-form rules (k=2, two-row shape); the top Chern"
                f" class on Gr({k},{n}) is {'nonzero' if nonzero else 'zero'}",
            )

        return fallback

    return lambda n: Verdict(n >= t, rule, t, detail)


def min_isotropic_n(shape: Partition, k: int) -> int:
    """Smallest n >= k for which decide() reports isotropy.

    The scan starts at the threshold of the rule that decide() applies at
    n = k.  No rule reports isotropy below that threshold: the exceptional
    single-column rules only delay isotropy past the binomial threshold,
    so the answer is the threshold or a few steps beyond it, and the scan
    stays short even when the threshold is huge.  The k = 2 oracle
    fallback has no threshold and is scanned from k: each n below
    k + ceil(dim/k) reads its flip point without work, and by n = k + dim the
    class is nonzero since no Schur coefficient is cut by the box bound.
    """
    shape = Partition(shape)
    if not shape:
        raise EmptyPartition("the empty symmetry type carries no decision")
    if k < 1:
        raise InvalidRange(f"k must be positive, got {k}")
    if len(shape) > k:
        return k
    dim = schur_ones_hook_content(shape, k)
    bound = max(2 * k, 7, shape.size + 2, k + dim) + 1
    start = max(k, decide(shape, k, k).threshold_n or k)
    for n in range(start, bound + 1):
        if decide(shape, k, n).isotropic:
            return n
    raise OutOfTheoremScope(
        f"no isotropic n found up to {bound} for shape {shape.as_text()}, k={k}"
    )


def run_sweep(
    max_size: int,
    max_k: int,
    max_n: int,
    with_oracle: bool = False,
    dim_cap: int = SWEEP_DIM_CAP,
    k_cap: int = SWEEP_K_CAP,
) -> list[AgreementCase]:
    """Decision verdicts for every nonempty shape of size <= max_size,
    rows <= k <= max_k, k < n <= max_n; with the oracle verdict alongside
    wherever k <= k_cap and the class degree is at most dim_cap.

    Each (shape, k) is routed to decide's rule once for its whole run of n.
    The oracle verdict, and the k = 2 fallback's, is whether n has reached
    the (shape, k) flip point that one chern.flip_points call finds; it agrees
    with top_chern_nonzero at every n.  Order is deterministic: shapes by
    size then lex-decreasing, then k, then n.
    """
    shapes = [shape for shape in partitions_up_to(max_size) if shape]
    oracle_k = min(max_k, k_cap) if with_oracle else 0
    routes, degrees = [], {}
    for shape in shapes:
        for k in range(len(shape), min(max_k, max_n - 1) + 1):
            pair = shape, k
            route = _route(shape, k, lambda dim, pair=pair: flips[pair])
            # the oracle-fallback pairs of _route need their flips, shown or not
            fallback = k == 2 and len(shape) == 2 and shape[0] >= 2
            degree = schur_ones_hook_content(shape, k) if k <= oracle_k or fallback else 0
            shown = k <= oracle_k and degree <= dim_cap
            if shown or fallback:
                degrees[pair] = degree
            routes.append((shape, k, route, shown))
    flips = chern.flip_points(degrees, max_n)  # what each route's oracle reads
    cases = []
    for shape, k, route, shown in routes:
        for n in range(k + 1, max_n + 1):
            oracle = n >= flips[shape, k] if shown else None
            # a Verdict starts with isotropic, rule, threshold_n
            cases.append(AgreementCase(shape, k, n, *route(n)[:3], oracle))
    return cases
