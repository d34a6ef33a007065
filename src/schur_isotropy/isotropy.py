"""Decision rules for generic isotropic subspaces of forms with Young-type symmetry.

A form of symmetry type ``shape`` on C^n generically vanishes on some
k-dimensional subspace exactly when n >= dim/k + k, where dim =
dim S_shape(C^k), from ``schur``'s one dimension function, is the degree
of the top Chern class of S_shape(S^*) on Gr(k, n).  That is the main
theorem for shapes with at least two rows and two columns (k >= 3), and
Tevelev's criteria for one row (dim = C(d+k-1, d)) and one column
(dim = C(k, d)).  Only the exceptional families leave it: the two degree-2
shapes, and one n per column in ``_route``'s exception table: alternating
(n-2)-forms with n even and 3-forms on C^7.  The remaining corner (k = 2
with a two-row, two-column shape (a, b)) is ample: S_(a,b)(S^*) =
det(S^*)^b (x) Sym^(a-b)(S^*) is an ample line bundle times a globally
generated bundle, so by Bloch-Gieseker its top Chern class is nonzero
exactly when its degree fits, at the same threshold.  No decision reads
``chern``; ``run_sweep`` compares the rules with the top Chern class over a
grid of small instances, at the flip points of one ``chern.flip_points``
search.

The degree-2 shapes flip at different points.  A generic symmetric form
(shape (2,)) is nondegenerate, so its isotropic subspaces have dimension
at most floor(n/2): it is k-isotropic iff n >= 2k.  A generic skew form
(shape (1,1)) has rank 2*floor(n/2); its kernel plus a Lagrangian subspace
of the rank part is isotropic of dimension ceil(n/2); modulo the kernel
every isotropic subspace is isotropic for a nondegenerate form, so none is
larger.  It is k-isotropic iff n >= 2k-1.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import chern
from .errors import EmptyPartition, InvalidRange, ZeroModule, _refuse_over
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
# SWEEP_DIM_CAP; it refuses more than SWEEP_CASE_CAP cases (see the README).
SWEEP_DIM_CAP = 40
SWEEP_K_CAP = 6
SWEEP_CASE_CAP = 100_000

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


class _Rule(NamedTuple):
    """_route's record: dim = dim S_shape(C^k), t = k + ceil(dim/k) (0 and
    None past k rows) and decide's verdict at each n >= k."""

    dim: int
    t: int | None
    verdict: Callable[[int], Verdict]


def threshold_n(shape: Partition, k: int) -> int:
    """Least n with n >= dim(module over C^k)/k + k, by exact integer arithmetic."""
    shape = Partition(shape)
    if not shape:
        raise EmptyPartition("threshold is undefined for the empty shape")
    if k < 1:
        raise InvalidRange(f"k must be positive, got {k}")
    if len(shape) > k:
        raise ZeroModule(f"shape {shape.as_text()} has more than k={k} rows")
    return _route(shape, k).t


def decide(shape: Partition, k: int, n: int) -> Verdict:
    """Route (shape, k, n) to the applicable rule and decide isotropy.

    Every route is a closed-form rule; none computes a Chern class."""
    shape = Partition(shape)
    if not shape:
        raise EmptyPartition("the empty symmetry type carries no decision")
    if k < 1 or k > n:
        raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={n}")
    return _route(shape, k).verdict(n)


def _route(shape: Partition, k: int) -> _Rule:
    """decide's rule for a nonempty shape at k, with the one evaluation of
    its dimension: at n, the exception table's entry, else the verdict on
    n >= the rule's threshold.  Only the k = 2 corner is its own closure."""
    rows = len(shape)

    if rows > k:
        trivial = Verdict(
            True, RULE_TRIVIAL, None,
            f"shape has {rows} rows > k={k}: the module over any k-plane is zero,"
            " so every form restricts to zero",
        )
        return _Rule(0, None, lambda n: trivial)

    # every rule but the degree-2 shapes flips at n >= dim/k + k
    dim = schur_ones_hook_content(shape, k)
    formula = t = k - (-dim // k)
    exceptions: dict[int, Verdict] = {}
    if shape == (2,):
        t, rule = 2 * k, RULE_EXCEPTION_DEGREE_2
        detail = f"degree-2 forms are isotropic iff n >= 2k = {t}"
    elif shape == (1, 1):
        t, rule = 2 * k - 1, RULE_EXCEPTION_SKEW_DEGREE_2
        detail = f"alternating 2-forms are isotropic iff n >= 2k-1 = {t}"
    elif shape == (1,):
        rule = RULE_DEGREE_1
        detail = (
            f"a generic linear functional has a {k}-dimensional zero subspace"
            f" iff n >= {t}"
        )
    elif shape[0] == 1:
        d = rows  # single column of height d >= 3, dim = C(k, d)
        rule = RULE_TEVELEV_SKEW
        detail = (
            f"alternating {d}-forms are isotropic iff n >= C({k},{d})/{k} + {k};"
            f" minimal n = {t}"
        )
        if d % 2 == 0:
            exceptions[d + 2] = Verdict(
                k <= d, RULE_EXCEPTION_SKEW_N_MINUS_2, None,
                f"alternating (n-2)-forms with n={d + 2} even are isotropic iff k <= {d}",
            )
        elif d == 3:
            exceptions[7] = Verdict(
                k <= 4, RULE_EXCEPTION_SKEW_3_N7, None,
                "alternating 3-forms on C^7 are isotropic iff k <= 4",
            )
    elif rows == 1:
        d = shape[0]  # single row of length d >= 3, dim = C(d+k-1, d)
        rule = RULE_TEVELEV_SYMMETRIC
        detail = (
            f"symmetric {d}-forms are isotropic iff n >= C({d + k - 1},{d})/{k}"
            f" + {k}; minimal n = {t}"
        )
    elif k >= 3:
        rule = RULE_MAIN
        detail = f"isotropic iff n >= dim/k + k = {dim}/{k} + {k}; minimal n = {t}"
    else:
        # k == 2 with a two-row, two-column shape (a, b): the bundle is
        # det^b (x) Sym^(a-b), ample, so by Bloch-Gieseker its top Chern
        # class is nonzero exactly when dim <= k(n - k), that is n >= t.  It
        # keeps the oracle route's rule id, absent threshold_n and detail,
        # which benchmark/reference.py and benchmark/verify.py pin.
        def fallback(n: int) -> Verdict:
            nonzero = n >= t
            return Verdict(
                nonzero, RULE_ORACLE_FALLBACK, None,
                f"outside the closed-form rules (k=2, two-row shape); the top Chern"
                f" class on Gr({k},{n}) is {'nonzero' if nonzero else 'zero'}",
            )

        return _Rule(dim, formula, fallback)

    verdicts = [Verdict(isotropic, rule, t, detail) for isotropic in (False, True)]
    return _Rule(dim, formula, lambda n: exceptions.get(n) or verdicts[n >= t])


def min_isotropic_n(shape: Partition, k: int) -> int:
    """Smallest n >= k for which decide() reports isotropy (_least_isotropic)."""
    return _least_isotropic(shape, k)[1]


def _least_isotropic(shape: Partition, k: int) -> tuple[_Rule, int]:
    """(_route's record, min_isotropic_n) of (shape, k), from one routing.

    Past k rows there is no t and start = k, where the trivial verdict holds.
    Otherwise no rule reports isotropy below start = max(t, the threshold of
    decide()'s rule), larger only for the degree-2 shapes: below t the class
    degree exceeds dim Gr(k, n), and the single-column exceptions only delay
    isotropy, each at the one n of its column in _route's table (d + 2 for
    an even height d, 7 for d = 3), so start or start + 1 answers."""
    shape = Partition(shape)
    if not shape:
        raise EmptyPartition("the empty symmetry type carries no decision")
    if k < 1:
        raise InvalidRange(f"k must be positive, got {k}")
    rule = _route(shape, k)
    start = max(rule.t or k, rule.verdict(k).threshold_n or 0)
    return rule, start if rule.verdict(start).isotropic else start + 1


def run_sweep(
    max_size: int, max_k: int, max_n: int, with_oracle: bool = False
) -> list[AgreementCase]:
    """Decision verdicts for every nonempty shape of size <= max_size,
    rows <= k <= max_k, k < n <= max_n; with the oracle verdict alongside
    wherever k <= SWEEP_K_CAP and the class degree is at most SWEEP_DIM_CAP.

    More than SWEEP_CASE_CAP cases, counted as a closed sum over k per
    shape, raise SizeGuard first.  Each (shape, k) is routed once: its record
    gives the verdicts for every n and the class degree whose flip point,
    from one chern.flip_points call (the only part of the sweep that reads
    ``chern``), sets the oracle verdict; it agrees with top_chern_nonzero at
    every n.  Order is deterministic: shapes by size then lex-decreasing,
    then k, then n.
    """
    shapes = [shape for shape in partitions_up_to(max_size) if shape]
    top = min(max_k, max_n - 1)
    # a shape of r <= top rows has max_n - k cases at each k from r to top
    count = sum((top - r + 1) * (2 * max_n - r - top) // 2
                for r in map(len, shapes) if r <= top)
    _refuse_over(count, SWEEP_CASE_CAP, "sweep cases")
    oracle_k = min(max_k, SWEEP_K_CAP) if with_oracle else 0
    routes, degrees = [], {}
    for shape in shapes:
        for k in range(len(shape), top + 1):
            rule = _route(shape, k)
            shown = k <= oracle_k and rule.dim <= SWEEP_DIM_CAP
            if shown:
                degrees[shape, k] = rule.dim
            routes.append((shape, k, rule.verdict, shown))
    flips = chern.flip_points(degrees, max_n) if degrees else {}
    cases = []
    for shape, k, verdict, shown in routes:
        for n in range(k + 1, max_n + 1):
            oracle = n >= flips[shape, k] if shown else None
            # a Verdict starts with isotropic, rule, threshold_n
            cases.append(AgreementCase(shape, k, n, *verdict(n)[:3], oracle))
    return cases
