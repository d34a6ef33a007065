"""The verification layer: what checks the decision rules rather than applies them.

The horizontal-strip recurrence for Schur polynomials at (1, ..., 1), an
evaluation independent of the hook-content product, and the dimension that
cross-checks the two; the ratio gains that the threshold's proof leans on;
the interlacing inequality family and the replay of the proof chain; and the
suites that the self-check command reruns.  Nothing in the decision or the
sweep calls this module, so importing the package does not load it.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    ChainStepFailed,
    InternalMismatch,
    InvalidRange,
    OutOfTheoremScope,
)
from .partitions import (
    Partition,
    horizontal_strip_predecessors,
    partitions_up_to,
    strip_full_height_columns,
)
from .schur import schur_ones_hook_content

# fractions, with the decimal and numbers modules it loads, is imported only
# by the functions that build a Fraction, so dim and check-lemma36 skip it.
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


class InequalityRow(NamedTuple):
    index: int
    lhs: int
    rhs: int
    holds: bool


class InequalityReport(NamedTuple):
    """The interlacing inequality family dim(C^(k-i)) <= (k-i)(n-k-i)."""

    shape: Partition
    k: int
    n: int
    rows: tuple[InequalityRow, ...]

    @property
    def all_hold(self) -> bool:
        return all(row.holds for row in self.rows)


class ChainStep(NamedTuple):
    name: str
    detail: str
    holds: bool


def tevelev_inequalities(shape: Partition, k: int, n: int) -> InequalityReport:
    """Evaluate dim(C^(k-i)) <= (k-i)(n-k-i) for i = 0..min(k, n-k)."""
    shape = Partition(shape)
    if k < 1 or k > n:
        raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={n}")
    rows = []
    for i in range(min(k, n - k) + 1):
        lhs = schur_ones_hook_content(shape, k - i)
        rhs = (k - i) * (n - k - i)
        rows.append(InequalityRow(i, lhs, rhs, lhs <= rhs))
    return InequalityReport(shape, k, n, tuple(rows))


def verify_proof_chain(shape: Partition, k: int, n: int) -> tuple[ChainStep, ...]:
    """Replay the inequality chain certifying the threshold criterion.

    Starting from the hypothesis n >= dim/k + k, steps the dimension-ratio
    gain down one alphabet size at a time to rows(shape) + 1, then closes
    the final alphabet by the terminal case split (rectangle; shapes whose
    column-stripped remainder is (1), (2), (1,1); general remainder), and
    finally checks the full interlacing inequality family.  Every inequality
    is evaluated in exact arithmetic; the first failure raises
    ChainStepFailed naming the step.
    """
    from fractions import Fraction

    shape = Partition(shape)
    if not (k >= 3 and 2 <= len(shape) <= k and shape[0] >= 2):
        raise OutOfTheoremScope(
            f"chain replay needs k >= 3 and a shape with 2..k rows and at"
            f" least 2 columns; got shape {shape.as_text()}, k={k}"
        )
    if n < k:
        raise InvalidRange(f"need n >= k, got k={k}, n={n}")
    rows = len(shape)
    dim_at = {j: schur_ones_hook_content(shape, j) for j in range(rows, k + 1)}
    steps: list[ChainStep] = []

    def check(name: str, detail: str, holds: bool) -> None:
        if not holds:
            raise ChainStepFailed(f"step {name} violated: {detail}")
        steps.append(ChainStep(name, detail, True))

    check(
        "hypothesis",
        f"n = {n} >= dim/k + k = {dim_at[k]}/{k} + {k}",
        Fraction(n) >= Fraction(dim_at[k], k) + k,
    )

    for j in range(k, rows + 1, -1):
        gain = Fraction(dim_at[j], j) - Fraction(dim_at[j - 1], j - 1)
        check(
            f"descent-{j}-to-{j - 1}",
            f"dim ratio gain from alphabet {j - 1} to {j} is {gain} >= 1",
            gain >= 1,
        )
        i = k - (j - 1)
        check(
            f"interlace-row-{i}",
            f"n = {n} >= dim(1^{j - 1})/{j - 1} + {k + i}"
            f" = {dim_at[j - 1]}/{j - 1} + {k + i}",
            Fraction(n) >= Fraction(dim_at[j - 1], j - 1) + k + i,
        )

    if rows < k:
        i = k - rows
        rhs = rows * (n - k - i)
        if shape.is_rectangle():
            check(
                "rectangle-base",
                f"a rectangle has a single filling at alphabet {rows}:"
                f" dim = {dim_at[rows]} == 1",
                dim_at[rows] == 1,
            )
        else:
            stripped = strip_full_height_columns(shape)
            stripped_dim = schur_ones_hook_content(stripped, rows)
            check(
                "strip-columns",
                f"full-height columns are forced at alphabet {rows}:"
                f" dim {dim_at[rows]} == stripped dim {stripped_dim}",
                dim_at[rows] == stripped_dim,
            )
            if stripped == (1,):
                check(
                    "stripped-single-box",
                    f"dim at alphabet {rows} equals {rows}",
                    dim_at[rows] == rows,
                )
            elif stripped == (2,):
                check(
                    "stripped-degree-2-bound",
                    f"hypothesis forces n = {n} >= (3k+1)/2 = {Fraction(3 * k + 1, 2)}",
                    Fraction(n) >= Fraction(3 * k + 1, 2),
                )
                check(
                    "stripped-degree-2-identity",
                    f"dim/{rows} + {rows} == (3*{rows}+1)/2",
                    Fraction(dim_at[rows], rows) + rows == Fraction(3 * rows + 1, 2),
                )
            elif stripped == (1, 1):
                check(
                    "stripped-degree-2-bound",
                    f"hypothesis forces n = {n} >= (3k-1)/2 = {Fraction(3 * k - 1, 2)}",
                    Fraction(n) >= Fraction(3 * k - 1, 2),
                )
                check(
                    "stripped-degree-2-identity",
                    f"dim/{rows} + {rows} == (3*{rows}-1)/2",
                    Fraction(dim_at[rows], rows) + rows == Fraction(3 * rows - 1, 2),
                )
            else:
                stripped_dim_up = schur_ones_hook_content(stripped, rows + 1)
                gain = Fraction(stripped_dim_up, rows + 1) - Fraction(stripped_dim, rows)
                check(
                    "stripped-ratio-gain",
                    f"stripped shape {stripped.as_text()} gains {gain} >= 1"
                    f" from alphabet {rows} to {rows + 1}",
                    gain >= 1,
                )
                check(
                    "restore-columns",
                    f"dim(1^{rows + 1}) = {dim_at[rows + 1]} >="
                    f" stripped dim(1^{rows + 1}) = {stripped_dim_up}",
                    dim_at[rows + 1] >= stripped_dim_up,
                )
                full_gain = Fraction(dim_at[rows + 1], rows + 1) - Fraction(
                    dim_at[rows], rows
                )
                check(
                    "ratio-gain-at-base",
                    f"dim ratio gain from alphabet {rows} to {rows + 1}"
                    f" is {full_gain} >= 1",
                    full_gain >= 1,
                )
        check(
            f"interlace-row-{i}",
            f"dim(1^{rows}) = {dim_at[rows]} <= {rows}*({n}-{k}-{i}) = {rhs}",
            dim_at[rows] <= rhs,
        )

    report = tevelev_inequalities(shape, k, n)
    check(
        "interlacing-family",
        f"all {len(report.rows)} interlacing rows hold for i = 0..{len(report.rows) - 1}",
        report.all_hold,
    )
    return tuple(steps)


def self_check_suites() -> list[tuple[str, list[bool]]]:
    """(name, one outcome per case) for each dimension identity and ratio-gain
    bound that the self-check command reruns over small shapes."""
    from fractions import Fraction

    from .tableaux import count_ssyt

    shapes = list(partitions_up_to(6))
    nonempty = [s for s in shapes if s]
    gain = dimension_ratio_gain
    return [
        ("dimension-triple-agreement", [
            schur_ones_hook_content(s, n) == schur_ones_recurrence(s, n)
            == count_ssyt(s, n)
            for s in shapes for n in range(7)
        ]),
        ("ratio-nondecreasing", [
            gain(s, k) >= 0 for s in nonempty for k in range(2, 8)
        ]),
        ("ratio-gain-unit-fraction", [
            gain(s, k) >= Fraction(1, k)
            for s in nonempty for k in range(2, 8) if 2 <= len(s) <= k - 1
        ]),
        ("ratio-gain-one", [
            gain(s, k) >= 1
            for s in nonempty if s not in ((1,), (2,), (1, 1))
            for k in range(3, 8) if len(s) <= k - 2
        ]),
        ("binomial-ratio-gain-one", [
            symmetric_power_ratio_gain(d, alpha) >= 1
            for d in range(3, 9) for alpha in range(2, 9)
        ]),
    ]
