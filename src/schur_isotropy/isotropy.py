"""Decision rules for generic isotropic subspaces of forms with Young-type symmetry.

A form of symmetry type ``shape`` on C^n generically vanishes on some
k-dimensional subspace exactly when n clears a dimension threshold.  The
threshold is dim(module over C^k)/k + k for shapes with at least two rows
and two columns (k >= 3); single-row and single-column shapes follow the
binomial criteria of Tevelev together with the exceptional families: the
two degree-2 shapes, alternating (n-2)-forms with n even, and alternating
3-forms on C^7.  The one uncovered corner (k = 2 with a two-row,
two-column shape) is delegated to the top-Chern-class oracle.  ``run_sweep``
compares the rules with that class over a grid of small instances, at the
flip points that ``chern.flip_points`` finds.

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
from typing import NamedTuple

from . import chern
from .errors import (
    ChainStepFailed,
    DegreeGuard,
    EmptyPartition,
    InvalidRange,
    OutOfTheoremScope,
    SizeGuard,
    ZeroModule,
)
from .partitions import Partition, partitions_up_to, strip_full_height_columns
from .schur import (
    dimension_ratio_gain,
    schur_ones_hook_content,
    schur_ones_recurrence,
    symmetric_power_ratio_gain,
)
from .tableaux import count_ssyt

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

# Oracle caps for exhaustive sweeps and the k = 2 fallback; single oracle
# queries may raise the tableau/term caps via flags instead.
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


class ChainStep(NamedTuple):
    name: str
    detail: str
    holds: bool


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
    """Route (shape, k, n) to the applicable rule and decide isotropy."""
    shape = Partition(shape)
    if not shape:
        raise EmptyPartition("the empty symmetry type carries no decision")
    if k < 1 or k > n:
        raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={n}")
    rows = len(shape)

    if rows > k:
        return Verdict(
            True, RULE_TRIVIAL, None,
            f"shape has {rows} rows > k={k}: the module over any k-plane is zero,"
            " so every form restricts to zero",
        )

    if shape == (1,):
        t = k + 1
        return Verdict(
            n >= t, RULE_DEGREE_1, t,
            f"a generic linear functional has a {k}-dimensional zero subspace"
            f" iff n >= {t}",
        )

    if shape == (2,):
        t = 2 * k
        return Verdict(
            n >= t, RULE_EXCEPTION_DEGREE_2, t,
            f"degree-2 forms are isotropic iff n >= 2k = {t}",
        )

    if shape == (1, 1):
        t = 2 * k - 1
        return Verdict(
            n >= t, RULE_EXCEPTION_SKEW_DEGREE_2, t,
            f"alternating 2-forms are isotropic iff n >= 2k-1 = {t}",
        )

    if shape[0] == 1:
        d = rows  # single column of height d >= 3
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
        t = k + _ceil_div(comb(k, d), k)
        return Verdict(
            n >= t, RULE_TEVELEV_SKEW, t,
            f"alternating {d}-forms are isotropic iff n >= C({k},{d})/{k} + {k};"
            f" minimal n = {t}",
        )

    if rows == 1:
        d = shape[0]  # single row of length d >= 3
        t = k + _ceil_div(comb(d + k - 1, d), k)
        return Verdict(
            n >= t, RULE_TEVELEV_SYMMETRIC, t,
            f"symmetric {d}-forms are isotropic iff n >= C({d + k - 1},{d})/{k}"
            f" + {k}; minimal n = {t}",
        )

    if k >= 3:
        dim = schur_ones_hook_content(shape, k)
        t = k + _ceil_div(dim, k)  # threshold_n, without a second hook-content
        return Verdict(
            n >= t, RULE_MAIN, t,
            f"isotropic iff n >= dim/k + k = {dim}/{k} + {k}; minimal n = {t}",
        )

    # k == 2 with a two-row, two-column shape: no closed-form rule is stated,
    # so the oracle answers directly.
    dim = schur_ones_hook_content(shape, k)
    if dim > SWEEP_DIM_CAP:
        raise OutOfTheoremScope(
            f"k={k} with shape {shape.as_text()} is outside the closed-form rules"
            f" and its dimension {dim} exceeds the oracle cap {SWEEP_DIM_CAP}"
        )
    try:
        oracle = chern.top_chern_nonzero(shape, k, n)
    except (SizeGuard, DegreeGuard) as exc:
        raise OutOfTheoremScope(
            f"oracle fallback for k={k}, shape {shape.as_text()} exceeded caps: {exc}"
        ) from exc
    return Verdict(
        oracle.nonzero, RULE_ORACLE_FALLBACK, None,
        f"outside the closed-form rules (k=2, two-row shape); the top Chern"
        f" class on Gr({k},{n}) is {'nonzero' if oracle.nonzero else 'zero'}",
    )


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


def min_isotropic_n(shape: Partition, k: int) -> int:
    """Smallest n >= k for which decide() reports isotropy.

    The scan starts at the threshold of the rule that decide() applies at
    n = k.  No rule reports isotropy below that threshold: the exceptional
    single-column rules only delay isotropy past the binomial threshold,
    so the answer is the threshold or a few steps beyond it, and the scan
    stays short even when the threshold is huge.  The k = 2 oracle
    fallback has no threshold and is scanned from k; by n = k + dim it is
    guaranteed nonzero since no Schur coefficient is cut by the box bound.
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

    The oracle verdict is whether n has reached the (shape, k) flip point
    that chern.flip_points finds, one call per k; it agrees with
    top_chern_nonzero at every n.  Order is deterministic: shapes by size
    then lex-decreasing, then k, then n.
    """
    shapes = [shape for shape in partitions_up_to(max_size) if shape]
    oracle_k = min(max_k, k_cap) if with_oracle else 0
    flips = {}
    for k in range(1, oracle_k + 1):
        degrees = {}
        for shape in shapes:
            if len(shape) <= k:
                degree = schur_ones_hook_content(shape, k)
                if degree <= dim_cap:
                    degrees[shape] = degree
        for shape, flip in chern.flip_points(degrees, k, max_n).items():
            flips[shape, k] = flip
    cases = []
    for shape in shapes:
        for k in range(len(shape), max_k + 1):
            flip = flips.get((shape, k))
            for n in range(k + 1, max_n + 1):
                verdict = decide(shape, k, n)
                oracle = None if flip is None else n >= flip
                # a Verdict starts with isotropic, rule, threshold_n
                cases.append(AgreementCase(shape, k, n, *verdict[:3], oracle))
    return cases


def self_check_suites() -> list[tuple[str, list[bool]]]:
    """(name, one outcome per case) for each dimension identity and ratio-gain
    bound that the self-check command reruns over small shapes."""
    from fractions import Fraction

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
