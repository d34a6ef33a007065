"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The two degree-2 exception shapes flip at different points: symmetric
two-forms (shape (2,)) at n = 2k, skew two-forms (shape (1,1)) at n = 2k-1,
since a generic skew form on an odd-dimensional space has a kernel, and the
kernel plus a Lagrangian subspace of the rank part is isotropic.  Criteria 6
and 8 check both flips against the Schubert oracle.
"""

import json
import time
from fractions import Fraction
from math import comb

from schur_isotropy import isotropy
from schur_isotropy.cli import run
from schur_isotropy.isotropy import (
    RULE_EXCEPTION_SKEW_3_N7,
    RULE_MAIN,
    decide,
    run_sweep,
)
from schur_isotropy.partitions import Partition, partitions_up_to
from schur_isotropy.proofs import (
    dimension_ratio_gain,
    schur_ones_recurrence,
    tevelev_inequalities,
)
from schur_isotropy.schur import schur_ones_hook_content
from schur_isotropy.sympoly import top_chern_nonzero
from schur_isotropy.tableaux import count_ssyt

from closed_forms import hook_shape_dimension, two_row_rectangle_dimension

SWEEP_ORACLE_K_CAP = 6
SWEEP_ORACLE_DIM_CAP = 40


def _report(number, description, ok):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")


def _cli_json(capsys, argv):
    code = run(argv + ["--json"])
    envelope = json.loads(capsys.readouterr().out)
    return code, envelope


def test_criterion_1_skew_cubic_example(capsys):
    start = time.perf_counter()
    code, envelope = _cli_json(capsys, ["oracle", "--lambda", "1,1,1", "--k", "5", "--n", "7"])
    elapsed = time.perf_counter() - start

    oracle_ok = (
        code == 0
        and envelope["result"]["nonzero"] is False
        and envelope["result"]["degree"] == "10"
        and envelope["result"]["surviving"] == []
    )
    verdict = decide(Partition((1, 1, 1)), 5, 7)
    decide_ok = verdict.isotropic is False and verdict.rule == RULE_EXCEPTION_SKEW_3_N7
    ok = oracle_ok and decide_ok and elapsed < 5.0
    _report(1, "skew cubic on C^7, k=5: top Chern class vanishes, not isotropic", ok)
    assert oracle_ok, envelope
    assert decide_ok, verdict
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_two_one_example(capsys):
    start = time.perf_counter()
    code, envelope = _cli_json(capsys, ["oracle", "--lambda", "2,1", "--k", "3", "--n", "6"])
    elapsed = time.perf_counter() - start

    oracle_ok = code == 0 and envelope["result"]["nonzero"] is True
    verdict = decide(Partition((2, 1)), 3, 6)
    decide_ok = (
        verdict.isotropic is True
        and verdict.threshold_n == 6
        and schur_ones_hook_content(Partition((2, 1)), 3) == 8
    )
    ok = oracle_ok and decide_ok and elapsed < 2.0
    _report(2, "shape (2,1) on C^6, k=3: class survives, isotropic at threshold 6", ok)
    assert oracle_ok, envelope
    assert decide_ok, verdict
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_criterion_3_dimension_triple_agreement():
    start = time.perf_counter()
    failures = []
    cases = 0
    for lam in partitions_up_to(6):
        for n in range(0, 7):
            cases += 1
            hook = schur_ones_hook_content(lam, n)
            recurrence = schur_ones_recurrence(lam, n)
            count = count_ssyt(lam, n)
            if not hook == recurrence == count:
                failures.append((tuple(lam), n, hook, recurrence, count))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(3, f"hook-content, strip recurrence, tableau count agree on {cases} cases", ok)
    assert not failures, failures
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_closed_form_cross_checks():
    failures = []
    for d in range(2, 7):
        for n in range(2, 9):
            expected = hook_shape_dimension(d, n)
            actual = schur_ones_hook_content(Partition((d, 1)), n)
            if expected != actual:
                failures.append(("hook", d, n, expected, actual))
    for d in range(2, 6):
        for n in range(2, 9):
            expected = two_row_rectangle_dimension(d, n)
            actual = schur_ones_hook_content(Partition((d, d)), n)
            if expected != actual:
                failures.append(("rectangle", d, n, expected, actual))
    ok = not failures
    _report(4, "hook and two-row rectangle closed forms match hook-content", ok)
    assert not failures, failures


def test_criterion_5_inequality_suites():
    start = time.perf_counter()
    failures = []
    shapes = [lam for lam in partitions_up_to(6) if lam]

    for lam in shapes:
        for k in range(2, 8):
            if dimension_ratio_gain(lam, k) < 0:
                failures.append(("nondecreasing", tuple(lam), k))

    for lam in shapes:
        for k in range(2, 8):
            if 2 <= len(lam) <= k - 1 and dimension_ratio_gain(lam, k) < Fraction(1, k):
                failures.append(("unit-fraction", tuple(lam), k))

    excluded = {Partition((1,)), Partition((2,)), Partition((1, 1))}
    for lam in shapes:
        if lam in excluded:
            continue
        for k in range(3, 8):
            if 1 <= len(lam) <= k - 2 and dimension_ratio_gain(lam, k) < 1:
                failures.append(("gain-one", tuple(lam), k))

    for d in range(3, 9):
        for alpha in range(2, 9):
            if dimension_ratio_gain(Partition((d,)), alpha) < 1:
                failures.append(("binomial", d, alpha))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(5, "all four dimension-ratio inequality suites hold with zero violations", ok)
    assert not failures, failures
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def _criterion_sweep():
    assert isotropy.SWEEP_DIM_CAP == SWEEP_ORACLE_DIM_CAP
    assert isotropy.SWEEP_K_CAP == SWEEP_ORACLE_K_CAP
    return run_sweep(5, 5, 9, with_oracle=True)


def test_criterion_6_decision_oracle_agreement_sweep():
    start = time.perf_counter()
    cases = _criterion_sweep()
    disagreements = [
        (tuple(c.shape), c.k, c.n, c.rule, c.isotropic, c.oracle_nonzero)
        for c in cases
        if c.agree is False
    ]
    elapsed = time.perf_counter() - start
    compared = sum(1 for c in cases if c.oracle_nonzero is not None)
    ok = not disagreements and elapsed < 600.0
    _report(6, f"decision rules vs oracle on {compared} compared instances", ok)
    assert elapsed < 600.0, f"took {elapsed:.2f}s"
    assert not disagreements, (
        "closed-form rules disagree with the Schubert oracle on "
        f"{len(disagreements)} instances: {disagreements}"
    )


def test_criterion_7_threshold_tightness_and_interlacing():
    failures = []
    seen = set()
    for case in _criterion_sweep():
        if case.rule != RULE_MAIN:
            continue
        lam, k = case.shape, case.k
        if (lam, k) not in seen:
            seen.add((lam, k))
            t = case.threshold_n
            if decide(lam, k, t - 1).isotropic:
                failures.append(("isotropic-below-threshold", tuple(lam), k, t))
            if not decide(lam, k, t).isotropic:
                failures.append(("not-isotropic-at-threshold", tuple(lam), k, t))
        if case.isotropic and not tevelev_inequalities(lam, k, case.n).all_hold:
            failures.append(("interlacing-fails", tuple(lam), k, case.n))
    ok = not failures
    _report(7, f"threshold flips exactly and interlacing rows hold"
               f" on {len(seen)} main-rule shapes", ok)
    assert not failures, failures


def test_criterion_8_exception_coverage():
    failures = []

    # degree-2 shapes: symmetric forms flip at n = 2k, skew forms at n = 2k-1
    for lam, shift in ((Partition((2,)), 0), (Partition((1, 1)), 1)):
        for k in range(2, 9):
            t = 2 * k - shift
            if decide(lam, k, t - 1).isotropic or not decide(lam, k, t).isotropic:
                failures.append(("decide-flip", tuple(lam), k))
        for k in range(2, SWEEP_ORACLE_K_CAP + 1):
            if comb(k + lam.size - len(lam), lam.size) > SWEEP_ORACLE_DIM_CAP:
                continue
            t = 2 * k - shift
            if not top_chern_nonzero(lam, k, t).nonzero:
                failures.append(("oracle-at-flip", tuple(lam), k))
            if top_chern_nonzero(lam, k, t - 1).nonzero:
                failures.append(("oracle-below-flip", tuple(lam), k))

    # skew cubic on C^7 flips between k = 4 and k = 5
    for k in range(3, 8):
        if decide(Partition((1, 1, 1)), k, 7).isotropic != (k <= 4):
            failures.append(("skew-cubic-decide", k))
    for k in range(3, SWEEP_ORACLE_K_CAP + 1):
        if top_chern_nonzero(Partition((1, 1, 1)), k, 7).nonzero != (k <= 4):
            failures.append(("skew-cubic-oracle", k))

    # full columns of height n-2 with n even: isotropic exactly for k <= n-2
    for n in (6, 8):
        lam = Partition((1,) * (n - 2))
        for k in range(1, n + 1):
            if decide(lam, k, n).isotropic != (k <= n - 2):
                failures.append(("even-skew-decide", n, k))
        for k in range(n - 2, min(n, SWEEP_ORACLE_K_CAP) + 1):
            if comb(k, n - 2) > SWEEP_ORACLE_DIM_CAP:
                continue
            if top_chern_nonzero(lam, k, n).nonzero != (k <= n - 2):
                failures.append(("even-skew-oracle", n, k))

    ok = not failures
    _report(8, "exception families flip at the stated points, oracle concurring", ok)
    assert not failures, (
        f"exception coverage failures: {failures}. Symmetric two-forms flip at"
        " n = 2k, skew two-forms at n = 2k-1, alternating 3-forms on C^7 at"
        " k = 4/5, and alternating (n-2)-forms with n even at k = n-2/n-1."
    )
