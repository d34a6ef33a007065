from math import comb
from time import perf_counter

import pytest

from schur_isotropy import chern, cli, isotropy, proofs
from schur_isotropy.errors import (
    ChainStepFailed,
    EmptyPartition,
    InvalidRange,
    OutOfTheoremScope,
    SizeGuard,
    ZeroModule,
)
from schur_isotropy.isotropy import (
    RULE_DEGREE_1,
    RULE_EXCEPTION_DEGREE_2,
    RULE_EXCEPTION_SKEW_3_N7,
    RULE_EXCEPTION_SKEW_DEGREE_2,
    RULE_EXCEPTION_SKEW_N_MINUS_2,
    RULE_MAIN,
    RULE_ORACLE_FALLBACK,
    RULE_TEVELEV_SKEW,
    RULE_TEVELEV_SYMMETRIC,
    RULE_TRIVIAL,
    decide,
    min_isotropic_n,
    run_sweep,
    threshold_n,
)
from schur_isotropy.partitions import Partition, partitions_up_to
from schur_isotropy.proofs import tevelev_inequalities, verify_proof_chain
from schur_isotropy.schur import schur_ones_hook_content
from schur_isotropy.sympoly import top_chern_nonzero


def test_threshold_examples():
    assert threshold_n(Partition((2, 1)), 3) == 6
    assert threshold_n(Partition((2, 2)), 4) == 9
    with pytest.raises(EmptyPartition):
        threshold_n(Partition(), 3)
    with pytest.raises(ZeroModule):
        threshold_n(Partition((1, 1, 1)), 2)
    with pytest.raises(InvalidRange):
        threshold_n(Partition((2, 1)), 0)


def test_decide_main_theorem_example():
    verdict = decide(Partition((2, 1)), 3, 6)
    assert verdict.isotropic is True
    assert verdict.rule == RULE_MAIN
    assert verdict.threshold_n == 6

    below = decide(Partition((2, 1)), 3, 5)
    assert below.isotropic is False
    assert below.threshold_n == 6


def test_decide_skew_cubic_exception():
    high = decide(Partition((1, 1, 1)), 5, 7)
    assert high.isotropic is False
    assert high.rule == RULE_EXCEPTION_SKEW_3_N7
    assert high.threshold_n is None

    low = decide(Partition((1, 1, 1)), 4, 7)
    assert low.isotropic is True
    assert low.rule == RULE_EXCEPTION_SKEW_3_N7


def test_decide_trivial_zero_module():
    verdict = decide(Partition((3, 1, 1, 1)), 2, 5)
    assert verdict.isotropic is True
    assert verdict.rule == RULE_TRIVIAL
    assert verdict.threshold_n is None


def test_decide_degree_one():
    for k in range(1, 6):
        at = decide(Partition((1,)), k, k + 1)
        below = decide(Partition((1,)), k, k)
        assert at.rule == below.rule == RULE_DEGREE_1
        assert at.threshold_n == k + 1
        assert at.isotropic is True and below.isotropic is False


def test_decide_degree_two_exception():
    # symmetric two-forms flip at n = 2k, skew two-forms one step earlier
    for lam, rule, shift in (
        (Partition((2,)), RULE_EXCEPTION_DEGREE_2, 0),
        (Partition((1, 1)), RULE_EXCEPTION_SKEW_DEGREE_2, 1),
    ):
        for k in range(2, 9):
            t = 2 * k - shift
            at = decide(lam, k, t)
            below = decide(lam, k, t - 1)
            assert at.rule == below.rule == rule
            assert at.threshold_n == t
            assert at.isotropic is True and below.isotropic is False


def test_decide_skew_n_minus_2_exception():
    # single column of height n-2 with n even: the criterion is on k
    verdict = decide(Partition((1, 1, 1, 1)), 4, 6)
    assert verdict.rule == RULE_EXCEPTION_SKEW_N_MINUS_2
    assert verdict.isotropic is True and verdict.threshold_n is None
    assert decide(Partition((1, 1, 1, 1)), 5, 6).isotropic is False
    assert decide(Partition((1, 1, 1, 1)), 6, 6).isotropic is False


def test_decide_skew_odd_ambient_uses_binomial_rule():
    # height n-2 but n odd: the exception does not fire
    verdict = decide(Partition((1, 1, 1)), 3, 5)
    assert verdict.rule == RULE_TEVELEV_SKEW
    assert verdict.threshold_n == 3 + -(-comb(3, 3) // 3)
    assert verdict.isotropic is True
    # and the oracle confirms the reading on small instances
    for k in (3, 4):
        assert (
            top_chern_nonzero(Partition((1, 1, 1)), k, 5).nonzero
            == decide(Partition((1, 1, 1)), k, 5).isotropic
        )


def test_decide_tevelev_symmetric():
    for d in (3, 4):
        for k in (1, 2, 3):
            t = k + -(-comb(d + k - 1, d) // k)
            at = decide(Partition((d,)), k, max(t, k))
            assert at.rule == RULE_TEVELEV_SYMMETRIC
            assert at.threshold_n == t
            assert at.isotropic == (max(t, k) >= t)
            if t - 1 > k:
                assert decide(Partition((d,)), k, t - 1).isotropic is False


def test_decide_oracle_fallback_for_k2():
    verdict = decide(Partition((2, 1)), 2, 3)
    assert verdict.rule == RULE_ORACLE_FALLBACK
    assert verdict.threshold_n is None
    assert verdict.isotropic == top_chern_nonzero(Partition((2, 1)), 2, 3).nonzero
    # single filling of (2,2) with two letters, so the class is a multiple of
    # the first Schubert class and survives for every n >= 3
    assert decide(Partition((2, 2)), 2, 3).isotropic is True
    # dimension 49, past the sweep's dimension cap of 40
    assert decide(Partition((50, 2)), 2, 30)[:2] == (True, RULE_ORACLE_FALLBACK)
    # the degree bound answers without a sum: dimension 999 fits Gr(2, n)
    # from n = 502 on, where the localization sum would be far over its cap;
    # the dimension of (200000, 2) is a few binomials, not one factor per box
    start = perf_counter()
    assert decide(Partition((1000, 2)), 2, 600)[:2] == (True, RULE_ORACLE_FALLBACK)
    assert min_isotropic_n(Partition((1000, 2)), 2) == 502
    assert decide(Partition((200000, 2)), 2, 5)[:2] == (False, RULE_ORACLE_FALLBACK)
    assert perf_counter() - start < 1


def test_two_row_shapes_at_k2_flip_at_the_degree_bound():
    # Bloch-Gieseker: the rank a - b + 1 bundle S_(a,b)(S^*) on Gr(2, n) is
    # ample, so its top Chern class is nonzero as soon as its degree fits,
    # at n = 2 + ceil((a - b + 1)/2)
    for a in range(2, 26):
        for b in range(1, a + 1):
            assert min_isotropic_n(Partition((a, b)), 2) == 2 + -(-(a - b + 1) // 2)
    # the rule reads that formula, so the localization sum pins it apart
    degrees = {
        (Partition((a, b)), 2): schur_ones_hook_content(Partition((a, b)), 2)
        for a in range(2, 41) for b in range(1, a + 1)
    }
    for (shape, _), flip in chern.flip_points(degrees, 30).items():
        assert flip == 2 + -(-(shape[0] - shape[1] + 1) // 2), shape


def test_decide_validation():
    with pytest.raises(EmptyPartition):
        decide(Partition(), 2, 4)
    with pytest.raises(InvalidRange):
        decide(Partition((2, 1)), 3, 2)
    with pytest.raises(InvalidRange):
        decide(Partition((2, 1)), 0, 2)


def test_threshold_matches_grassmannian_dimension_form():
    # n >= threshold exactly when k(n-k) >= dim, for main-theorem shapes
    for lam in partitions_up_to(5):
        if len(lam) < 2 or not lam or lam[0] < 2:
            continue
        for k in range(max(3, len(lam)), 6):
            t = threshold_n(lam, k)
            dim = schur_ones_hook_content(lam, k)
            for n in range(k, 2 * t):
                assert (n >= t) == (k * (n - k) >= dim)


def test_tevelev_inequalities_rows():
    report = tevelev_inequalities(Partition((2, 1)), 3, 6)
    assert [tuple(row) for row in report.rows] == [
        (0, 8, 9, True),
        (1, 2, 4, True),
        (2, 0, 1, True),
        (3, 0, 0, True),
    ]
    assert report.all_hold is True

    short = tevelev_inequalities(Partition((2, 1)), 3, 5)
    assert short.rows[0] == (0, 8, 6, False)
    assert short.all_hold is False


def test_tevelev_inequalities_zero_rows_for_tall_shapes():
    report = tevelev_inequalities(Partition((1, 1, 1, 1)), 3, 6)
    assert report.rows[0].lhs == 0
    assert report.rows[0].holds is True


def test_proof_chain_two_one():
    steps = verify_proof_chain(Partition((2, 1)), 3, 6)
    assert all(step.holds for step in steps)
    names = [step.name for step in steps]
    assert names[0] == "hypothesis"
    assert "stripped-single-box" in names
    assert names[-1] == "interlacing-family"


def test_proof_chain_rectangle_terminal():
    steps = verify_proof_chain(Partition((2, 2)), 4, 9)
    assert any(step.name == "rectangle-base" for step in steps)
    assert all(step.holds for step in steps)


def test_proof_chain_stripped_row_pair():
    lam = Partition((3, 1))
    t = threshold_n(lam, 4)
    steps = verify_proof_chain(lam, 4, t)
    assert any(step.name == "stripped-degree-2-bound" for step in steps)
    assert all(step.holds for step in steps)


def test_proof_chain_general_stripped_branch():
    lam = Partition((3, 2, 1))
    t = threshold_n(lam, 4)
    steps = verify_proof_chain(lam, 4, t)
    assert any(step.name == "stripped-ratio-gain" for step in steps)
    assert all(step.holds for step in steps)


def test_proof_chain_verifies_everywhere_above_threshold():
    # every branch of the terminal case split appears in this range
    names = set()
    for lam in partitions_up_to(6):
        if len(lam) < 2 or lam[0] < 2:
            continue
        for k in range(max(3, len(lam)), 7):
            t = threshold_n(lam, k)
            for n in (t, t + 3):
                steps = verify_proof_chain(lam, k, n)
                assert all(step.holds for step in steps)
                names.update(step.name for step in steps)
    assert {"rectangle-base", "stripped-single-box", "stripped-degree-2-bound",
            "stripped-ratio-gain"} <= names


def test_proof_chain_fails_below_threshold():
    # the hypothesis step is the first inequality and it fails at n=6 < 9
    with pytest.raises(ChainStepFailed) as excinfo:
        verify_proof_chain(Partition((2, 2)), 4, 6)
    assert "hypothesis" in str(excinfo.value)


def test_proof_chain_scope():
    with pytest.raises(OutOfTheoremScope):
        verify_proof_chain(Partition((2, 1)), 2, 4)
    with pytest.raises(OutOfTheoremScope):
        verify_proof_chain(Partition((3,)), 4, 10)


def test_min_isotropic_n():
    assert min_isotropic_n(Partition((2, 1)), 3) == 6
    assert min_isotropic_n(Partition((1, 1)), 3) == 5
    assert min_isotropic_n(Partition((1,)), 4) == 5
    # more rows than k: isotropic at every n >= k
    assert min_isotropic_n(Partition((2, 2, 2)), 2) == 2
    # the even-ambient exception can delay isotropy past the binomial threshold
    assert min_isotropic_n(Partition((1, 1, 1, 1)), 5) == 7
    with pytest.raises(EmptyPartition):
        min_isotropic_n(Partition(), 3)
    with pytest.raises(InvalidRange):
        min_isotropic_n(Partition((2, 1)), 0)


def _first_isotropic_n(lam, k):
    n = k
    while not decide(lam, k, n).isotropic:
        n += 1
    return n


def test_min_isotropic_n_matches_a_scan_from_k():
    shapes = [lam for lam in partitions_up_to(5) if lam]
    shapes += [Partition((1,) * d) for d in range(6, 9)]
    for lam in shapes:
        for k in range(1, 10 if lam[0] == 1 else 6):
            assert min_isotropic_n(lam, k) == _first_isotropic_n(lam, k), (lam, k)


def test_min_isotropic_n_starts_at_the_threshold(monkeypatch):
    # min_isotropic_n evaluates decide's rule through the verdict map of
    # the record _route returns; the closed form needs it at n = k and at
    # the start only
    calls = []
    route = isotropy._route

    def counting_route(shape, k):
        rule = route(shape, k)

        def counted(n):
            calls.append(n)
            if len(calls) > 2:
                raise AssertionError(f"min_isotropic_n evaluated n = {calls}")
            return rule.verdict(n)

        return rule._replace(verdict=counted)

    monkeypatch.setattr(isotropy, "_route", counting_route)
    assert min_isotropic_n(Partition((5, 5, 5)), 20) == 14945768674


def test_decide_monotone_in_n():
    # once isotropic, larger ambient spaces stay isotropic (the rule swap at
    # the even-ambient skew exception is excluded, since there the shape's
    # relation to n changes which rule applies)
    for lam in partitions_up_to(5):
        if not lam:
            continue
        for k in range(len(lam), 6):
            previous = None
            for n in range(max(k, 1), 10):
                if n < k:
                    continue
                verdict = decide(lam, k, n)
                skip = RULE_EXCEPTION_SKEW_N_MINUS_2 in (
                    verdict.rule,
                    previous[1] if previous else None,
                )
                if previous and not skip:
                    assert not (previous[0] and not verdict.isotropic), (lam, k, n)
                previous = (verdict.isotropic, verdict.rule)


def test_verdict_threshold_consistency():
    # whenever a threshold is reported, the verdict equals n >= threshold
    for lam in partitions_up_to(5):
        if not lam:
            continue
        for k in range(len(lam), 6):
            for n in range(k, 10):
                verdict = decide(lam, k, n)
                if verdict.threshold_n is not None:
                    assert verdict.isotropic == (n >= verdict.threshold_n)
                if verdict.rule == RULE_TRIVIAL:
                    assert len(lam) > k


def test_main_rule_reads_one_hook_content():
    # the main rule's threshold, verdict and detail, restated from threshold_n
    # and Weyl's product on every shape it applies to up to size 6, k <= 6
    applied = 0
    for lam in partitions_up_to(6):
        if len(lam) < 2 or lam[0] < 2:
            continue
        for k in range(max(3, len(lam)), 7):
            t = threshold_n(lam, k)
            dim = schur_ones_hook_content(lam, k)
            for n in range(k, t + 3):
                verdict = decide(lam, k, n)
                assert verdict == (
                    n >= t, RULE_MAIN, t,
                    f"isotropic iff n >= dim/k + k = {dim}/{k} + {k}; minimal n = {t}",
                ), (lam, k, n)
                applied += 1
    assert applied > 1000


def test_one_routing_per_pair_gives_the_verdicts_of_decide():
    # run_sweep routes each (shape, k) once for its whole run of n; the
    # single-column rules that change with n must still come out per n
    for oracle in (False, True):
        cases = run_sweep(6, 6, 12, with_oracle=oracle)
        assert len(cases) == 992
        for case in cases:
            assert decide(case.shape, case.k, case.n)[:3] == (
                case.isotropic, case.rule, case.threshold_n
            ), case
        rules = {(tuple(c.shape), c.n): c.rule for c in cases}
        assert rules[(1, 1, 1, 1), 6] == RULE_EXCEPTION_SKEW_N_MINUS_2
        assert rules[(1, 1, 1), 7] == RULE_EXCEPTION_SKEW_3_N7
        assert rules[(1, 1, 1), 8] == RULE_TEVELEV_SKEW


def test_a_sweep_raises_what_decide_raises(monkeypatch):
    # the oracle column reads the localization sum; with its cap lowered,
    # (3,1) at k = 2 (dimension 3) is refused at its first candidate n = 4
    monkeypatch.setattr(chern, "LOCALIZATION_COST_CAP", 41)
    with pytest.raises(SizeGuard) as swept:
        run_sweep(4, 2, 5, with_oracle=True)
    assert str(swept.value).startswith("localization on Gr(2,4) predicts cost 42 ")
    for oracle in (False, True):
        # windows with no n above k = 2, or no k = 2, decide only k = 1
        for window in ((4, 2, 2), (4, 1, 5)):
            cases = run_sweep(*window, with_oracle=oracle)
            assert cases and all(case.k == 1 for case in cases), window


def test_decisions_and_a_sweep_without_the_oracle_sum_nothing(monkeypatch):
    # decide and min_isotropic_n answer the k = 2 two-row corner by the
    # degree bound, and a sweep without the oracle column asks chern nothing
    windows = [(5, 5, 9), (6, 6, 12), (4, 2, 5)]
    expected = {window: run_sweep(*window) for window in windows}

    def refused(*args, **kwargs):
        raise AssertionError("a decision reached the localization sum")

    monkeypatch.setattr(chern, "flip_points", refused)
    monkeypatch.setattr(chern, "_pass", refused)
    for a in range(2, 26):
        for b in range(1, a + 1):
            shape, t = Partition((a, b)), 2 + -(-(a - b + 1) // 2)
            assert decide(shape, 2, t - 1)[:2] == (False, RULE_ORACLE_FALLBACK)
            assert decide(shape, 2, t)[:2] == (True, RULE_ORACLE_FALLBACK)
            assert min_isotropic_n(shape, 2) == t
    for window, cases in expected.items():
        assert run_sweep(*window, with_oracle=False) == cases, window


def test_each_routing_evaluates_the_dimension_once(monkeypatch, capsys):
    # the dimension, its threshold and the verdicts of a (shape, k) all come
    # from one evaluation of Weyl's product, however many of them a caller reads
    calls = []
    product = isotropy.schur_ones_hook_content

    def counted(shape, n):
        calls.append((tuple(shape), n))
        return product(shape, n)

    for module in (isotropy, chern):
        monkeypatch.setattr(module, "schur_ones_hook_content", counted)
    assert cli.run(["min-n", "--lambda", "20,2", "--k", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[2].split() == [
        "20,2", "2", "19", "12", "12", "oracle-fallback"]
    assert calls == [((20, 2), 2)]
    calls.clear()
    assert decide(Partition((20, 2)), 2, 12).isotropic
    assert calls == [((20, 2), 2)]
    calls.clear()
    pairs = {(tuple(c.shape), c.k) for c in run_sweep(5, 5, 9, with_oracle=True)}
    assert len(calls) == len(set(calls)) == len(pairs) == 66
    assert set(calls) == pairs


def test_a_sweep_counts_its_cases_before_it_routes_one(monkeypatch):
    # the closed sum over k per shape is the sweep's length: at the cap it
    # answers, one case over it is refused before any (shape, k) is routed
    windows = ((5, 5, 9), (6, 6, 12), (4, 2, 5), (3, 7, 4), (6, 1, 2))
    totals = {window: len(run_sweep(*window)) for window in windows}
    route = isotropy._route
    for window, total in totals.items():
        monkeypatch.setattr(isotropy, "_route", route)
        monkeypatch.setattr(isotropy, "SWEEP_CASE_CAP", total)
        assert len(run_sweep(*window, with_oracle=True)) == total
        monkeypatch.setattr(isotropy, "SWEEP_CASE_CAP", total - 1)
        monkeypatch.setattr(isotropy, "_route", None)
        with pytest.raises(SizeGuard) as refused:
            run_sweep(*window)
        assert str(refused.value) == f"{total} sweep cases exceed the cap {total - 1}"


def test_a_sweep_enumerates_only_the_shapes_with_cases(monkeypatch):
    # a shape with more rows than min(max_k, max_n - 1) has no case, so the
    # sweep does not list it: one row each up to size 36 is 36 shapes and
    # the empty one, where every shape of size <= 36 is 99133
    listed = []

    def counted(*args):
        for shape in partitions_up_to(*args):
            listed.append(shape)
            yield shape

    monkeypatch.setattr(isotropy, "partitions_up_to", counted)
    assert len(run_sweep(36, 1, 2)) == 36
    assert listed == [Partition()] + [Partition((size,)) for size in range(1, 37)]
    for window, shapes, cases in (((6, 6, 3), 16, 27), ((5, 5, 9), 19, 364),
                                  ((8, 3, 12), 41, 688)):
        listed.clear()
        assert len(run_sweep(*window)) == cases, window
        assert len(listed) == shapes, window
        top = min(window[1], window[2] - 1)
        assert listed == [lam for lam in partitions_up_to(window[0]) if len(lam) <= top]


def test_the_interlacing_rows_and_descent_steps_are_counted_first(monkeypatch):
    # (2,1) at k = 9, n = 36: 10 interlacing rows and 7 descent steps
    chain = verify_proof_chain(Partition((2, 1)), 9, 36)
    assert len(tevelev_inequalities(Partition((2, 1)), 9, 36).rows) == 10
    monkeypatch.setattr(proofs, "INEQUALITY_ROW_CAP", 10)
    monkeypatch.setattr(proofs, "DESCENT_STEP_CAP", 7)
    assert verify_proof_chain(Partition((2, 1)), 9, 36) == chain
    # (2,1) at k = 10, n = 36: 11 rows and 8 steps, refused before any
    # dimension is evaluated
    monkeypatch.setattr(proofs, "schur_ones_hook_content", None)
    with pytest.raises(SizeGuard, match="^8 descent steps exceed the cap 7$"):
        verify_proof_chain(Partition((2, 1)), 10, 36)
    monkeypatch.setattr(proofs, "DESCENT_STEP_CAP", 8)
    for call in (tevelev_inequalities, verify_proof_chain):
        with pytest.raises(SizeGuard, match="^11 interlacing rows exceed the cap 10$"):
            call(Partition((2, 1)), 10, 36)
