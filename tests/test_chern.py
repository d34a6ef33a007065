from collections import Counter

import pytest

from schur_isotropy import chern, sympoly, tableaux
from schur_isotropy.chern import localization_integrals, top_chern_nonzero
from schur_isotropy.errors import (
    DegreeGuard,
    InvalidRange,
    SizeGuard,
    ZeroBundle,
)
from schur_isotropy.isotropy import (
    RULE_ORACLE_FALLBACK,
    AgreementCase,
    decide,
    run_sweep,
)
from schur_isotropy.partitions import Partition, partitions_up_to
from schur_isotropy.schur import schur_ones_hook_content
from schur_isotropy.sympoly import product_of_linear_forms, schur_expand
from schur_isotropy.tableaux import weight_vectors


def test_skew_cubic_on_c7_vanishes():
    verdict = top_chern_nonzero(Partition((1, 1, 1)), 5, 7)
    assert verdict.nonzero is False
    assert verdict.degree == 10
    assert verdict.shortcut == "none"
    assert verdict.surviving == ()


def test_two_one_on_c6_survives():
    verdict = top_chern_nonzero(Partition((2, 1)), 3, 6)
    assert verdict.nonzero is True
    assert verdict.degree == 8
    assert verdict.shortcut == "none"
    assert verdict.surviving == ((Partition((3, 3, 2)), 105),)
    # sigma_1 meets sigma_(3,3,2) once on Gr(3,6), so the integral is c_(3,3,2)
    assert localization_integrals({(2, 1): [6]}, 3)[(2, 1)][6] == 105


def test_degree_shortcut():
    verdict = top_chern_nonzero(Partition((2,)), 2, 3)
    assert verdict.degree == 3
    assert verdict.nonzero is False
    assert verdict.shortcut == "degree-exceeds-top"
    assert verdict.surviving == ()


def test_empty_shape_shortcut():
    verdict = top_chern_nonzero(Partition(), 2, 4)
    assert verdict.nonzero is False
    assert verdict.degree == 1
    assert verdict.shortcut == "empty-weights"


def test_input_validation():
    with pytest.raises(InvalidRange):
        top_chern_nonzero(Partition((1,)), 3, 2)
    with pytest.raises(InvalidRange):
        top_chern_nonzero(Partition((1,)), 0, 2)
    with pytest.raises(ZeroBundle):
        top_chern_nonzero(Partition((1, 1, 1)), 2, 5)


def test_survivors_fit_in_the_box():
    for lam, k in [(Partition((2, 1)), 3), (Partition((1, 1)), 3), (Partition((2,)), 3)]:
        for n in range(k + 1, k + 6):
            verdict = top_chern_nonzero(lam, k, n)
            for mu, coeff in verdict.surviving:
                assert coeff != 0
                assert len(mu) <= k
                assert mu.part(1) <= n - k
                assert mu.size == verdict.degree


def test_monotone_in_ambient_dimension():
    for lam, k in [
        (Partition((2, 1)), 3),
        (Partition((1, 1)), 3),
        (Partition((2,)), 4),
        (Partition((1, 1, 1)), 4),
    ]:
        seen_nonzero = False
        for n in range(k + 1, k + 12):
            nonzero = top_chern_nonzero(lam, k, n).nonzero
            if seen_nonzero:
                assert nonzero, (lam, k, n)
            seen_nonzero = seen_nonzero or nonzero


def test_survivors_match_the_full_expansion_cut_to_the_box():
    # reference: expand the whole product in the Schur basis, then keep the
    # shapes with mu_1 <= n - k, over the capped grid size <= 5, k <= 5,
    # dim <= 40, n <= 10 (a dim above k(10 - k) takes the degree shortcut
    # at every n there, so it has nothing to compare)
    checked = 0
    for lam in partitions_up_to(5):
        if not lam:
            continue
        for k in range(len(lam), 6):
            if schur_ones_hook_content(lam, k) > min(40, k * (10 - k)):
                continue
            full = schur_expand(product_of_linear_forms(weight_vectors(lam, k), k))
            for n in range(k + 1, 11):
                verdict = top_chern_nonzero(lam, k, n)
                if verdict.shortcut != "none":
                    continue
                expected = [(mu, c) for mu, c in full.items() if mu.part(1) <= n - k]
                assert list(verdict.surviving) == expected, (lam, k, n)
                checked += 1
    assert checked == 268


def _standard_fillings_to_the_box(k, width):
    # f[mu] counts the ways to grow mu (k parts, zeros kept) into the
    # k x width box one box at a time, each step a partition: the standard
    # fillings of the skew shape box/mu
    f = {}
    for mu in sorted(_shapes_in_box(k, width), key=sum, reverse=True):
        grown = [
            mu[:r] + (mu[r] + 1,) + mu[r + 1:]
            for r in range(k)
            if mu[r] < width and (r == 0 or mu[r - 1] > mu[r])
        ]
        f[mu] = sum(f[g] for g in grown) if grown else 1
    return f


def _shapes_in_box(k, width):
    if k == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(width + 1)
        for rest in _shapes_in_box(k - 1, first)
    ]


def test_localization_integral_pairs_the_survivors_with_sigma_1():
    # the integral is sum_mu c_mu * deg(sigma_mu * sigma_1^m), and that degree
    # counts the standard fillings of the box minus mu, over the grid of the
    # reference test above
    checked = zeros = 0
    for lam in partitions_up_to(5):
        if not lam:
            continue
        for k in range(len(lam), 6):
            if schur_ones_hook_content(lam, k) > min(40, k * (10 - k)):
                continue
            for n in range(k + 1, 11):
                verdict = top_chern_nonzero(lam, k, n)
                if verdict.shortcut != "none":
                    continue
                f = _standard_fillings_to_the_box(k, n - k)
                expected = sum(
                    c * f[tuple(mu) + (0,) * (k - len(mu))]
                    for mu, c in verdict.surviving
                )
                value = localization_integrals({lam: [n]}, k)[lam][n]
                assert value == expected, (lam, k, n)
                checked += 1
                zeros += expected == 0
    assert checked == 268
    assert 0 < zeros < checked


def test_localization_integral_shortcuts_and_guards():
    def integral(shape, k, n):
        return localization_integrals({shape: [n]}, k)[shape][n]

    # degree 3 exceeds dim Gr(2,3) = 2
    assert integral(Partition((2,)), 2, 3) == 0
    assert integral(Partition(), 2, 4) == 0
    with pytest.raises(InvalidRange):
        integral(Partition((1,)), 3, 2)
    with pytest.raises(ZeroBundle):
        integral(Partition((1, 1, 1)), 2, 5)
    with pytest.raises(SizeGuard):
        integral(Partition((1,)), 1, 10**6)
    # c_1 of O(1200) on P^2 is 1200 times the hyperplane class
    assert integral(Partition((1200,)), 1, 3) == 1200
    # c_1(O(1)) * sigma_1^3 on P^4 is the class of a point
    assert integral(Partition((1,)), 1, 5) == 1
    # Gr(300, 301) is P^300 again, with S^* of rank 300 and c_300(S^*) its point
    assert integral(Partition((1,)), 300, 301) == 1


def _no_expansion(*args, **kwargs):
    raise AssertionError("the sweep fell back to the expansion")


def test_a_sweep_at_large_n_passes_the_cost_guard(monkeypatch):
    # k = 6, n = 23 has 100947 fixed points; the expansion answers (1,) there
    # at once, so the guard must let the sum run too, with no fallback
    monkeypatch.setattr(chern, "top_chern_nonzero", _no_expansion)
    cases = run_sweep(1, 6, 23, with_oracle=True)
    last = cases[-1]
    assert (last.shape, last.k, last.n, last.oracle_nonzero) == ((1,), 6, 23, True)
    assert all(case.agree for case in cases)


def test_the_sweep_raises_the_cost_guard_past_the_cap(monkeypatch):
    # past the cap the sweep does not expand: the sum refuses its candidate
    monkeypatch.setattr(chern, "LOCALIZATION_COST_CAP", 0)
    with pytest.raises(SizeGuard):
        localization_integrals({Partition((1,)): [2]}, 1)
    monkeypatch.setattr(chern, "top_chern_nonzero", _no_expansion)
    with pytest.raises(SizeGuard):
        run_sweep(3, 4, 8, with_oracle=True)


def test_a_window_split_by_the_cost_cap_raises_at_its_first_refused_n(monkeypatch):
    two_one = Partition((2, 1))
    degree = schur_ones_hook_content(two_one, 4)
    # (2,1) at k = 4 could be summed up to n = 8 and is refused from n = 9 on,
    # its first candidate since its degree 20 exceeds dim Gr(4, 8) = 16
    cap = chern.localization_cost(4, 8, degree)
    assert chern.localization_cost(4, 9, degree) > cap
    monkeypatch.setattr(chern, "LOCALIZATION_COST_CAP", cap)
    with pytest.raises(SizeGuard):
        localization_integrals({two_one: range(5, 11)}, 4)
    monkeypatch.setattr(chern, "top_chern_nonzero", _no_expansion)
    with pytest.raises(SizeGuard, match=r"Gr\(4,9\)"):
        run_sweep(3, 4, 10, with_oracle=True)


def test_the_flip_reading_equals_the_values_at_every_n():
    # run_sweep reads each (shape, k) from its first positive n; here every n
    # of the 11 sweep-oracle windows is summed on its own terms, one call per
    # k with whole runs of n
    values = {
        k: localization_integrals(
            {
                lam: range(k + 1, 11) for lam in partitions_up_to(5)
                if lam and len(lam) <= k and schur_ones_hook_content(lam, k) <= 40
            },
            k,
        )
        for k in range(1, 6)
    }
    windows = [
        (size, k, n) for size in (4, 5) for k in (4, 5) for n in (8, 9, 10)
        if (size, k, n) != (5, 5, 10)
    ]
    assert len(windows) == 11
    for window in windows:
        for case in run_sweep(*window, with_oracle=True):
            value = values[case.k].get(case.shape, {}).get(case.n)
            expected = None if value is None else value > 0
            assert case.oracle_nonzero == expected, (window, case)


def test_the_localization_sign_never_falls_as_n_grows():
    # the monotonicity that lets the sweep read every n past a flip as
    # nonzero, over the grid of size <= 6, k <= 6, dim <= 40, n <= 13
    pairs = 0
    for k in range(1, 7):
        grid = [
            lam for lam in partitions_up_to(6)
            if lam and len(lam) <= k and schur_ones_hook_content(lam, k) <= 40
        ]
        values = localization_integrals({lam: range(k + 1, 14) for lam in grid}, k)
        for lam in grid:
            signs = [value > 0 for value in values[lam].values()]
            assert signs == sorted(signs), (lam, k, signs)
            pairs += 1
    assert pairs == 77


def test_a_wide_sweep_asks_only_near_each_flip(monkeypatch):
    # each (shape, k) asks for n from its degree bound up to its first
    # positive value, however far the window reaches
    asked = Counter()
    true_integrals = chern.localization_integrals

    def recording(runs, k, *args, **kwargs):
        for shape, ns in runs.items():
            asked[shape, k] += len(ns)
        return true_integrals(runs, k, *args, **kwargs)

    monkeypatch.setattr(chern, "localization_integrals", recording)
    cases = run_sweep(3, 6, 40, with_oracle=True)
    assert len(cases) == 1159
    assert sum(case.oracle_nonzero is not None for case in cases) == 1091
    assert not [case for case in cases if case.agree is False]
    assert asked and max(asked.values()) <= 3


def test_one_pass_over_n_matches_one_call_per_n():
    for lam in (Partition((2, 1)), Partition((1, 1, 1)), Partition((3,))):
        for k in (3, 4):
            ns = range(k, k + 7)
            together = localization_integrals({lam: ns}, k)[lam]
            assert list(together) == list(ns)
            assert together == {
                n: localization_integrals({lam: [n]}, k)[lam][n] for n in ns
            }, (lam, k)
            assert any(together.values()), (lam, k)


def test_a_value_does_not_depend_on_its_batch():
    # one batch per k against one-shape batches, over the grid of size <= 6,
    # k <= 6, dim <= 40, n <= 13: first with every run whole, then with runs
    # cut short at different largest n, so that each pass over one n packs a
    # different set of shapes.  (7,) at n = k only takes the degree shortcut.
    checked = 0
    for k in range(1, 7):
        grid = [
            lam for lam in partitions_up_to(6)
            if lam and len(lam) <= k and schur_ones_hook_content(lam, k) <= 40
        ]
        for trimmed in (False, True):
            runs = {
                lam: range(k + 1, 14 - trimmed * (index % 4))
                for index, lam in enumerate(grid)
            }
            runs[Partition()] = range(k, 14)
            runs[Partition((7,))] = [k]
            together = localization_integrals(runs, k)
            assert list(together) == list(runs)
            for lam, ns in runs.items():
                alone = localization_integrals({lam: ns}, k)[lam]
                assert together[lam] == alone, (lam, k, trimmed)
                if lam in grid and not trimmed:
                    checked += len(ns)
            assert not any(together[Partition()].values())
            assert together[Partition((7,))] == {k: 0}
    assert checked == 737


def test_wide_roots_take_wider_lanes():
    # the roots of the shapes of one pass share one packed integer, in lanes
    # as wide as its largest root needs.  O(1200) on P^(n-1) has c_1 = 1200 h,
    # so its integral is 1200 at every n; its roots need more than 16 bits at
    # n = 30
    row = Partition((1200,))
    assert localization_integrals({row: range(2, 31)}, 1) == {
        row: dict.fromkeys(range(2, 31), 1200)
    }
    # shapes batched with a wide one keep their values in the wider lanes
    small = {
        lam: range(3, 9)
        for lam in (Partition((2, 1)), Partition((2,)), Partition((1, 1)),
                    Partition((3, 1)))
    }
    together = localization_integrals({**small, Partition((300, 100)): [103]}, 2)
    for lam, ns in small.items():
        assert together[lam] == localization_integrals({lam: ns}, 2)[lam], lam
    # a full-height shape: ample, so nonzero exactly when D <= k(n - k)
    assert together[Partition((300, 100))][103] > 0


def test_the_oracle_fallback_agrees_with_the_sweep_column():
    # at k = 2 with a two-row shape the verdict and the sweep column both
    # come from the localization sum; criterion 6 leaves these cases out,
    # so they are pinned here.  The sweep reads both from one search over
    # its pairs, so each case is also held against a direct decide call,
    # which searches its one pair up to its one n
    fallback = [
        case for case in run_sweep(5, 5, 9, with_oracle=True)
        if case.rule == RULE_ORACLE_FALLBACK
    ]
    assert len(fallback) == 35
    assert all(case.agree is True for case in fallback)
    for case in fallback:
        assert decide(case.shape, 2, case.n)[:3] == (
            case.isotropic, case.rule, case.threshold_n
        ), case


def test_the_sweep_neither_expands_nor_walks_below_the_cost_cap(monkeypatch):
    # the sweep's oracle column and its k = 2 fallback both come from the
    # localization sum over the weight table
    windows = [
        (size, k, n) for size in (4, 5) for k in (4, 5) for n in (8, 9, 10)
        if (size, k, n) != (5, 5, 10)
    ]
    expected = {
        (window, oracle): run_sweep(*window, with_oracle=oracle)
        for window in windows for oracle in (False, True)
    }

    def refused(*args, **kwargs):
        raise AssertionError("the sweep expanded or walked fillings")

    monkeypatch.setattr(chern, "top_chern_nonzero", refused)
    monkeypatch.setattr(tableaux, "weight_vectors", refused)
    monkeypatch.setattr(sympoly, "box_schur_expand", refused)
    for (window, oracle), cases in expected.items():
        assert run_sweep(*window, with_oracle=oracle) == cases, (window, oracle)


def test_a_long_row_reaches_the_oracle():
    assert top_chern_nonzero(Partition((1200,)), 1, 3).nonzero is True


def test_skew_two_form_oracle_flips_at_2k_minus_1():
    """A skew bilinear form on an odd-dimensional space has a kernel, and any
    k-plane containing the kernel plus an isotropic (k-1)-plane of the rank
    part vanishes, so the class is already nonzero at n = 2k-1.  (The
    closed-form rule exception-skew-degree-2 flips at the same point.)
    """
    for k in (2, 3, 4):
        assert top_chern_nonzero(Partition((1, 1)), k, 2 * k - 1).nonzero is True
        if k > 2:
            assert top_chern_nonzero(Partition((1, 1)), k, 2 * k - 2).nonzero is False


def test_symmetric_two_form_oracle_flips_at_2k():
    for k in (2, 3, 4):
        assert top_chern_nonzero(Partition((2,)), k, 2 * k).nonzero is True
        assert top_chern_nonzero(Partition((2,)), k, 2 * k - 1).nonzero is False


def test_run_sweep_structure():
    cases = run_sweep(2, 3, 5, with_oracle=True)
    assert all(isinstance(c, AgreementCase) for c in cases)
    # deterministic order and coverage of the requested grid
    keys = [(tuple(c.shape), c.k, c.n) for c in cases]
    assert keys == sorted(set(keys), key=lambda t: (sum(t[0]), tuple(-p for p in t[0]), t[1], t[2]))
    assert all(c.k >= len(c.shape) and c.n > c.k for c in cases)
    compared = [c for c in cases if c.oracle_nonzero is not None]
    assert compared, "oracle ran on at least the small shapes"


def test_run_sweep_without_oracle_has_no_comparisons():
    cases = run_sweep(2, 2, 4, with_oracle=False)
    assert all(c.oracle_nonzero is None and c.agree is None for c in cases)


def test_oracle_agrees_with_threshold_rule_instances():
    # on every compared instance decided by the dimension threshold rule,
    # the oracle concurs
    cases = run_sweep(5, 5, 9, with_oracle=True)
    main = [c for c in cases if c.rule == "main-theorem" and c.agree is not None]
    assert main, "the sweep exercises the threshold rule"
    assert all(c.agree for c in main), [c for c in main if not c.agree]


def test_term_cap_raises_degree_guard():
    with pytest.raises(DegreeGuard):
        top_chern_nonzero(Partition((5, 2)), 2, 8, max_terms=2)


def test_a_vandermonde_product_over_the_term_cap_fails_before_expanding(monkeypatch):
    # 12! monomials of the Vandermonde product, none dropped by the n = 30 cut,
    # are over the default cap: the guard needs no multiplication
    def no_multiplication(*args, **kwargs):
        raise AssertionError("the expansion multiplied")

    monkeypatch.setattr(sympoly, "_mul_linear", no_multiplication)
    with pytest.raises(DegreeGuard):
        top_chern_nonzero(Partition((1,)), 12, 30)


def test_term_cap_holds_after_an_uncapped_call():
    top_chern_nonzero(Partition((2, 1)), 3, 6)
    with pytest.raises(DegreeGuard):
        top_chern_nonzero(Partition((2, 1)), 3, 6, max_terms=2)
