import pytest

from schur_isotropy.chern import top_chern_nonzero
from schur_isotropy.errors import DegreeGuard, InvalidRange, ZeroBundle
from schur_isotropy.isotropy import AgreementCase, run_sweep
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


def test_term_cap_holds_after_an_uncapped_call():
    top_chern_nonzero(Partition((2, 1)), 3, 6)
    with pytest.raises(DegreeGuard):
        top_chern_nonzero(Partition((2, 1)), 3, 6, max_terms=2)
