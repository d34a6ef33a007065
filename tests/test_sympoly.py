import pytest

from schur_isotropy.errors import DegreeGuard, NotHomogeneous, NotSymmetric
from schur_isotropy.partitions import Partition, partitions_up_to
from schur_isotropy.schur import schur_ones_hook_content
from schur_isotropy.sympoly import (
    SymPoly,
    box_schur_expand,
    expansion_to_json,
    product_of_linear_forms,
    schur_expand,
)
from schur_isotropy.tableaux import weight_vectors


def schur_polynomial(mu, nvars):
    """Independent construction of the Schur polynomial as the generating
    function of tableau weights."""
    terms = {}
    for weight in weight_vectors(mu, nvars):
        terms[weight] = terms.get(weight, 0) + 1
    return SymPoly(nvars, terms)


def test_single_linear_form():
    poly = product_of_linear_forms([(1, 1, 1)], 3)
    assert poly.terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert poly.degree() == 1


def test_product_of_monomial_forms():
    poly = product_of_linear_forms([(1, 0), (0, 1)], 2)
    assert poly.terms == {(1, 1): 1}


def test_empty_product_is_one():
    poly = product_of_linear_forms([], 4)
    assert poly.terms == {(0, 0, 0, 0): 1}
    assert poly.evaluate_at_ones() == 1


def test_evaluate_at_ones():
    assert SymPoly.constant(3, 1).evaluate_at_ones() == 1
    assert product_of_linear_forms([(1, 1, 1)], 3).evaluate_at_ones() == 3
    weights = weight_vectors(Partition((2, 1)), 3)
    product = product_of_linear_forms(weights, 3)
    assert product.evaluate_at_ones() == 6561  # product of the per-form sums, 3^8


def test_product_degree_matches_form_count():
    weights = weight_vectors(Partition((2, 1)), 3)
    poly = product_of_linear_forms(weights, 3)
    assert poly.is_homogeneous()
    assert poly.degree() == len(weights) == schur_ones_hook_content(Partition((2, 1)), 3)


def test_full_weight_product_is_symmetric():
    for lam in [Partition((2, 1)), Partition((2, 2)), Partition((1, 1, 1))]:
        poly = product_of_linear_forms(weight_vectors(lam, 3), 3)
        assert poly.is_symmetric()


def test_schur_expand_basics():
    f = SymPoly(2, {(1, 0): 1, (0, 1): 1})
    assert schur_expand(f) == {Partition((1,)): 1}

    square = f.mul_linear((1, 1))  # (x1 + x2)^2
    assert schur_expand(square) == {Partition((2,)): 1, Partition((1, 1)): 1}

    assert schur_expand(SymPoly.constant(3, 5)) == {Partition(): 5}
    assert schur_expand(SymPoly(3)) == {}


def test_schur_expand_round_trip():
    # expanding the explicit Schur polynomial returns the unit expansion
    for mu in partitions_up_to(6):
        if len(mu) > 4:
            continue
        for nvars in range(max(len(mu), 1), 5):
            poly = schur_polynomial(mu, nvars)
            if not poly.terms:
                continue
            assert schur_expand(poly) == {mu: 1}, (mu, nvars)


def test_expansion_evaluates_consistently():
    for lam, nvars in [(Partition((2, 1)), 3), (Partition((2, 2)), 3), (Partition((1, 1)), 4)]:
        poly = product_of_linear_forms(weight_vectors(lam, nvars), nvars)
        expansion = schur_expand(poly)
        combined = sum(
            coeff * schur_ones_hook_content(mu, nvars)
            for mu, coeff in expansion.items()
        )
        assert combined == poly.evaluate_at_ones()


def test_schur_expand_rejects_bad_input():
    with pytest.raises(NotSymmetric):
        schur_expand(SymPoly(2, {(1, 0): 1}))
    with pytest.raises(NotHomogeneous):
        schur_expand(SymPoly(2, {(1, 1): 1, (1, 0): 1, (0, 1): 1}))
    with pytest.raises(NotSymmetric):
        box_schur_expand([(1, 0)], 2, 3)


def test_degree_guard_names_the_degree():
    weights = weight_vectors(Partition((2, 1)), 3)
    with pytest.raises(DegreeGuard) as excinfo:
        product_of_linear_forms(weights, 3, max_terms=5)
    assert "cap 5" in str(excinfo.value)


def test_expansion_to_json_order():
    expansion = {Partition((2,)): 3, Partition((1, 1)): -1, Partition(): 2}
    assert expansion_to_json(expansion) == [
        {"mu": [], "coeff": "2"},
        {"mu": [1, 1], "coeff": "-1"},
        {"mu": [2], "coeff": "3"},
    ]


def test_mul_linear_cancellation():
    # (x1 - x2)(x1 + x2) = x1^2 - x2^2, the cross terms cancel exactly
    f = SymPoly(2, {(1, 0): 1, (0, 1): -1})
    g = f.mul_linear((1, 1))
    assert g.terms == {(2, 0): 1, (0, 2): -1}
