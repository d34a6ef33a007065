"""Sparse exact-coefficient polynomials in k variables, Schur-basis expansion,
and the ``oracle`` command's route to the top Chern class: top_chern_nonzero
multiplies the forms of the Chern roots that ``schur.weight_counts`` lists,
cut to the k x (n - k) box of Gr(k, n), and reads the Schur coefficients that
survive.  The package import leaves this module out; the ``oracle`` command
and the first use of one of its names load it.
"""

from __future__ import annotations

from itertools import chain
from math import factorial
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_TERM_CAP,
    DegreeGuard,
    InvalidRange,
    NotHomogeneous,
    NotSymmetric,
)
from .partitions import Partition
from .schur import (
    _refuse_over_fillings, _refuse_zero_bundle, schur_ones_hook_content, weight_counts
)

SHORTCUT_NONE = "none"
SHORTCUT_DEGREE = "degree-exceeds-top"
SHORTCUT_EMPTY = "empty-weights"


class SymPoly:
    """Polynomial stored as a map from exponent vectors to integer coefficients.

    Exponent vectors are dense tuples of length ``nvars``; zero coefficients
    are never stored.  Instances are treated as immutable values.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def constant(cls, nvars: int, value: int = 1) -> "SymPoly":
        return cls(nvars, {(0,) * nvars: value} if value else {})

    def degree(self) -> int:
        """Largest total degree of any term; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def is_symmetric(self) -> bool:
        """Invariance under every adjacent variable swap (these generate all swaps)."""
        for i in range(self.nvars - 1):
            for expo, coeff in self.terms.items():
                swapped = (
                    expo[:i] + (expo[i + 1], expo[i]) + expo[i + 2 :]
                )
                if self.terms.get(swapped, 0) != coeff:
                    return False
        return True

    def evaluate_at_ones(self) -> int:
        """Value at (1, ..., 1), i.e. the sum of all coefficients."""
        return sum(self.terms.values())

    def mul_linear(
        self, coeffs: Sequence[int], max_terms: int | None = None
    ) -> "SymPoly":
        """Multiply by the linear form sum(coeffs[i] * x_i)."""
        if len(coeffs) != self.nvars:
            raise ValueError(f"expected {self.nvars} coefficients, got {len(coeffs)}")
        return SymPoly(self.nvars, _mul_linear(self.terms, coeffs, max_terms))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"SymPoly(nvars={self.nvars}, terms={len(self.terms)})"


def product_of_linear_forms(
    weights: Iterable[Sequence[int]],
    nvars: int,
    max_terms: int | None = DEFAULT_TERM_CAP,
) -> SymPoly:
    """Exact product of the linear forms sum(w[i] * x_i), one per weight.

    The empty product is the constant 1.  The result is homogeneous of
    degree equal to the number of forms.
    """
    poly = SymPoly.constant(nvars, 1)
    for weight in weights:
        poly = poly.mul_linear(weight, max_terms)
    return poly


def schur_expand(
    poly: SymPoly, max_terms: int | None = DEFAULT_TERM_CAP
) -> dict[Partition, int]:
    """Coefficients of a symmetric homogeneous polynomial in the Schur basis.

    Multiplies by the Vandermonde product of (x_i - x_j) over i < j and reads
    the coefficient of the strictly decreasing exponent vector mu + staircase
    for each shape mu; those monomials occur once per alternant, so the read
    is exact.  Shapes come back in increasing lexicographic order.
    """
    if not poly.is_symmetric():
        raise NotSymmetric("polynomial is not invariant under variable swaps")
    if not poly.is_homogeneous():
        raise NotHomogeneous("polynomial mixes total degrees")
    return _alternant_expansion(poly.terms, poly.nvars, (), max_terms)


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
    as well.  ``max_tableaux`` caps the fillings, as many as the degree, and
    ``max_terms`` every intermediate product, the Vandermonde factors included.

    The product starts from the Vandermonde product and multiplies in the
    weight forms, dropping each monomial with an exponent >= n as soon as it
    appears.  Those monomials span an ideal that multiplication keeps inside
    itself, so dropping them step by step equals dropping them once at the
    end.  The alternant of mu + staircase lies wholly in that ideal when
    mu_1 > n - k and shares no monomial with it otherwise, so the
    coefficients read are exactly those of schur_expand inside the box.

    The product is symmetric when the weight multiset is invariant under
    variable swaps, that is when the sum of x^w over the weights is a
    symmetric polynomial; NotSymmetric is raised otherwise.
    """
    if k < 1 or k > n:
        raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={n}")
    shape = Partition(shape)
    _refuse_zero_bundle(shape, k)
    degree = schur_ones_hook_content(shape, k)
    if degree > k * (n - k):
        return ChernVerdict(False, degree, (), SHORTCUT_DEGREE)
    if not shape:
        return ChernVerdict(False, degree, (), SHORTCUT_EMPTY)
    _refuse_over_fillings(shape, k, degree, max_tableaux)
    # the Vandermonde product alone has k! terms, none cut at n >= k
    if max_terms is not None and factorial(k) > max_terms:
        raise DegreeGuard(
            f"{factorial(k)} terms at degree {k * (k - 1) // 2} exceeds the cap"
            f" {max_terms}"
        )
    table = weight_counts(shape, k, {})
    if not SymPoly(k, table).is_symmetric():
        raise NotSymmetric("weight multiset is not invariant under variable swaps")
    # descending lex order keeps the peak term count near the filling walk's
    forms = (
        weight
        for weight, count in sorted(table.items(), reverse=True)
        for _ in range(count)
    )
    expansion = _alternant_expansion({(0,) * k: 1}, k, forms, max_terms, n)
    surviving = tuple(expansion.items())
    return ChernVerdict(bool(surviving), degree, surviving, SHORTCUT_NONE)


def _mul_linear(
    terms: Mapping[tuple[int, ...], int],
    coeffs: Sequence[int],
    max_terms: int | None,
    bound: int | None = None,
) -> dict[tuple[int, ...], int]:
    """Terms times sum(coeffs[i] * x_i), without the monomials that reach an
    exponent of ``bound``.

    Every exponent in ``terms`` must already be below ``bound``, so a bumped
    exponent can reach it but never pass it.
    """
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for expo, c in terms.items():
        for i, a in enumerate(coeffs):
            if not a:
                continue
            bumped_i = expo[i] + 1
            if bumped_i == bound:
                continue
            bumped = expo[:i] + (bumped_i,) + expo[i + 1 :]
            value = get(bumped, 0) + c * a
            if value:
                out[bumped] = value
            else:
                del out[bumped]
    if max_terms is not None and len(out) > max_terms:
        degree = sum(next(iter(out)))
        raise DegreeGuard(
            f"{len(out)} terms at degree {degree} exceeds the cap {max_terms}"
        )
    return out


def _alternant_expansion(
    terms: Mapping[tuple[int, ...], int],
    nvars: int,
    forms: Iterable[Sequence[int]],
    max_terms: int | None,
    bound: int | None = None,
) -> dict[Partition, int]:
    """Multiply ``terms`` by the Vandermonde product and then by each form,
    and read the coefficient of every strictly decreasing exponent vector
    mu + staircase as the Schur coefficient of mu, in lex order of mu.
    """
    k = nvars
    vandermonde = (
        tuple(1 if t == i else -1 if t == j else 0 for t in range(k))
        for i in range(k)
        for j in range(i + 1, k)
    )
    for coeffs in chain(vandermonde, forms):
        terms = _mul_linear(terms, coeffs, max_terms, bound)
    expansion: dict[Partition, int] = {}
    for expo, coeff in terms.items():
        if all(expo[t] > expo[t + 1] for t in range(k - 1)):
            mu = Partition(expo[t] - (k - 1 - t) for t in range(k))
            expansion[mu] = coeff
    return dict(sorted(expansion.items()))


def expansion_to_json(expansion: Mapping[Partition, int]) -> list[dict]:
    """Serialize an expansion as [{"mu": [...], "coeff": "<decimal>"}] in lex order."""
    return [
        {"mu": list(mu), "coeff": str(coeff)}
        for mu, coeff in sorted(expansion.items())
    ]
