"""Isotropic-subspace decisions for generic forms with Young-type symmetry.

The package decides, for a partition shape and integers k <= n, whether a
generic multilinear form of that symmetry type on C^n vanishes on some
k-dimensional subspace.  A closed-form dimension threshold answers most
cases; an independent Schubert-calculus oracle (the top Chern class of the
associated bundle on Gr(k, n)) cross-validates the rules on small instances.
"""

from .chern import ChernVerdict, top_chern_nonzero
from .errors import DomainError
from .isotropy import (
    AgreementCase,
    InequalityReport,
    Verdict,
    decide,
    min_isotropic_n,
    run_sweep,
    tevelev_inequalities,
    threshold_n,
    verify_proof_chain,
)
from .partitions import Partition, parse_partition
from .schur import (
    DimensionValue,
    dim_schur_module,
    schur_ones_hook_content,
    schur_ones_recurrence,
)
from .sympoly import SymPoly, product_of_linear_forms, schur_expand
from .tableaux import count_ssyt, weight_vectors

__version__ = "0.1.0"

__all__ = [
    "AgreementCase",
    "ChernVerdict",
    "DimensionValue",
    "DomainError",
    "InequalityReport",
    "Partition",
    "SymPoly",
    "Verdict",
    "count_ssyt",
    "decide",
    "dim_schur_module",
    "min_isotropic_n",
    "parse_partition",
    "product_of_linear_forms",
    "run_sweep",
    "schur_expand",
    "schur_ones_hook_content",
    "schur_ones_recurrence",
    "tevelev_inequalities",
    "threshold_n",
    "top_chern_nonzero",
    "verify_proof_chain",
    "weight_vectors",
]
