"""Isotropic-subspace decisions for generic forms with Young-type symmetry.

The package decides, for a partition shape and integers k <= n, whether a
generic multilinear form of that symmetry type on C^n vanishes on some
k-dimensional subspace.  A closed-form dimension threshold answers most
cases; an independent Schubert-calculus oracle (the top Chern class of the
associated bundle on Gr(k, n)) cross-validates the rules on small instances.

Importing the package loads the decision and localization core (errors,
partitions, schur, isotropy, chern).  The names of the verification layer
(proofs), the filling walk (tableaux) and the Schur expansion (sympoly)
load their module on first use.
"""

from importlib import import_module

from .chern import ChernVerdict, top_chern_nonzero
from .errors import DomainError
from .isotropy import (
    AgreementCase,
    Verdict,
    decide,
    min_isotropic_n,
    run_sweep,
    threshold_n,
)
from .partitions import Partition, parse_partition
from .schur import schur_ones_hook_content

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first access
_LAZY = {
    "DimensionValue": "proofs",
    "InequalityReport": "proofs",
    "dim_schur_module": "proofs",
    "schur_ones_recurrence": "proofs",
    "tevelev_inequalities": "proofs",
    "verify_proof_chain": "proofs",
    "SymPoly": "sympoly",
    "product_of_linear_forms": "sympoly",
    "schur_expand": "sympoly",
    "count_ssyt": "tableaux",
    "weight_vectors": "tableaux",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


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
