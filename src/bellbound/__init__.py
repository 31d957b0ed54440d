"""Classical and certified quantum bounds for correlation inequalities.

The package constructs generalized CHSH coefficient matrices, computes their
exact classical maxima by sign enumeration and their quantum (Tsirelson)
maxima through unit Gram vectors with dual certificates, squares Bell
operators symbolically into commutator/anticommutator terms, builds explicit
observable realizations from Clifford generators, and searches for matrices
with large quantum-to-classical ratios.
"""

import os

# Small matrices gain nothing from BLAS threads, whose idle workers spin.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import errors
from .classical import (
    ClassicalBoundResult,
    SignAssignment,
    classical_bound,
    evaluate_classical,
)
from .matrices import (
    CoefficientMatrix,
    chsh_matrix,
    detect_family,
    load_matrix,
    save_matrix,
    tensor_power,
)
from .operators import (
    OperatorExpression,
    closed_form_bound,
    norm_estimate,
    normalized_violation_estimate,
    square_bell_operator,
)
from .quantum import (
    DualCertificate,
    GramSolution,
    QuantumBoundResult,
    check_dual,
    load_certificate,
    quantum_bound,
    save_certificate,
)
from .realize import (
    ObservableRealization,
    bell_value,
    clifford_generators,
    correlation_matrix,
    maximally_entangled_state,
    realization_to_json,
    realize,
)
from .search import (
    SearchRecord,
    ratio_search,
    record_from_json,
)

__all__ = [
    "__version__",
    "errors",
    "CoefficientMatrix",
    "chsh_matrix",
    "tensor_power",
    "load_matrix",
    "save_matrix",
    "detect_family",
    "SignAssignment",
    "ClassicalBoundResult",
    "classical_bound",
    "evaluate_classical",
    "GramSolution",
    "DualCertificate",
    "QuantumBoundResult",
    "quantum_bound",
    "check_dual",
    "save_certificate",
    "load_certificate",
    "OperatorExpression",
    "square_bell_operator",
    "norm_estimate",
    "closed_form_bound",
    "normalized_violation_estimate",
    "ObservableRealization",
    "clifford_generators",
    "realize",
    "bell_value",
    "correlation_matrix",
    "maximally_entangled_state",
    "realization_to_json",
    "SearchRecord",
    "ratio_search",
    "record_from_json",
]
