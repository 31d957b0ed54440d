"""The public API is this list: adding or removing a name means editing it."""

import bellbound

PUBLIC_NAMES = [
    "ClassicalBoundResult",
    "CoefficientMatrix",
    "DualCertificate",
    "GramSolution",
    "ObservableRealization",
    "OperatorExpression",
    "QuantumBoundResult",
    "SearchRecord",
    "__version__",
    "bell_value",
    "check_dual",
    "chsh_matrix",
    "classical_bound",
    "clifford_generators",
    "closed_form_bound",
    "correlation_matrix",
    "errors",
    "evaluate_classical",
    "load_certificate",
    "load_matrix",
    "maximally_entangled_state",
    "norm_estimate",
    "normalized_violation_estimate",
    "quantum_bound",
    "ratio_search",
    "realization_to_json",
    "realize",
    "record_from_json",
    "save_certificate",
    "save_matrix",
    "square_bell_operator",
    "tensor_order",
    "tensor_power",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(bellbound.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(bellbound, name) is not None
