"""The public API is these lists: adding, removing or renaming a public name
or a field of a public result type means editing them."""

import dataclasses

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

# Every public dataclass and its fields, in declaration order.
PUBLIC_FIELDS = {
    "ClassicalBoundResult": ["s", "t", "bound"],
    "CoefficientMatrix": ["entries"],
    "DualCertificate": ["u", "v"],
    "GramSolution": ["x", "y", "objective"],
    "ObservableRealization": ["x_observables", "y_observables"],
    "OperatorExpression": ["identity_coeff", "pairs", "comm", "acomm", "residual"],
    "QuantumBoundResult": ["primal", "dual", "min_eigenvalue", "converged", "sweeps"],
    "SearchRecord": ["matrix", "classical", "quantum", "iteration_found", "seed"],
}


def test_public_names_are_pinned_and_resolve():
    assert sorted(bellbound.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(bellbound, name) is not None


def test_public_dataclass_fields_are_pinned():
    found = {
        name: [f.name for f in dataclasses.fields(obj)]
        for name in PUBLIC_NAMES
        if isinstance(obj := getattr(bellbound, name), type) and dataclasses.is_dataclass(obj)
    }
    assert found == PUBLIC_FIELDS
