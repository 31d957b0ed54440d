import importlib
import itertools
import math

import numpy as np
import pytest

from bellbound import (
    CoefficientMatrix,
    GramSolution,
    bell_value,
    chsh_matrix,
    classical_bound,
    clifford_generators,
    correlation_matrix,
    maximally_entangled_state,
    quantum_bound,
    realization_to_json,
    realize,
    tensor_power,
)
from bellbound.errors import DimensionMismatchError, DomainError, SizeLimitError

SQRT2 = math.sqrt(2.0)


def assert_involution(op, tol=1e-12):
    dim = op.shape[0]
    assert np.abs(op - op.conj().T).max() <= tol
    assert np.abs(op @ op - np.eye(dim)).max() <= tol


def test_single_generator():
    gens = clifford_generators(1)
    assert np.array_equal(gens, np.ones((1, 1, 1)))
    assert not gens.flags.writeable


def test_two_generators_anticommute():
    gens = clifford_generators(2)
    assert gens.shape == (2, 2, 2)
    g1, g2 = gens
    assert np.abs(g1 @ g2 + g2 @ g1).max() <= 1e-12


def test_five_generators_all_pairs_anticommute():
    gens = clifford_generators(5)
    assert gens.shape == (5, 4, 4)
    for a, b in itertools.combinations(range(5), 2):
        ga, gb = gens[a], gens[b]
        assert np.abs(ga @ gb + gb @ ga).max() <= 1e-12
    for g in gens:
        assert_involution(g)


@pytest.mark.parametrize("r", range(1, 9))
def test_generator_trace_orthogonality(r):
    gens = clifford_generators(r)
    for a in range(r):
        for b in range(r):
            tr = np.trace(gens[a] @ gens[b])
            expected = gens.shape[1] if a == b else 0.0
            assert abs(tr - expected) <= 1e-12


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def ceil_ladder(r):
    """The earlier ladder on ceil(r/2) qubits: Z^a (x) X|Y (x) I..."""
    qubits = (r + 1) // 2
    gens = []
    for a in range(r):
        factors = [PAULI_Z] * (a // 2) + [PAULI_X if a % 2 == 0 else PAULI_Y]
        factors += [np.eye(2)] * (qubits - len(factors))
        op = np.eye(1, dtype=np.complex128)
        for factor in factors:
            op = np.kron(op, factor)
        gens.append(op)
    return np.array(gens).reshape(r, 1 << qubits, 1 << qubits)


@pytest.mark.parametrize("r", range(1, 16))
def test_ladder_on_floor_half_qubits(r):
    gens = clifford_generators(r)
    dim = 2 ** (r // 2)
    assert gens.shape == (r, dim, dim)
    eye = np.eye(dim)
    for g in gens:
        assert np.array_equal(g, g.conj().T)
        assert np.array_equal(g @ g, eye)
    for a, b in itertools.combinations(range(r), 2):
        ga, gb = gens[a], gens[b]
        assert np.array_equal(ga @ gb + gb @ ga, np.zeros_like(ga))
        assert np.trace(ga @ gb) == 0.0
    if r % 2 == 0:
        assert np.array_equal(gens, ceil_ladder(r))
    else:
        closing = np.eye(1, dtype=np.complex128)
        for _ in range(r // 2):
            closing = np.kron(closing, PAULI_Z)
        assert np.array_equal(gens[-1], closing)
        assert np.array_equal(gens[:-1], ceil_ladder(r - 1))


def test_generator_count_guards():
    # The entry budget alone bounds the ladder: 15 * 2^14 entries fit in
    # 2^19, 16 * 2^16 do not.  A cap of 12 generators used to refuse r = 13.
    with pytest.raises(SizeLimitError):
        clifford_generators(0)
    assert clifford_generators(15).shape == (15, 128, 128)
    with pytest.raises(SizeLimitError, match="16 generators of dimension 2\\^8"):
        clifford_generators(16)


@pytest.mark.parametrize("r", [16, 17, 10**9])
def test_generator_guard_refuses_before_building(monkeypatch, r):
    realize_module = importlib.import_module("bellbound.realize")

    def unreachable(*args, **kwargs):
        raise AssertionError("arrays built before the size guard")

    monkeypatch.setattr(realize_module.np, "empty", unreachable)
    monkeypatch.setattr(realize_module.np, "kron", unreachable)
    with pytest.raises(SizeLimitError, match="limit"):
        clifford_generators(r)


def test_state_is_unit_vector_with_maximally_mixed_marginal():
    dim = 4
    psi = maximally_entangled_state(dim)
    assert psi.shape == (dim * dim,)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    rho = np.outer(psi, psi.conj())
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    reduced = np.einsum("abcb->ac", rho.reshape(dim, dim, dim, dim))
    assert np.abs(reduced - np.eye(dim) / dim).max() <= 1e-12


def kron_correlations(realization):
    """Dense oracle: Tr(rho (X_k (x) conj(Y_l))) with rho = psi psi^H."""
    psi = maximally_entangled_state(realization.dim)
    rho = np.outer(psi, psi.conj())
    return np.array([
        [np.trace(rho @ np.kron(x, y.conj())).real
         for y in realization.y_observables]
        for x in realization.x_observables
    ])


@pytest.mark.parametrize(
    "matrix",
    [
        chsh_matrix(),
        tensor_power(2),
        CoefficientMatrix(np.random.default_rng(5).standard_normal((5, 5))),
        CoefficientMatrix(np.random.default_rng(3).standard_normal((3, 3))),
        CoefficientMatrix(np.random.default_rng(7).standard_normal((7, 7))),
        CoefficientMatrix(np.random.default_rng(1).standard_normal((3, 1))),
    ],
    ids=["chsh", "tensor2", "gauss5x5", "gauss3x3", "gauss7x7", "gauss3x1"],
)
def test_correlations_match_dense_kronecker_oracle(matrix):
    realization = realize(matrix, quantum_bound(matrix, seed=0).primal)
    r = min(matrix.rows, matrix.cols)
    assert realization.dim == 2 ** (r // 2) <= 8
    expected = kron_correlations(realization)
    assert np.abs(correlation_matrix(realization) - expected).max() <= 1e-12
    value = float((matrix.entries * expected).sum())
    assert abs(bell_value(realization, matrix) - value) <= 1e-12


def test_chsh_optimum_realization():
    bound = quantum_bound(chsh_matrix(), seed=0)
    realization = realize(chsh_matrix(), bound.primal)
    gram_products = bound.primal.x @ bound.primal.y.T
    assert np.abs(np.abs(gram_products) - 1.0 / SQRT2).max() <= 1e-6
    corr = correlation_matrix(realization)
    assert np.abs(corr - gram_products).max() <= 1e-10
    value = bell_value(realization, chsh_matrix())
    assert abs(value - bound.primal.objective) <= 1e-9
    assert value == pytest.approx(2.0 * SQRT2, abs=1e-6)


def test_realized_observables_are_dichotomic():
    bound = quantum_bound(tensor_power(2), seed=0)
    realization = realize(tensor_power(2), bound.primal)
    for op in realization.x_observables:
        assert np.abs(op @ op - np.eye(realization.dim)).max() <= 1e-10
        eigs = np.linalg.eigvalsh(op)
        assert np.abs(np.abs(eigs) - 1.0).max() <= 1e-9
    for op in realization.y_observables:
        assert np.abs(op @ op - np.eye(realization.dim)).max() <= 1e-10


def test_rank_one_gram_gives_perfect_correlations():
    ones = np.ones((3, 1))
    gram = GramSolution(x=ones, y=ones, objective=0.0)
    matrix = CoefficientMatrix(np.zeros((3, 3)))
    realization = realize(matrix, gram)
    corr = correlation_matrix(realization)
    assert np.abs(corr - 1.0).max() <= 1e-12


def test_tensor_square_realization_reproduces_gram():
    bound = quantum_bound(tensor_power(2), seed=3)
    realization = realize(tensor_power(2), bound.primal)
    corr = correlation_matrix(realization)
    gram_products = bound.primal.x @ bound.primal.y.T
    assert np.abs(corr - gram_products).max() <= 1e-10
    value = bell_value(realization, tensor_power(2))
    assert abs(value - bound.primal.objective) <= 1e-9


def test_classical_witness_gram_reproduces_classical_value():
    witness = classical_bound(chsh_matrix())
    x = witness.s.astype(np.float64).reshape(-1, 1)
    y = witness.t.astype(np.float64).reshape(-1, 1)
    gram = GramSolution(x=x, y=y, objective=witness.bound)
    realization = realize(chsh_matrix(), gram)
    assert bell_value(realization, chsh_matrix()) == pytest.approx(2.0, abs=1e-10)


def test_zero_matrix_bell_value():
    gram = GramSolution(x=np.ones((2, 1)), y=np.ones((2, 1)), objective=0.0)
    matrix = CoefficientMatrix(np.zeros((2, 2)))
    realization = realize(matrix, gram)
    assert bell_value(realization, matrix) == 0.0


def test_realize_rejects_non_unit_vectors():
    gram = GramSolution(
        x=np.array([[2.0, 0.0], [0.0, 1.0]]),
        y=np.array([[1.0, 0.0], [0.0, 1.0]]),
        objective=0.0,
    )
    with pytest.raises(DomainError, match="unit"):
        realize(chsh_matrix(), gram)


def test_realize_rejects_mismatched_gram():
    bound = quantum_bound(chsh_matrix(), seed=0)
    with pytest.raises(DimensionMismatchError):
        realize(tensor_power(2), bound.primal)


def test_bell_value_dimension_mismatch():
    bound = quantum_bound(chsh_matrix(), seed=0)
    realization = realize(chsh_matrix(), bound.primal)
    with pytest.raises(DimensionMismatchError):
        bell_value(realization, tensor_power(2))


def test_realization_json_round_trip_values():
    bound = quantum_bound(chsh_matrix(), seed=0)
    realization = realize(chsh_matrix(), bound.primal)
    doc = realization_to_json(realization)
    assert doc["hilbert_dimension"] == 2
    assert doc["sites"] == {"x": 2, "y": 2}
    rebuilt = np.array(doc["x_observables"])
    rebuilt = rebuilt[..., 0] + 1j * rebuilt[..., 1]
    assert np.array_equal(rebuilt, realization.x_observables)
    state = np.array(doc["state"])
    assert state.shape == (4, 2)


def unit_gram(n, m, r, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, r))
    y = rng.standard_normal((m, r))
    return GramSolution(
        x=x / np.linalg.norm(x, axis=1, keepdims=True),
        y=y / np.linalg.norm(y, axis=1, keepdims=True),
        objective=0.0,
    )


def test_size_guard_accepts_the_limit():
    # (116 + 12) observables of dimension 64 store exactly 2^19 entries.
    realize_module = importlib.import_module("bellbound.realize")
    assert (116 + 12) * 64 * 64 == realize_module.REALIZE_LIMIT
    matrix = CoefficientMatrix(np.zeros((116, 12)))
    realization = realize(matrix, unit_gram(116, 12, 12))
    assert realization.x_observables.shape == (116, 64, 64)
    assert realization.y_observables.shape == (12, 64, 64)


def test_size_guard_rejects_one_entry_past_the_limit(monkeypatch):
    realize_module = importlib.import_module("bellbound.realize")
    matrix = CoefficientMatrix(np.zeros((9, 9)))
    gram = unit_gram(9, 9, 9)
    monkeypatch.setattr(realize_module, "REALIZE_LIMIT", (9 + 9) * 16 * 16)
    assert realize(matrix, gram).dim == 16
    monkeypatch.setattr(realize_module, "REALIZE_LIMIT", (9 + 9) * 16 * 16 - 1)
    with pytest.raises(SizeLimitError, match="4608 entries"):
        realize(matrix, gram)
    with pytest.raises(SizeLimitError):
        realize(CoefficientMatrix(np.zeros((117, 12))), unit_gram(117, 12, 12))


def test_size_guard_refuses_before_building_arrays(monkeypatch):
    # A 1000 x 12 Gaussian once realized at D = 64: 4.2 s of CPU, 833 MB peak
    # and a 62.5 MB file.  It must now be refused before any operator exists.
    realize_module = importlib.import_module("bellbound.realize")

    def unreachable(*args, **kwargs):
        raise AssertionError("arrays built before the size guard")

    matrix = CoefficientMatrix(np.random.default_rng(0).standard_normal((1000, 12)))
    gram = unit_gram(1000, 12, 12)
    monkeypatch.setattr(realize_module, "clifford_generators", unreachable)
    monkeypatch.setattr(realize_module.np, "tensordot", unreachable)
    with pytest.raises(SizeLimitError, match="4145152 entries"):
        realize(matrix, gram)
