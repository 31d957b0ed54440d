import math

import numpy as np
import pytest

from bellbound import (
    CoefficientMatrix,
    DualCertificate,
    check_dual,
    chsh_matrix,
    classical_bound,
    load_certificate,
    quantum_bound,
    save_certificate,
    tensor_power,
    violation_ratio,
)
from bellbound.errors import DimensionMismatchError, UndefinedRatioError
from bellbound.quantum import certificate_matrix

SQRT2 = math.sqrt(2.0)


def test_chsh_tsirelson_value():
    result = quantum_bound(chsh_matrix(), seed=0)
    assert result.primal.objective == pytest.approx(2.0 * SQRT2, abs=1e-6)
    assert result.gap <= 1e-6
    assert result.converged


def test_tensor_square_quantum_value_matches_analytic_oracle():
    # Independent oracle: the largest singular value of the 4x4 matrix is 2,
    # so the objective is at most sigma_max * sqrt(n) * sqrt(m) = 8, and the
    # classical witness already attains 8 with rank-1 vectors.
    matrix = tensor_power(2)
    sigma_max = np.linalg.svd(matrix.entries, compute_uv=False)[0]
    assert sigma_max == pytest.approx(2.0, abs=1e-12)
    oracle = sigma_max * 2.0 * 2.0
    assert classical_bound(matrix).bound == 8.0

    result = quantum_bound(matrix, seed=0)
    assert result.primal.objective == pytest.approx(oracle, abs=1e-6)
    assert result.gap <= 1e-6
    assert result.converged


def test_all_ones_matrix_aligns():
    result = quantum_bound(CoefficientMatrix(np.ones((2, 2))), seed=1)
    assert result.primal.objective == pytest.approx(4.0, abs=1e-8)


@pytest.mark.parametrize("seed", range(3))
def test_single_row_equals_classical(seed):
    rng = np.random.default_rng(seed)
    matrix = CoefficientMatrix(rng.standard_normal((1, 5)))
    result = quantum_bound(matrix, seed=seed)
    expected = float(np.abs(matrix.entries).sum())
    assert result.primal.objective == pytest.approx(expected, rel=1e-9)


def test_gram_invariants():
    result = quantum_bound(tensor_power(2), seed=2)
    x, y = result.primal.x, result.primal.y
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() <= 1e-12
    assert np.abs(np.linalg.norm(y, axis=1) - 1.0).max() <= 1e-12
    inner = x @ y.T
    assert inner.min() >= -1.0 - 1e-12
    assert inner.max() <= 1.0 + 1e-12
    recomputed = float(np.sum(tensor_power(2).entries * inner))
    assert result.primal.objective == pytest.approx(recomputed, rel=1e-10)


def test_objective_history_is_monotone():
    for seed in range(4):
        result = quantum_bound(chsh_matrix(), seed=seed)
        assert np.all(np.diff(result.objective_history) >= -1e-9)
        result = quantum_bound(tensor_power(2), seed=seed)
        assert np.all(np.diff(result.objective_history) >= -1e-9)


def test_determinism_given_seed_and_restarts():
    a = quantum_bound(tensor_power(2), seed=42)
    b = quantum_bound(tensor_power(2), seed=42)
    assert a.primal.objective == b.primal.objective
    assert np.array_equal(a.primal.x, b.primal.x)
    assert np.array_equal(a.dual.u, b.dual.u)


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_scale_equivariance(factor):
    rng = np.random.default_rng(5)
    matrix = CoefficientMatrix(rng.standard_normal((3, 4)))
    base = quantum_bound(matrix, seed=1).primal.objective
    scaled = quantum_bound(matrix.scaled(factor), seed=1).primal.objective
    assert scaled == pytest.approx(abs(factor) * base, rel=1e-6)


def test_sandwich_on_random_matrices():
    # tol=1e-13 keeps solver truncation well below the 1e-7 sandwich slack
    # even on instances with linear rates near 1.
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        matrix = CoefficientMatrix(rng.standard_normal((n, m)))
        classical = classical_bound(matrix).bound
        result = quantum_bound(
            matrix, restarts=8, tol=1e-13, seed=int(rng.integers(1 << 30))
        )
        assert classical <= result.primal.objective + 1e-7
        assert result.primal.objective <= result.dual.upper_bound + 1e-7
        assert result.gap >= -1e-7


def test_two_by_two_ratio_cap():
    # Two observables per site can never violate by more than sqrt(2).
    rng = np.random.default_rng(7)
    for _ in range(200):
        matrix = CoefficientMatrix(rng.uniform(-1.0, 1.0, (2, 2)))
        classical = classical_bound(matrix).bound
        if classical < 1e-9:
            continue
        quantum = quantum_bound(matrix, restarts=8, seed=3).primal.objective
        assert quantum / classical <= SQRT2 + 1e-6


def test_dimension_sufficiency():
    rng = np.random.default_rng(12)
    for seed in range(3):
        matrix = CoefficientMatrix(rng.standard_normal((4, 5)))
        low = quantum_bound(matrix, seed=seed).primal.objective
        high = quantum_bound(matrix, seed=seed, gram_dim=9).primal.objective
        assert low == pytest.approx(high, rel=1e-6)


def test_zero_matrix_converges_quietly():
    result = quantum_bound(CoefficientMatrix(np.zeros((2, 3))), seed=0)
    assert result.primal.objective == 0.0
    assert result.converged


def test_non_convergence_is_flagged_not_raised():
    result = quantum_bound(chsh_matrix(), restarts=1, max_iters=1, tol=1e-15, seed=0)
    assert not result.converged


def test_check_dual_exact_chsh_certificate():
    # Independent oracle: eigenvalues of the block matrix computed directly.
    cert = DualCertificate(
        u=np.array([SQRT2, SQRT2]),
        v=np.array([SQRT2, SQRT2]),
        upper_bound=2.0 * SQRT2,
        min_eigenvalue=0.0,
    )
    M = certificate_matrix(chsh_matrix(), cert.u, cert.v)
    direct = np.linalg.eigvalsh(M)
    assert direct.min() == pytest.approx(0.0, abs=1e-12)
    assert cert.upper_bound == pytest.approx((cert.u.sum() + cert.v.sum()) / 2)
    assert check_dual(chsh_matrix(), cert, tol=1e-8)


def test_check_dual_rejects_infeasible_certificate():
    # upper bound 2 < 2*sqrt(2) cannot be certified, so M is not PSD.
    cert = DualCertificate(
        u=np.array([0.5, 0.5]),
        v=np.array([0.5, 0.5]),
        upper_bound=1.0,
        min_eigenvalue=0.0,
    )
    assert not check_dual(chsh_matrix(), cert, tol=1e-8)


def test_check_dual_zero_matrix():
    cert = DualCertificate(
        u=np.zeros(2), v=np.zeros(2), upper_bound=0.0, min_eigenvalue=0.0
    )
    assert check_dual(CoefficientMatrix(np.zeros((2, 2))), cert, tol=1e-8)


def test_check_dual_dimension_mismatch():
    cert = DualCertificate(
        u=np.ones(3), v=np.ones(2), upper_bound=2.5, min_eigenvalue=0.0
    )
    with pytest.raises(DimensionMismatchError):
        check_dual(chsh_matrix(), cert)


def test_computed_certificate_upper_bound_dominates():
    result = quantum_bound(chsh_matrix(), seed=9)
    assert result.dual.upper_bound >= result.primal.objective - 1e-7
    assert result.dual.min_eigenvalue >= -1e-8
    assert check_dual(chsh_matrix(), result.dual, tol=1e-8)


def test_violation_ratio_values():
    assert violation_ratio(chsh_matrix()) == pytest.approx(SQRT2, abs=1e-6)
    assert violation_ratio(tensor_power(2)) == pytest.approx(1.0, abs=1e-6)
    one = CoefficientMatrix(np.array([[1.0]]))
    assert violation_ratio(one) == pytest.approx(1.0, abs=1e-9)


def test_violation_ratio_zero_classical():
    with pytest.raises(UndefinedRatioError):
        violation_ratio(CoefficientMatrix(np.zeros((2, 2))))


def test_certificate_round_trip(tmp_path):
    result = quantum_bound(chsh_matrix(), seed=0)
    path = tmp_path / "cert.json"
    with open(path, "wb") as handle:
        save_certificate(result.dual, handle)
    with open(path, "rb") as handle:
        loaded = load_certificate(handle)
    assert np.array_equal(loaded.u, result.dual.u)
    assert np.array_equal(loaded.v, result.dual.v)
    assert loaded.upper_bound == result.dual.upper_bound
    assert check_dual(chsh_matrix(), loaded, tol=1e-8)
