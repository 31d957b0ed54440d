import json
import math
import warnings

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
)
from bellbound import _kernels, quantum
from bellbound.errors import (
    DimensionMismatchError,
    MatrixFormatError,
    SizeLimitError,
)
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
    scaled = quantum_bound(CoefficientMatrix(matrix.entries * factor), seed=1).primal.objective
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


def assert_same_result(a, b):
    assert np.array_equal(a.primal.x, b.primal.x)
    assert np.array_equal(a.primal.y, b.primal.y)
    assert np.array_equal(a.dual.u, b.dual.u)
    assert np.array_equal(a.dual.v, b.dual.v)
    assert np.array_equal(a.objective_history, b.objective_history)
    assert (a.primal.objective, a.dual.upper_bound, a.dual.min_eigenvalue) == (
        b.primal.objective,
        b.dual.upper_bound,
        b.dual.min_eigenvalue,
    )
    assert (a.gap, a.converged) == (b.gap, b.converged)


def test_ties_keep_the_first_restart():
    # On a zero matrix every restart scores 0 and keeps its start, so the
    # result must carry restart 0's starting vectors.
    result = quantum_bound(CoefficientMatrix(np.zeros((3, 3))), seed=5)
    rng = np.random.default_rng(np.random.SeedSequence(5).spawn(16)[0])
    starts = [rng.standard_normal((3, 3)) for _ in range(2)]
    x0, y0 = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in starts)
    assert np.array_equal(result.primal.x, x0)
    assert np.array_equal(result.primal.y, y0)


def test_sweep_budget_is_not_preallocated():
    # A budget of 10**9 sweeps used to allocate 14.9 GiB of history up front.
    huge = quantum_bound(chsh_matrix(), max_iters=10**9, seed=0)
    assert_same_result(huge, quantum_bound(chsh_matrix(), seed=0))


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_restart_groups_do_not_change_the_result(monkeypatch, per_group):
    matrix = CoefficientMatrix(np.random.default_rng(7).standard_normal((7, 5)))
    whole = quantum_bound(matrix, seed=11)
    calls = []
    sweeps = _kernels.alternating_sweeps

    def counted(*args):
        calls.append(args[1].shape[0])
        return sweeps(*args)

    # Each restart of a 7x5 with gram_dim 5 stacks (7 + 5) * 5 entries.
    monkeypatch.setattr(quantum, "_SWEEP_BLOCK", 60 * per_group)
    monkeypatch.setattr(_kernels, "alternating_sweeps", counted)
    grouped = quantum_bound(matrix, seed=11)
    assert calls == [min(per_group, 16 - k) for k in range(0, 16, per_group)]
    assert_same_result(grouped, whole)


def test_size_guard_accepts_the_limit_and_refuses_one_past(monkeypatch):
    assert 2048 * 2048 == quantum.CERTIFICATE_LIMIT
    cert = quantum_bound(chsh_matrix(), seed=0).dual
    monkeypatch.setattr(quantum, "CERTIFICATE_LIMIT", 4 * 4)
    assert quantum_bound(chsh_matrix(), seed=0).converged
    assert check_dual(chsh_matrix(), cert)
    monkeypatch.setattr(quantum, "CERTIFICATE_LIMIT", 4 * 4 - 1)
    with pytest.raises(SizeLimitError, match="4x4 certificate"):
        quantum_bound(chsh_matrix(), seed=0)
    with pytest.raises(SizeLimitError, match="15-entry limit"):
        check_dual(chsh_matrix(), cert)


def test_size_guard_refuses_before_sweeping(monkeypatch):
    # A 524287 x 1 matrix once asked for a 2 TiB certificate matrix.
    def unreachable(*args, **kwargs):
        raise AssertionError("work done before the size guard")

    monkeypatch.setattr(_kernels, "alternating_sweeps", unreachable)
    monkeypatch.setattr(quantum, "certificate_matrix", unreachable)
    tall = CoefficientMatrix(np.zeros((524287, 1)))
    with pytest.raises(SizeLimitError, match="524288x524288"):
        quantum_bound(tall)
    cert = DualCertificate(u=np.zeros(524287), v=np.zeros(1), min_eigenvalue=0.0)
    with pytest.raises(SizeLimitError):
        check_dual(tall, cert)
    # The largest order accepted: 2047 + 1 observables.
    with pytest.raises(AssertionError, match="before the size guard"):
        quantum_bound(CoefficientMatrix(np.zeros((2047, 1))))


def test_check_dual_exact_chsh_certificate():
    # Independent oracle: eigenvalues of the block matrix computed directly.
    cert = DualCertificate(
        u=np.array([SQRT2, SQRT2]),
        v=np.array([SQRT2, SQRT2]),
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
        min_eigenvalue=0.0,
    )
    assert not check_dual(chsh_matrix(), cert, tol=1e-8)


def test_check_dual_zero_matrix():
    cert = DualCertificate(u=np.zeros(2), v=np.zeros(2), min_eigenvalue=0.0)
    assert check_dual(CoefficientMatrix(np.zeros((2, 2))), cert, tol=1e-8)


def test_check_dual_dimension_mismatch():
    cert = DualCertificate(u=np.ones(3), v=np.ones(2), min_eigenvalue=0.0)
    with pytest.raises(DimensionMismatchError):
        check_dual(chsh_matrix(), cert)


def test_computed_certificate_upper_bound_dominates():
    result = quantum_bound(chsh_matrix(), seed=9)
    assert result.dual.upper_bound >= result.primal.objective - 1e-7
    assert result.dual.min_eigenvalue >= -1e-8
    assert check_dual(chsh_matrix(), result.dual, tol=1e-8)


def test_certificate_round_trip(tmp_path):
    # tensor_power(1) is CHSH; the Gaussians have the benchmark's certify sizes.
    rng = np.random.default_rng(601)
    shapes = [(12, 12), (16, 16), (20, 20), (22, 22), (21, 32)]
    matrices = [tensor_power(d) for d in range(1, 5)]
    matrices += [CoefficientMatrix(rng.standard_normal(shape)) for shape in shapes]
    loaded_certificates = []
    for matrix in matrices:
        result = quantum_bound(matrix, seed=0)
        path = tmp_path / "cert.json"
        with open(path, "wb") as handle:
            save_certificate(result.dual, handle)
        with open(path, "rb") as handle:
            loaded = load_certificate(handle)
        assert np.array_equal(loaded.u, result.dual.u)
        assert np.array_equal(loaded.v, result.dual.v)
        assert loaded.upper_bound == result.dual.upper_bound
        assert loaded.min_eigenvalue == result.dual.min_eigenvalue
        assert check_dual(matrix, loaded, tol=1e-8) == (result.dual.min_eigenvalue >= -1e-8)
        loaded_certificates.append(loaded)
    assert check_dual(chsh_matrix(), loaded_certificates[0], tol=1e-8)


def chsh_certificate(upper_bound) -> bytes:
    weights = [SQRT2, SQRT2]
    doc = {"u": weights, "v": weights, "upper_bound": upper_bound, "min_eigenvalue": 0.0}
    return json.dumps(doc).encode("utf-8")


def test_certificate_stating_a_bound_its_weights_do_not_give_is_refused():
    # Loaded as stated, this file "certified" Q <= 1 < L = 2 for CHSH.
    with pytest.raises(MatrixFormatError, match="upper_bound 1.0"):
        load_certificate(chsh_certificate(1.0))
    cert = load_certificate(chsh_certificate(2.0 * SQRT2))
    assert cert.upper_bound == 2.0 * SQRT2
    assert check_dual(chsh_matrix(), cert)


@pytest.mark.parametrize("side", ["u", "v"])
@pytest.mark.parametrize("weight", ["NaN", "Infinity"])
def test_non_finite_certificate_weights_are_refused(side, weight):
    # NaN passed the "< 0" test; Infinity made check_dual raise LinAlgError.
    text = chsh_certificate(2.0 * SQRT2).decode("utf-8")
    text = text.replace(f'"{side}": [{SQRT2!r}', f'"{side}": [{weight}', 1)
    with pytest.raises(MatrixFormatError, match="finite"):
        load_certificate(text.encode("utf-8"))


# Each document gives its stated upper_bound bit for bit; only the type or
# the finiteness of one value is wrong.  All of them used to load.
HALF = {"u": [0.5, 0.5], "v": [0.5, 0.5], "upper_bound": 1.0, "min_eigenvalue": 0.0}
MISTYPED_CERTIFICATES = {
    "string-bound": (dict(HALF, upper_bound="1.0"), "JSON numbers"),
    "bool-bound": (dict(HALF, upper_bound=True), "JSON numbers"),
    "string-eigenvalue": (dict(HALF, min_eigenvalue="7"), "JSON numbers"),
    "nan-eigenvalue": (dict(HALF, min_eigenvalue=math.nan), "finite"),
    "string-weight": (dict(HALF, u=["0.5", 0.5]), "JSON numbers"),
}


@pytest.mark.parametrize("doc, cause", MISTYPED_CERTIFICATES.values(),
                         ids=MISTYPED_CERTIFICATES.keys())
def test_certificate_values_must_be_finite_json_numbers(doc, cause):
    with pytest.raises(MatrixFormatError, match=cause):
        load_certificate(json.dumps(doc).encode("utf-8"))


def test_certificate_weights_whose_sum_overflows_are_refused():
    # This loaded with an inf bound and numpy overflow warnings, and
    # check_dual then returned True for CHSH.
    doc = {"u": [1e308, 1e308], "v": [1e308, 1e308], "upper_bound": math.inf,
           "min_eigenvalue": 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError, match="sum"):
            load_certificate(json.dumps(doc).encode("utf-8"))


@pytest.mark.parametrize("shape", [(2, 2), (5, 5), (8, 8), (7, 5)])
@pytest.mark.parametrize("per_group", [1, 2, 3])
@pytest.mark.parametrize("restarts, max_iters, tol", [(16, 10_000, 1e-7), (4, 2_000, 1e-5)])
def test_primal_stage_is_bitwise_quantum_bound_primal(
    monkeypatch, shape, per_group, restarts, max_iters, tol
):
    n, m = shape
    r = min(n, m)
    matrix = CoefficientMatrix(np.random.default_rng(10 * n + m).standard_normal(shape))
    monkeypatch.setattr(quantum, "_SWEEP_BLOCK", (n + m) * r * per_group)
    result = quantum_bound(matrix, restarts=restarts, max_iters=max_iters, tol=tol, seed=5)
    groups = list(quantum._seeded_starts(n, m, r, restarts, 5))
    assert [len(xs) for xs, _ in groups] == [
        min(per_group, restarts - k) for k in range(0, restarts, per_group)
    ]
    objective, x, y, hist, converged = quantum._best_primal(
        matrix.entries, groups, max_iters, tol
    )
    assert objective == result.primal.objective
    assert np.array_equal(x, result.primal.x)
    assert np.array_equal(y, result.primal.y)
    assert np.array_equal(hist, result.objective_history)
    assert bool(converged and result.gap <= tol) == result.converged
