import numpy as np
import pytest

from bellbound import _kernels, tensor_power


def dense_gray_scan(A):
    # The earlier scan, kept as an oracle: chunks of explicit sign rows in
    # Gray order, s @ A on BLAS, first maximizer by a strict comparison.
    n = A.shape[0]
    total = 1 << (n - 1)
    best_val, best_idx = -1.0, 0
    for start in range(0, total, 1 << 14):
        ks = np.arange(start, min(start + (1 << 14), total), dtype=np.int64)
        g = ks ^ (ks >> 1)
        signs = np.empty((ks.shape[0], n))
        signs[:, 0] = 1.0
        for j in range(n - 1):
            signs[:, j + 1] = 1.0 - 2.0 * ((g >> j) & 1)
        vals = np.abs(signs @ A).sum(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_idx = float(vals[i]), int(ks[i])
    return best_val, best_idx


def test_gray_signs_reconstruction():
    # index 0 is the all-ones vector; the first component is always +1
    assert np.array_equal(_kernels.gray_signs(0, 4), np.ones(4))
    for idx in range(8):
        s = _kernels.gray_signs(idx, 4)
        assert s[0] == 1.0
        assert np.all(np.abs(s) == 1.0)
    # consecutive candidates differ in exactly one position
    for idx in range(1, 8):
        prev = _kernels.gray_signs(idx - 1, 4)
        cur = _kernels.gray_signs(idx, 4)
        assert int((prev != cur).sum()) == 1


def test_gray_scan_single_row_side():
    val, idx = _kernels.gray_scan(np.array([[1.0, -2.0, 3.0]]))
    assert val == 6.0
    assert idx == 0


def test_gray_scan_zero_matrix_keeps_first_candidate():
    # Every candidate ties; the first in Gray order is index 0.
    assert _kernels.gray_scan(np.zeros((20, 5))) == (0.0, 0)


@pytest.mark.parametrize("n", range(14, 21))
def test_gray_scan_matches_dense_scan(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, int(rng.integers(n, n + 13))))
    val, idx = _kernels.gray_scan(A)
    ref_val, ref_idx = dense_gray_scan(A)
    assert idx == ref_idx
    assert val == pytest.approx(ref_val, rel=1e-12)


def test_gray_scan_matches_dense_scan_on_tensor_power():
    A = tensor_power(4).entries
    assert _kernels.gray_scan(A) == dense_gray_scan(A)


def test_alternating_sweeps_zero_matrix_converges():
    A = np.zeros((2, 3))
    x = np.eye(2)
    y = np.eye(3)[:, :2].copy()
    hist, converged = _kernels.alternating_sweeps(A, x, y, 10, 1e-9)
    assert converged
    assert hist[-1] == 0.0


def test_jacobi_trivial_sizes():
    assert _kernels.jacobi_eigenvalues(np.array([[4.0]]))[0] == 4.0
    w = _kernels.jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(w, [-1.0, 2.0, 3.0])
