import numpy as np

from bellbound import _kernels


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
