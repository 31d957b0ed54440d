import tracemalloc

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


def split_table_scan(A):
    # The earlier blocked scan at its block of 2^16 sums, kept as an oracle:
    # both halves' doubling tables by concatenation, then per high row a
    # broadcast add onto the whole (m, 2^k) low table, abs and a sum over
    # axis 0.
    def reflected_sums(rows, base):
        P = base[None, :]
        for a in rows:
            P = np.concatenate((P + a, P[::-1] - a))
        return P

    n, m = A.shape
    free = n - 1
    k = max((free + 1) // 2, min(free, ((1 << 16) // m).bit_length() - 1))
    lo = reflected_sums(A[1 : k + 1], A[0])
    if k == free:
        vals = np.abs(lo).sum(axis=1)
        i = int(vals.argmax())
        return float(vals[i]), i
    lo = np.ascontiguousarray(lo.T)
    buf = np.empty_like(lo)
    vals = np.empty(lo.shape[1])
    best_val, best_idx = -1.0, 0
    for j, high in enumerate(reflected_sums(A[k + 1 :], np.zeros(m))):
        np.add(lo, high[:, None], out=buf)
        np.abs(buf, out=buf)
        buf.sum(axis=0, out=vals)
        run = vals[::-1] if j & 1 else vals
        r = int(run.argmax())
        if run[r] > best_val:
            best_val, best_idx = float(run[r]), (j << k) | r
    return best_val, best_idx


def loop_sweeps(A, x, y, max_iters, tol):
    # The earlier single-restart sweeps, kept as an oracle: x (n, r) and
    # y (m, r) updated in place, one restart per call.
    hist = np.empty(2 * max_iters + 1, dtype=np.float64)
    obj = float(np.sum((A @ y) * x))
    hist[0] = obj
    count = 1
    prev = obj
    converged = False
    for _ in range(max_iters):
        g = A @ y
        norms = np.sqrt((g * g).sum(axis=1))
        hit = norms > 0.0
        x[hit] = g[hit] / norms[hit, None]
        obj = float(norms.sum())
        hist[count] = obj
        count += 1

        h = A.T @ x
        norms = np.sqrt((h * h).sum(axis=1))
        hit = norms > 0.0
        y[hit] = h[hit] / norms[hit, None]
        obj = float(norms.sum())
        hist[count] = obj
        count += 1

        if abs(obj - prev) <= tol * max(1.0, abs(obj)):
            converged = True
            break
        prev = obj
    return hist[:count], converged


def unit_starts(rng, restarts, rows, r):
    v = rng.standard_normal((restarts, rows, r))
    return v / np.linalg.norm(v, axis=2, keepdims=True)


def assert_matches_loop(A, x, y, max_iters, tol):
    # Stacked sweeps equal per-restart loops bit for bit: final vectors,
    # final objectives, sweep counts and stop flags.  The kernel leaves its
    # starts as they were.
    x0, y0 = x.copy(), y.copy()
    xr, yr = x.copy(), y.copy()
    ref = [loop_sweeps(A, xr[i], yr[i], max_iters, tol) for i in range(len(x))]
    xf, yf, final, sweeps, converged = _kernels.alternating_sweeps(A, x, y, max_iters, tol)
    assert np.array_equal(x, x0) and np.array_equal(y, y0)
    assert final.shape == sweeps.shape == converged.shape == (len(ref),)
    for i, (hist, conv) in enumerate(ref):
        assert final[i] == hist[-1]
        assert sweeps[i] == (len(hist) - 1) // 2
        assert converged[i] == conv
    assert np.array_equal(xf, xr)
    assert np.array_equal(yf, yr)
    return xf, yf, sweeps, converged


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


def scan_input(kind, n, rng):
    m = int(rng.integers(n, n + 11))
    if kind == "gaussian":
        return rng.standard_normal((n, m))
    if kind == "pm1":
        return rng.choice([-1.0, 1.0], (n, m))
    # Two zero rows and a duplicated row force ties between candidates.
    A = rng.integers(-2, 3, (n, m)).astype(np.float64)
    A[rng.choice(np.arange(1, n), 2, replace=False)] = 0.0
    A[n - 2] = A[1 + int(rng.integers(n - 3))]
    return A


@pytest.mark.parametrize("block", ["default", 1, 1 << 12])
@pytest.mark.parametrize("kind", ["gaussian", "ties", "pm1"])
@pytest.mark.parametrize("n", [14, 16, 18, 20, 22])
def test_gray_scan_matches_split_table_scan(n, kind, block, monkeypatch):
    # The per-row kernel finds the same first maximizer as the broadcast
    # kernel it replaced, on one block or split at either block size.
    if block != "default":
        monkeypatch.setattr(_kernels, "_SCAN_BLOCK", block)
    A = scan_input(kind, n, np.random.default_rng([n, len(kind)]))
    val, idx = _kernels.gray_scan(A)
    ref_val, ref_idx = split_table_scan(A)
    assert idx == ref_idx
    assert val == pytest.approx(ref_val, rel=1e-12)


def traced_peak(scan, A):
    scan(A)
    tracemalloc.start()
    try:
        scan(A)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(16, 16), (20, 20), (22, 22), (21, 32)], ids=str)
def test_gray_scan_peak_memory_within_split_table_scan(shape):
    # One in-place low table and two vectors replace the concatenated
    # tables, the transposed copy and the (m, 2^k) buffer.
    A = np.random.default_rng(sum(shape)).standard_normal(shape)
    assert traced_peak(_kernels.gray_scan, A) <= 1.01 * traced_peak(split_table_scan, A)


def test_alternating_sweeps_zero_matrix_converges():
    A = np.zeros((2, 3))
    x = np.eye(2)[None].copy()
    y = np.eye(3)[None, :, :2].copy()
    _, _, final, sweeps, converged = _kernels.alternating_sweeps(A, x, y, 10, 1e-9)
    assert converged.tolist() == [True]
    assert sweeps.tolist() == [1]
    assert final.tolist() == [0.0]


@pytest.mark.parametrize(
    "shape", [(7, 5), (3, 9), (12, 12)], ids=["7x5", "3x9", "12x12"]
)
def test_stacked_sweeps_match_loop_on_gaussian(shape):
    rng = np.random.default_rng(sum(shape))
    n, m = shape
    r = min(n, m)
    A = rng.standard_normal(shape)
    x, y = unit_starts(rng, 16, n, r), unit_starts(rng, 16, m, r)
    _, _, sweeps, converged = assert_matches_loop(A, x, y, 10_000, 1e-7)
    # The restarts stop at different sweeps, so rows leave the stack early.
    assert len(set(sweeps.tolist())) > 1
    assert converged.all()


def test_stacked_sweeps_match_loop_with_vanishing_updates():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 5))
    A[2] = 0.0
    A[:, 3] = 0.0
    x, y = unit_starts(rng, 8, 6, 5), unit_starts(rng, 8, 5, 5)
    xf, yf, _, _ = assert_matches_loop(A, x, y, 10_000, 1e-7)
    # The zero row and column keep their starting vectors.
    assert np.array_equal(xf[:, 2], x[:, 2])
    assert np.array_equal(yf[:, 3], y[:, 3])


@pytest.mark.parametrize("max_iters, tol", [(10_000, 1e-7), (0, 1e-7), (1, 1e-7), (50, 0.0)])
@pytest.mark.parametrize("r", [1, 4])
def test_stacked_sweeps_match_loop_on_budgets(max_iters, tol, r):
    rng = np.random.default_rng(r)
    A = rng.standard_normal((5, 4))
    x, y = unit_starts(rng, 6, 5, r), unit_starts(rng, 6, 4, r)
    _, _, sweeps, _ = assert_matches_loop(A, x, y, max_iters, tol)
    assert (sweeps <= max_iters).all()


def test_jacobi_trivial_sizes():
    assert _kernels.jacobi_eigenvalues(np.array([[4.0]]))[0] == 4.0
    w = _kernels.jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(w, [-1.0, 2.0, 3.0])
