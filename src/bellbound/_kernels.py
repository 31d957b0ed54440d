"""Hot numeric kernels: the enumeration scan, the alternating Gram-vector
sweeps, and the eigenvalues of the dual certificate."""

from __future__ import annotations

import numpy as np

_GRAY_CHUNK = 1 << 14


# --------------------------------------------------------------------------
# Gray-code scan: max over s in {+-1}^n, s[0] = +1, of sum_l |sum_k A[k,l] s_k|.
# Candidate k encodes the Gray code k ^ (k >> 1); bit j set means s[j+1] = -1.
# Returns (best value, index of the first candidate attaining it).
# --------------------------------------------------------------------------


def gray_scan(A: np.ndarray) -> tuple[float, int]:
    A = np.ascontiguousarray(A, dtype=np.float64)
    n, m = A.shape
    total = 1 << (n - 1)
    best_val = -1.0
    best_idx = 0
    for start in range(0, total, _GRAY_CHUNK):
        ks = np.arange(start, min(start + _GRAY_CHUNK, total), dtype=np.int64)
        g = ks ^ (ks >> 1)
        signs = np.empty((ks.shape[0], n), dtype=np.float64)
        signs[:, 0] = 1.0
        for j in range(n - 1):
            signs[:, j + 1] = 1.0 - 2.0 * ((g >> j) & 1)
        vals = np.abs(signs @ A).sum(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_idx = int(ks[i])
    return best_val, best_idx


def gray_signs(index: int, n: int) -> np.ndarray:
    """Sign vector of the Gray-scan candidate with the given index."""
    g = index ^ (index >> 1)
    s = np.ones(n, dtype=np.float64)
    for j in range(n - 1):
        if (g >> j) & 1:
            s[j + 1] = -1.0
    return s


# --------------------------------------------------------------------------
# Alternating maximization sweeps over unit Gram vectors.
# x, y are modified in place; rows with a vanishing update are left unchanged.
# Returns (objective history, converged).  The history holds the starting
# objective followed by the objective after every half-sweep.
# --------------------------------------------------------------------------


def alternating_sweeps(
    A: np.ndarray, x: np.ndarray, y: np.ndarray, max_iters: int, tol: float
) -> tuple[np.ndarray, bool]:
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


def jacobi_eigenvalues(S: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending."""
    # The name is kept because the benchmark times the PSD check through it.
    return np.linalg.eigvalsh(S)
