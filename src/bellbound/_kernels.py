"""Hot numeric kernels: the enumeration scan, the alternating Gram-vector
sweeps, and the eigenvalues of the dual certificate."""

from __future__ import annotations

import numpy as np

_SCAN_BLOCK = 1 << 16


# --------------------------------------------------------------------------
# Sign scan: max over s in {+-1}^n, s[0] = +1, of sum_l |sum_k A[k,l] s_k|.
# Candidate i encodes the Gray code i ^ (i >> 1); bit j set means s[j+1] = -1.
# Returns (best value, index of the first candidate attaining it).
#
# Meet in the middle: the n-1 free signs split into k low and n-1-k high
# bits.  Each half's column sums come from a doubling table in reflected Gray
# order, P <- [P + a_j; P[::-1] - a_j], so row r holds Gray pattern
# r ^ (r >> 1) and no sign matrix is formed.  Block j adds high row j to every
# low row in one elementwise pass (no BLAS).  Its rows need no inverse Gray
# map: row r has index (j << k) | r, counted from the end when j is odd,
# since the high pattern's parity flips every low index bit.  Blocks run in
# index order and the comparison is strict, so the first maximizer wins (an
# all-zero matrix gives 0).  k is at least half the free signs, bounding both
# tables, and large enough for a block of about _SCAN_BLOCK sums, keeping the
# Python loop short; small scans are a single block.
# --------------------------------------------------------------------------


def _reflected_sums(rows: np.ndarray, base: np.ndarray) -> np.ndarray:
    P = base[None, :]
    for a in rows:
        P = np.concatenate((P + a, P[::-1] - a))
    return P


def gray_scan(A: np.ndarray) -> tuple[float, int]:
    A = np.asarray(A, dtype=np.float64)
    n, m = A.shape
    free = n - 1
    k = max((free + 1) // 2, min(free, (_SCAN_BLOCK // m).bit_length() - 1))
    lo = _reflected_sums(A[1 : k + 1], A[0])
    if k == free:
        vals = np.abs(lo).sum(axis=1)
        i = int(vals.argmax())
        return float(vals[i]), i
    lo = np.ascontiguousarray(lo.T)
    buf = np.empty_like(lo)
    vals = np.empty(lo.shape[1])
    best_val = -1.0
    best_idx = 0
    for j, high in enumerate(_reflected_sums(A[k + 1 :], np.zeros(m))):
        np.add(lo, high[:, None], out=buf)
        np.abs(buf, out=buf)
        buf.sum(axis=0, out=vals)
        run = vals[::-1] if j & 1 else vals
        r = int(run.argmax())
        if run[r] > best_val:
            best_val = float(run[r])
            best_idx = (j << k) | r
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
