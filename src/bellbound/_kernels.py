"""Hot numeric kernels: the enumeration scan, the alternating Gram-vector
sweeps batched over restarts, and the eigenvalues of the dual certificate."""

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
# Alternating maximization sweeps over unit Gram vectors, for R restarts at
# once: x is (R, n, r), y is (R, m, r), and each half-sweep is one stacked
# A @ y or A.T @ x.  The sweeps run on copies of the starts; rows with a
# vanishing update keep their vectors.  Each restart has its own stopping
# test; a restart that stops is dropped from the active stack, so it ends as
# a run on its own would.  Returns, per restart, the final x and y, the final
# objective (after the last half-sweep, or at the start for a zero budget),
# the number of full sweeps run and whether the stopping test fired.
# --------------------------------------------------------------------------


def _normalize_rows(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    norms = np.sqrt((g * g).sum(axis=2))
    np.divide(g, norms[..., None], out=out, where=norms[..., None] > 0.0)
    return norms.sum(axis=1)


def alternating_sweeps(
    A: np.ndarray, x: np.ndarray, y: np.ndarray, max_iters: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    R = x.shape[0]
    x, y = x.copy(), y.copy()
    xs, ys = x, y
    active = np.arange(R)
    obj = ((A @ y) * x).reshape(R, -1).sum(axis=1)
    objective = np.empty(R)
    sweeps = np.full(R, max_iters)
    converged = np.zeros(R, dtype=bool)
    for k in range(1, max_iters + 1):
        prev = obj
        _normalize_rows(A @ ys, xs)
        obj = _normalize_rows(A.T @ xs, ys)
        stop = np.abs(obj - prev) <= tol * np.maximum(1.0, np.abs(obj))
        if stop.any():
            done = active[stop]
            x[done], y[done], objective[done] = xs[stop], ys[stop], obj[stop]
            sweeps[done] = k
            converged[done] = True
            keep = ~stop
            active, xs, ys, obj = active[keep], xs[keep], ys[keep], obj[keep]
            if active.size == 0:
                break
    x[active], y[active], objective[active] = xs, ys, obj
    return x, y, objective, sweeps, converged


def jacobi_eigenvalues(S: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending."""
    # The name is kept because the benchmark times the PSD check through it.
    return np.linalg.eigvalsh(S)
