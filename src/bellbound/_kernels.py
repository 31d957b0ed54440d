"""Hot numeric kernels: the enumeration scan, the alternating Gram-vector
sweeps batched over restarts, and the eigenvalues of the dual certificate."""

from __future__ import annotations

import numpy as np

_SCAN_BLOCK = 1 << 17


# --------------------------------------------------------------------------
# Sign scan: max over s in {+-1}^n, s[0] = +1, of sum_l |sum_k A[k,l] s_k|.
# Candidate i encodes the Gray code i ^ (i >> 1); bit j set means s[j+1] = -1.
# Returns (best value, index of the first candidate attaining it).
#
# Meet in the middle: the n-1 free signs split into k low and n-1-k high bits.
# Each half's column sums fill a table in reflected Gray order, doubled in
# place along axis 0 (t[w:2w] = t[w-1::-1] - a; t[:w] += a): entry r holds
# Gray pattern r ^ (r >> 1).  A (2^bits, m) table doubles whole rows.  A split
# scan's (m, 2^k) low table doubles row by row, since numpy copies the input
# of an out= call on overlapping 2-D slices.  Block j pairs high row h with
# every low column through
#  sum_l |lo_l + h_l| = 2 (sum_l max(lo_l, -h_l) - sum_l lo_l / 2) + sum_l h_l:
# two 1-D passes per low row against the scalar -h_l into a reused vector, no
# (m, 1) broadcast for numpy's slow buffered iterator.  Column r has index
# (j << k) | r, counted from the end when j is odd, since the high pattern's
# parity flips every low index bit.  Blocks run in index order and compare
# strictly once sum_l h_l is added, so the first maximizer wins (an all-zero
# matrix gives 0).  k >= (n-1)/2 bounds both tables; k also reaches a block
# of about _SCAN_BLOCK sums.  With k = n-1 the scan is one (2^k, m) table.
# --------------------------------------------------------------------------


def _gray_fill(table: np.ndarray, base, steps) -> np.ndarray:
    table[0] = base
    for i, a in enumerate(steps):
        np.subtract(table[(1 << i) - 1 :: -1], a, out=table[1 << i : 2 << i])
        table[: 1 << i] += a
    return table


def gray_scan(A: np.ndarray) -> tuple[float, int]:
    A = np.asarray(A, dtype=np.float64)
    n, m = A.shape
    free = n - 1
    k = max((free + 1) // 2, min(free, (_SCAN_BLOCK // m).bit_length() - 1))
    if k == free:
        vals = np.abs(_gray_fill(np.empty((1 << free, m)), A[0], A[1:])).sum(axis=1)
        i = int(vals.argmax())
        return float(vals[i]), i
    lo = np.empty((m, 1 << k))
    for row, base, steps in zip(lo, A[0].tolist(), A[1 : k + 1].T.tolist()):
        _gray_fill(row, base, steps)
    half_sum = 0.5 * lo.sum(axis=0)
    first, rest = lo[0], list(lo[1:])
    vals, tmp = np.empty((2, 1 << k))
    high = _gray_fill(np.empty((1 << (free - k), m)), 0.0, A[k + 1 :])
    best_val, best_idx = -1.0, 0
    for j, h_sum in enumerate(high.sum(axis=1).tolist()):
        h = high[j].tolist()
        np.maximum(first, -h[0], out=vals)
        for row, c in zip(rest, h[1:]):
            np.maximum(row, -c, out=tmp)
            vals += tmp
        vals -= half_sum
        run = vals[::-1] if j & 1 else vals
        r = int(run.argmax())
        value = 2.0 * float(run[r]) + h_sum
        if value > best_val:
            best_val, best_idx = value, (j << k) | r
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
