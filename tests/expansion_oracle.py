"""Oracle for ``square_bell_operator``: the collected expression evaluated on
random Hermitian involutions, against B^2 multiplied out directly."""

import numpy as np

from bellbound import CoefficientMatrix, OperatorExpression, square_bell_operator


def _random_involution(dim: int, rng: np.random.Generator) -> np.ndarray:
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(gauss)
    signs = (rng.integers(0, 2, dim) * 2 - 1).astype(np.complex128)
    return q @ np.diag(signs) @ q.conj().T


def evaluate_expression(
    expr: OperatorExpression, x_ops: np.ndarray, y_ops: np.ndarray
) -> np.ndarray:
    """Numeric value of the expression on explicit bipartite operators.

    ``x_ops[k]`` and ``y_ops[l]`` are the single-site factors; a product of
    an x-site factor P and a y-site factor Q is np.kron(P, Q).
    """
    def kron_sum(coeffs, left, right):
        """sum_pq coeffs[p, q] * np.kron(left[p], right[q])."""
        out = np.einsum("pq,pab,qcd->acbd", coeffs, left, right, optimize=True)
        return out.reshape(left.shape[1] * right.shape[1], -1)

    I, K = expr.pairs
    eye_x, eye_y = np.eye(x_ops.shape[1])[None], np.eye(y_ops.shape[1])[None]
    xik, xki = x_ops[I] @ x_ops[K], x_ops[K] @ x_ops[I]
    yik, yki = y_ops[I] @ y_ops[K], y_ops[K] @ y_ops[I]
    return (
        kron_sum(np.array([[expr.identity_coeff]]), eye_x, eye_y)
        + kron_sum(expr.comm, xik - xki, yik - yki)
        + kron_sum(expr.acomm, xik + xki, yik + yki)
        + kron_sum(expr.residual[:1].T, xik + xki, eye_y)
        + kron_sum(expr.residual[1:], eye_x, yik + yki)
    )


def numeric_check(matrix: CoefficientMatrix, dim: int = 2, seed: int = 0) -> float:
    """Oracle for square_bell_operator: compare against direct matrix algebra.

    Draws random Hermitian involutions for both sites, evaluates B^2 by
    multiplying out the Bell operator and through the collected expression,
    and returns the largest absolute entrywise discrepancy.
    """
    n, m = matrix.rows, matrix.cols
    rng = np.random.default_rng(seed)
    x_ops = np.stack([_random_involution(dim, rng) for _ in range(n)])
    y_ops = np.stack([_random_involution(dim, rng) for _ in range(m)])
    A = matrix.entries
    bell = sum(
        A[k, l] * np.kron(x_ops[k], y_ops[l]) for k in range(n) for l in range(m)
    )
    direct = bell @ bell
    expanded = evaluate_expression(square_bell_operator(matrix), x_ops, y_ops)
    return float(np.abs(direct - expanded).max())
