"""Symbolic squaring of Bell operators and operator-norm estimates.

For dichotomic observables (X_k^2 = Y_l^2 = I, cross-site commuting) the
square of B = sum_kl A[k,l] X_k Y_l collects into an identity part, products
of same-site commutators with coefficients (A[i,j]A[k,l] - A[i,l]A[k,j]) / 2,
products of same-site anticommutators with coefficients
(A[i,j]A[k,l] + A[i,l]A[k,j]) / 2, and single-site anticommutator residuals
weighted by row/column inner products.  The residuals vanish whenever the
rows and columns of A are pairwise orthogonal.

Index pairs are canonical (first < second); commutator antisymmetry is
absorbed into the sign of the coefficient.  All indices are 0-based.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeLimitError
from .matrices import CoefficientMatrix

MAX_EXPANSION_SIZE = 64
MAX_NUMERIC_SIZE = 8
MAX_NUMERIC_DIM = 16

Pair = tuple[int, int]


@dataclass(frozen=True)
class OperatorExpression:
    """The squared Bell operator, collected by term kind.

    comm_terms entries ((i, k), (j, l), c) mean  c * [X_i, X_k] [Y_j, Y_l];
    acomm_terms entries mean  c * {X_i, X_k} {Y_j, Y_l};
    residual_terms entries (site, (i, k), c) mean  c * {Z_i, Z_k}  on one site.
    """

    identity_coeff: float
    comm_terms: tuple[tuple[Pair, Pair, float], ...] = ()
    acomm_terms: tuple[tuple[Pair, Pair, float], ...] = ()
    residual_terms: tuple[tuple[str, Pair, float], ...] = ()

    def assuming_commuting(self) -> "OperatorExpression":
        """The expression after setting every same-site commutator to zero."""
        return OperatorExpression(
            identity_coeff=self.identity_coeff,
            comm_terms=(),
            acomm_terms=self.acomm_terms,
            residual_terms=self.residual_terms,
        )

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity_coeff,
            "commutators": [
                [list(xp), list(yp), c] for xp, yp, c in self.comm_terms
            ],
            "anticommutators": [
                [list(xp), list(yp), c] for xp, yp, c in self.acomm_terms
            ],
            "residual": [
                [site, list(pair), c] for site, pair, c in self.residual_terms
            ],
        }


def square_bell_operator(matrix: CoefficientMatrix) -> OperatorExpression:
    """Expand (sum_kl A[k,l] X_k Y_l)^2 into collected canonical terms.

    Requires a square matrix with entries in {-1, 0, +1} and at most 64
    observables per site.
    """
    A = matrix.entries
    n, m = matrix.rows, matrix.cols
    if n != m:
        raise DomainError(f"squaring requires a square matrix, got {n}x{m}")
    if n > MAX_EXPANSION_SIZE:
        raise SizeLimitError(
            f"{n} observables per site exceeds the {MAX_EXPANSION_SIZE} cap"
        )
    if not np.isin(A, (-1.0, 0.0, 1.0)).all():
        raise DomainError("squaring requires every entry to be -1, 0, or +1")

    # Coefficient arrays are indexed [x pair, y pair].  One list of canonical
    # pairs serves both sites because n == m, and entries in {-1, 0, +1} make
    # every product and dot product exact.
    pairs = np.triu_indices(n, 1)
    I, K = pairs
    forward = A[np.ix_(I, I)] * A[np.ix_(K, K)]  # A[i,j] A[k,l]
    crossed = A[np.ix_(I, K)] * A[np.ix_(K, I)]  # A[i,l] A[k,j]
    canonical = list(zip(I.tolist(), K.tolist()))
    residual = [
        (site, pair, c)
        for site, dots in (("x", A @ A.T), ("y", A.T @ A))
        for pair, c in zip(canonical, dots[pairs].tolist())
        if c != 0.0
    ]
    return OperatorExpression(
        identity_coeff=float((A * A).sum()),
        comm_terms=_collect(0.5 * (forward - crossed), canonical),
        acomm_terms=_collect(0.5 * (forward + crossed), canonical),
        residual_terms=tuple(residual),
    )


def _collect(coeffs: np.ndarray, canonical: list[Pair]) -> tuple:
    """Nonzero coeffs[p, q] as (canonical[p], canonical[q], c), row-major."""
    p, q = np.nonzero(coeffs)
    return tuple(
        (canonical[i], canonical[j], c)
        for i, j, c in zip(p.tolist(), q.tolist(), coeffs[p, q].tolist())
    )


def _random_involution(dim: int, rng: np.random.Generator) -> np.ndarray:
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(gauss)
    signs = (rng.integers(0, 2, dim) * 2 - 1).astype(np.complex128)
    return q @ np.diag(signs) @ q.conj().T


def evaluate_expression(
    expr: OperatorExpression, x_ops: np.ndarray, y_ops: np.ndarray
) -> np.ndarray:
    """Numeric value of the expression on explicit bipartite operators.

    ``x_ops[k]`` and ``y_ops[l]`` are the single-site factors; they are lifted
    to X_k (x) I and I (x) Y_l internally.
    """
    dim_x = x_ops.shape[1]
    dim_y = y_ops.shape[1]
    eye_x = np.eye(dim_x, dtype=np.complex128)
    eye_y = np.eye(dim_y, dtype=np.complex128)
    out = expr.identity_coeff * np.eye(dim_x * dim_y, dtype=np.complex128)

    def comm(a, b):
        return a @ b - b @ a

    def acomm(a, b):
        return a @ b + b @ a

    for (i, k), (j, l), c in expr.comm_terms:
        out += c * np.kron(comm(x_ops[i], x_ops[k]), comm(y_ops[j], y_ops[l]))
    for (i, k), (j, l), c in expr.acomm_terms:
        out += c * np.kron(acomm(x_ops[i], x_ops[k]), acomm(y_ops[j], y_ops[l]))
    for site, (i, k), c in expr.residual_terms:
        if site == "x":
            out += c * np.kron(acomm(x_ops[i], x_ops[k]), eye_y)
        else:
            out += c * np.kron(eye_x, acomm(y_ops[i], y_ops[k]))
    return out


def numeric_check(matrix: CoefficientMatrix, dim: int = 2, seed: int = 0) -> float:
    """Oracle for square_bell_operator: compare against direct matrix algebra.

    Draws random Hermitian involutions for both sites, evaluates B^2 by
    multiplying out the Bell operator and through the collected expression,
    and returns the largest absolute entrywise discrepancy.
    """
    n, m = matrix.rows, matrix.cols
    if n != m or n > MAX_NUMERIC_SIZE:
        raise SizeLimitError(
            f"numeric check supports square matrices up to {MAX_NUMERIC_SIZE} "
            f"observables per site, got {n}x{m}"
        )
    if dim < 1 or dim > MAX_NUMERIC_DIM:
        raise SizeLimitError(f"factor dimension must be in [1, {MAX_NUMERIC_DIM}]")

    rng = np.random.default_rng(seed)
    x_ops = np.stack([_random_involution(dim, rng) for _ in range(n)])
    y_ops = np.stack([_random_involution(dim, rng) for _ in range(m)])
    eye = np.eye(dim, dtype=np.complex128)

    A = matrix.entries
    bell = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for k in range(n):
        for l in range(m):
            if A[k, l] != 0.0:
                bell += A[k, l] * (
                    np.kron(x_ops[k], eye) @ np.kron(eye, y_ops[l])
                )
    direct = bell @ bell

    expanded = evaluate_expression(square_bell_operator(matrix), x_ops, y_ops)
    return float(np.abs(direct - expanded).max())


def norm_estimate(expr: OperatorExpression, commuting_sites: bool = False) -> float:
    """Upper bound on the Bell value from the squared operator.

    Triangle inequality with per-factor norm bounds of 2 for commutators and
    anticommutators, then the variance inequality ||B|| <= sqrt(||B^2||).
    Same-site commutators drop out when ``commuting_sites`` is set; single-site
    residual anticommutators contribute 2|c| either way.
    """
    total = expr.identity_coeff
    total += 4.0 * sum(abs(c) for _, _, c in expr.acomm_terms)
    if not commuting_sites:
        total += 4.0 * sum(abs(c) for _, _, c in expr.comm_terms)
    total += 2.0 * sum(abs(c) for _, _, c in expr.residual_terms)
    if total < 0.0:
        raise DomainError("norm estimate is undefined for a negative total")
    return math.sqrt(total)


def _check_order(d: int) -> None:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise DomainError("the order d must be an integer")
    if d < 1:
        raise DomainError(f"the order d must be positive, got {d}")


def closed_form_bound(d: int, commuting_sites: bool = False) -> float:
    """Counting-model norm bound for the 2^d-observable tensor-power family.

    Counts C(2^d, 2) same-site pairs, 2^d commutator partners and 2^(d-1)
    anticommutator partners per pair, each bounded by 4, plus 2^(2d) identity
    weight:

        commuting:  sqrt(4 * C(2^d,2) * 2^(d-1) + 2^(2d))  =  2^(3d/2)
        general:    sqrt(4 * C(2^d,2) * (2^d + 2^(d-1)) + 2^(2d))
                    =  2^d * sqrt(3 * 2^d - 2)

    The commuting case is undefined at d = 1, where no anticommutator
    appears in the squared operator.
    """
    _check_order(d)
    pairs = (1 << d) * ((1 << d) - 1) // 2
    identity = 1 << (2 * d)
    if commuting_sites:
        if d < 2:
            raise DomainError(
                "the commuting-sites bound requires d >= 2: with two "
                "observables per site the squared operator has no "
                "anticommutator contribution"
            )
        return math.sqrt(4.0 * pairs * (1 << (d - 1)) + identity)
    if d == 1:
        warnings.warn(
            "the d=1 counting bound assumes anticommutator terms that the "
            "two-observable expansion does not contain",
            stacklevel=2,
        )
    return math.sqrt(4.0 * pairs * ((1 << d) + (1 << (d - 1))) + identity)


def normalized_violation_estimate(d: int) -> float:
    """Counting-model violation estimate 2^(-d/2) sqrt(3 * 2^d - 2).

    Strictly increasing in d with limit sqrt(3); equals sqrt(5/2) at d = 2.
    Defined for d >= 2 only.
    """
    _check_order(d)
    if d < 2:
        raise DomainError(f"the normalized estimate requires d >= 2, got {d}")
    return math.sqrt(3.0 - 2.0 ** (1 - d))
