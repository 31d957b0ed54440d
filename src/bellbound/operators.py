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

Squaring is capped at MAX_EXPANSION_SIZE = 32 observables per site; at 64,
tensor_power(6) took 11.8 s of CPU, 818 MB and an 89 MB report (2 CPUs),
measured while reports were still encoded from nested Python lists.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SizeLimitError
from .matrices import CoefficientMatrix

MAX_EXPANSION_SIZE = 32


@dataclass(frozen=True, eq=False)
class OperatorExpression:
    """The squared Bell operator, collected by term kind.

    Stored as arrays over the canonical pairs ``pairs = np.triu_indices(n, 1)``:
    comm[p, q]  = c  means  c * [X_i, X_k] [Y_j, Y_l]  for x pair p = (i, k)
                     and y pair q = (j, l);
    acomm[p, q] = c  means  c * {X_i, X_k} {Y_j, Y_l};
    residual[s, p] = c  means  c * {Z_i, Z_k}  on site s (0 is x, 1 is y).
    Arrays do not compare with ``==``, so expressions compare by identity.
    """

    identity_coeff: float
    pairs: tuple[np.ndarray, np.ndarray]
    comm: np.ndarray
    acomm: np.ndarray
    residual: np.ndarray

    def assuming_commuting(self) -> "OperatorExpression":
        """The expression after setting every same-site commutator to zero."""
        return replace(self, comm=np.zeros_like(self.comm))

    def to_json(self) -> str:
        """Compact JSON text of the expression, byte for byte what
        ``json.dumps(self.to_json_dict(), separators=(",", ":"))`` writes.

        The terms are [[i,k],[j,l],c] and ["x"|"y",[i,k],c] lists, row-major.
        Each pair and each distinct coefficient is encoded once; no per-term
        Python object is built.
        """
        pairs = [f"[{i},{k}]" for i, k in zip(*self.pairs)]
        return (
            f'{{"identity":{json.dumps(self.identity_coeff)}'
            f',"commutators":{_json_terms(self.comm, pairs, pairs)}'
            f',"anticommutators":{_json_terms(self.acomm, pairs, pairs)}'
            f',"residual":{_json_terms(self.residual, _SITES, pairs)}}}'
        )

    def to_json_dict(self) -> dict:
        """The report's nested lists, parsed back from ``to_json()``."""
        return json.loads(self.to_json())


_SITES = ('"x"', '"y"')


def _json_terms(coeffs: np.ndarray, rows, cols) -> str:
    """JSON list of [rows[p],cols[q],coeffs[p, q]] per nonzero entry, row-major;
    rows and cols hold the JSON text of each label.

    Two pieces per term: "[row," and "col,c],", the latter looked up in a
    table over (q, distinct coefficient)."""
    p, q = np.nonzero(coeffs)
    if not p.size:
        return "[]"
    values, which = np.unique(coeffs[p, q], return_inverse=True)
    ends = [f"{col},{json.dumps(c)}]," for col in cols for c in values.tolist()]
    parts = np.empty((p.size, 2), dtype=object)
    parts[:, 0] = np.array(["[" + row + "," for row in rows], dtype=object)[p]
    parts[:, 1] = np.array(ends, dtype=object)[q * values.size + which]
    parts[0, 0] = "[" + parts[0, 0]
    parts[-1, 1] = parts[-1, 1][:-1] + "]"
    return "".join(parts.ravel().tolist())


def square_bell_operator(matrix: CoefficientMatrix) -> OperatorExpression:
    """Expand (sum_kl A[k,l] X_k Y_l)^2 into collected canonical terms.

    Requires a square matrix with entries in {-1, 0, +1} and at most
    MAX_EXPANSION_SIZE observables per site.
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
    return OperatorExpression(
        identity_coeff=float((A * A).sum()),
        pairs=pairs,
        comm=0.5 * (forward - crossed),
        acomm=0.5 * (forward + crossed),
        residual=np.stack([(A @ A.T)[pairs], (A.T @ A)[pairs]]),
    )


def norm_estimate(expr: OperatorExpression) -> float:
    """Upper bound on the Bell value from the squared operator.

    Triangle inequality with per-factor norm bounds of 2 for commutators and
    anticommutators, then the variance inequality ||B|| <= sqrt(||B^2||).
    Single-site residual anticommutators contribute 2|c|.  The bound for
    commuting sites is ``norm_estimate(expr.assuming_commuting())``.
    """
    # Every coefficient is a half-integer or an integer, so the sums are exact.
    total = expr.identity_coeff
    total += 4.0 * float(np.abs(expr.acomm).sum())
    total += 4.0 * float(np.abs(expr.comm).sum())
    total += 2.0 * float(np.abs(expr.residual).sum())
    return math.sqrt(total)


def _check_order(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise DomainError("the order d must be an integer")
    if d < 1:
        raise DomainError(f"the order d must be positive, got {d}")
    return int(d)  # numpy integers wrap around in shifts


def closed_form_bound(d: int, commuting_sites: bool = False) -> float:
    """Counting-model norm bound for the 2^d-observable tensor-power family.

    Counts C(2^d, 2) same-site pairs, 2^d commutator partners and 2^(d-1)
    anticommutator partners per pair, each bounded by 4, plus 2^(2d) identity
    weight:

        commuting:  sqrt(4 * C(2^d,2) * 2^(d-1) + 2^(2d))  =  2^(3d/2)
        general:    sqrt(4 * C(2^d,2) * (2^d + 2^(d-1)) + 2^(2d))
                    =  2^d * sqrt(3 * 2^d - 2)

    The commuting case is undefined at d = 1, where no anticommutator
    appears in the squared operator.  Orders whose bound exceeds a double's
    range (d > 340, or d > 341 for commuting sites) raise DomainError.
    """
    d = _check_order(d)
    if commuting_sites and d < 2:
        raise DomainError(
            "the commuting-sites bound requires d >= 2: with two "
            "observables per site the squared operator has no "
            "anticommutator contribution"
        )
    if d == 1:
        warnings.warn(
            "the d=1 counting bound assumes anticommutator terms that the "
            "two-observable expansion does not contain",
            stacklevel=2,
        )
    bound = math.inf
    if d <= sys.float_info.max_exp // 3:  # else the radicand, ~2^(3d), overflows
        pairs = (1 << d) * ((1 << d) - 1) // 2
        partners = 1 << (d - 1) if commuting_sites else (1 << d) + (1 << (d - 1))
        bound = math.sqrt(4.0 * pairs * partners + (1 << (2 * d)))
    if not math.isfinite(bound):
        raise DomainError(f"the counting bound at d = {d} exceeds a double's range")
    return bound


def normalized_violation_estimate(d: int) -> float:
    """Counting-model violation estimate 2^(-d/2) sqrt(3 * 2^d - 2).

    Strictly increasing in d with limit sqrt(3); equals sqrt(5/2) at d = 2.
    Defined for d >= 2 only.
    """
    _check_order(d)
    if d < 2:
        raise DomainError(f"the normalized estimate requires d >= 2, got {d}")
    return math.sqrt(3.0 - 2.0 ** (1 - d))
