"""Exact classical (local-hidden-variable) maxima by sign enumeration.

The classical maximum of s^T A t over sign vectors reduces to enumerating s
and solving t in closed form: t_l = sign(sum_k A[k,l] s_k).  The first sign
is fixed to +1 by global sign symmetry, and the scan runs over whichever side
of the matrix is smaller.  It splits the free signs into a low and a high
half, builds each half's column sums by doubling, and pairs each high pattern
with the low table row by row, so no sign matrix is formed (``_kernels``).  The
witness is the first maximizer in Gray order.  A scan is refused when its
work, 2^(r-1) candidates times c column sums on the r x c scanned side,
exceeds that of a 28 x 28 scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionMismatchError, DomainError, SizeLimitError
from .matrices import CoefficientMatrix, _freeze

WORK_LIMIT = 28 << 27  # sums in a 28 x 28 scan


def _check_signs(name: str, signs) -> None:
    if np.ndim(signs) != 1 or not np.all(np.abs(signs) == 1):
        raise DomainError(f"sign vector {name!r} must contain only +1 and -1")


@dataclass(frozen=True)
class ClassicalBoundResult:
    """The exact classical bound with sign vectors s, t attaining it."""

    s: np.ndarray
    t: np.ndarray
    bound: float

    def __post_init__(self) -> None:
        _check_signs("s", self.s)
        _check_signs("t", self.t)
        _freeze(self, np.int8, "s", "t")


def evaluate_classical(
    matrix: CoefficientMatrix, s: np.ndarray, t: np.ndarray
) -> float:
    """Value of the bilinear form s^T A t for explicit sign vectors."""
    sv = np.asarray(s, dtype=np.float64)
    tv = np.asarray(t, dtype=np.float64)
    if sv.shape != (matrix.rows,):
        raise DimensionMismatchError(
            f"sign vector s has length {sv.size}, expected {matrix.rows}"
        )
    if tv.shape != (matrix.cols,):
        raise DimensionMismatchError(
            f"sign vector t has length {tv.size}, expected {matrix.cols}"
        )
    _check_signs("s", sv)
    _check_signs("t", tv)
    return float(sv @ matrix.entries @ tv)


def classical_bound(matrix: CoefficientMatrix) -> ClassicalBoundResult:
    """Exact maximum of s^T A t over sign vectors, with a witness.

    Raises SizeLimitError when the scan over the smaller side would compute
    more than WORK_LIMIT column sums.
    """
    flip = matrix.cols < matrix.rows
    A = matrix.entries.T if flip else matrix.entries
    r, c = A.shape
    candidates = 1 << (r - 1)
    if candidates * c > WORK_LIMIT:
        raise SizeLimitError(
            f"a {matrix.rows}x{matrix.cols} matrix needs {candidates} sign "
            f"candidates of {c} column sums each, more than the "
            f"{WORK_LIMIT}-sum enumeration limit"
        )
    _, best_idx = _kernels.gray_scan(A)

    s = _kernels.gray_signs(best_idx, r)
    col = s @ A
    t = np.where(col >= 0.0, 1.0, -1.0)
    value = float(col @ t)
    if flip:
        s, t = t, s
    return ClassicalBoundResult(s=s.astype(np.int8), t=t.astype(np.int8), bound=value)
