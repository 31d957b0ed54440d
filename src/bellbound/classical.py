"""Exact classical (local-hidden-variable) maxima by sign enumeration.

The classical maximum of s^T A t over sign vectors reduces to enumerating s
and solving t in closed form: t_l = sign(sum_k A[k,l] s_k).  The first sign
is fixed to +1 by global sign symmetry, and the scan runs over whichever side
of the matrix is smaller.  It splits the free signs into a low and a high
half, builds each half's column sums by doubling, and adds every high row to
the whole low table, so no sign matrix is formed (see ``_kernels``).  The
witness is the first maximizer in Gray order.  A scan is refused when its
work, 2^(r-1) candidates times c column sums on the r x c scanned side,
exceeds that of a 28 x 28 scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionMismatchError, DomainError, SizeLimitError
from .matrices import CoefficientMatrix

WORK_LIMIT = 28 << 27  # sums in a 28 x 28 scan


@dataclass(frozen=True)
class SignAssignment:
    """A pair of +-1 vectors together with the bilinear value they attain."""

    s: np.ndarray
    t: np.ndarray
    value: float

    def __post_init__(self) -> None:
        for name in ("s", "t"):
            arr = np.array(getattr(self, name), dtype=np.int8)
            if arr.ndim != 1 or not np.all(np.abs(arr) == 1):
                raise DomainError(f"sign vector {name!r} must contain only +1 and -1")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ClassicalBoundResult:
    witness: SignAssignment

    @property
    def bound(self) -> float:
        return self.witness.value


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
    if not np.all(np.abs(sv) == 1.0):
        raise DomainError("sign vector s must contain only +1 and -1")
    if not np.all(np.abs(tv) == 1.0):
        raise DomainError("sign vector t must contain only +1 and -1")
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
    witness = SignAssignment(s=s.astype(np.int8), t=t.astype(np.int8), value=value)
    return ClassicalBoundResult(witness=witness)
