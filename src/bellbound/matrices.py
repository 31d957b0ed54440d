"""Coefficient matrices defining generalized CHSH correlation inequalities.

A coefficient matrix pairs n observables on the X site with m observables on
the Y site.  The built-in family consists of the 2x2 seed [[1,1],[1,-1]] and
its Kronecker tensor powers (Sylvester-Hadamard matrices), whose rows and
columns are pairwise orthogonal with all entries +-1.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import BinaryIO, Optional, Union

import numpy as np

from .errors import MatrixFormatError, SizeLimitError

MAX_TENSOR_POWER = 12

ByteSource = Union[bytes, bytearray, memoryview, BinaryIO]


@dataclass(frozen=True, eq=False)
class CoefficientMatrix:
    """Immutable real n x m matrix of inequality coefficients."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise MatrixFormatError("coefficient matrix must be two-dimensional")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise MatrixFormatError("coefficient matrix must have at least one row and column")
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise MatrixFormatError(
                f"non-finite entry at row {bad[0] + 1}, column {bad[1] + 1}"
            )
        with np.errstate(over="ignore"):  # every bound and weight is <= sum |A_kl|
            if not np.isfinite(np.abs(arr).sum() ** 2):
                raise MatrixFormatError("entries too large: (sum of |A_kl|)^2 overflows a double")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __repr__(self) -> str:
        return f"CoefficientMatrix({self.rows}x{self.cols})"


def chsh_matrix() -> CoefficientMatrix:
    """The 2x2 seed matrix [[1, 1], [1, -1]]."""
    return CoefficientMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]))


def tensor_power(d: int) -> CoefficientMatrix:
    """d-fold Kronecker power of the seed matrix: 2^d observables per site.

    Entries are all +-1 and the rows (and columns) are pairwise orthogonal,
    so R @ R.T = 2^d * I.
    """
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise SizeLimitError("tensor power order must be an integer")
    if d < 1 or d > MAX_TENSOR_POWER:
        raise SizeLimitError(
            f"tensor power order must be between 1 and {MAX_TENSOR_POWER}, got {d}"
        )
    seed = np.array([[1.0, 1.0], [1.0, -1.0]])
    out = seed
    for _ in range(d - 1):
        out = np.kron(out, seed)
    return CoefficientMatrix(out)


def _read_bytes(source: ByteSource) -> bytes:
    if hasattr(source, "read"):
        return source.read()
    return bytes(source)


def load_matrix(source: ByteSource) -> CoefficientMatrix:
    """Parse the JSON matrix document format.

    The document is an object {"rows": n, "cols": m, "entries": [[...], ...]}
    encoded as UTF-8 with no trailing data.  Round-trips save_matrix exactly.
    """
    raw = _read_bytes(source)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"matrix document is not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise MatrixFormatError("matrix document must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in doc:
            raise MatrixFormatError(f"matrix document is missing the {key!r} field")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    if not isinstance(rows, int) or isinstance(rows, bool) or rows < 1:
        raise MatrixFormatError("'rows' must be a positive integer")
    if not isinstance(cols, int) or isinstance(cols, bool) or cols < 1:
        raise MatrixFormatError("'cols' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != rows:
        raise MatrixFormatError(
            f"'entries' must contain exactly {rows} rows, found "
            f"{len(entries) if isinstance(entries, list) else 'a non-list value'}"
        )
    data = np.empty((rows, cols), dtype=np.float64)
    for i, row in enumerate(entries):
        if not isinstance(row, list):
            raise MatrixFormatError(f"row {i + 1} is not an array")
        if len(row) != cols:
            raise MatrixFormatError(
                f"ragged rows: row {i + 1} has {len(row)} entries, expected {cols}"
            )
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MatrixFormatError(
                    f"entry at row {i + 1}, column {j + 1} is not a number"
                )
            if not abs(value) <= sys.float_info.max:  # exact for ints such as 10**400
                raise MatrixFormatError(
                    f"entry at row {i + 1}, column {j + 1} is not finite"
                )
            data[i, j] = value
    return CoefficientMatrix(data)


def save_matrix(matrix: CoefficientMatrix, sink: BinaryIO) -> None:
    """Write the JSON matrix document format (UTF-8, exact float round trip)."""
    doc = {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [[float(v) for v in row] for row in matrix.entries],
    }
    sink.write(json.dumps(doc).encode("utf-8"))


def detect_family(matrix: CoefficientMatrix) -> Optional[tuple[str, int]]:
    """Recognize built-in matrices: ("chsh", 1) or ("tensor", d), else None."""
    n, m = matrix.rows, matrix.cols
    if n != m or n < 2:
        return None
    d = n.bit_length() - 1
    if (1 << d) != n or d > MAX_TENSOR_POWER:
        return None
    if not np.array_equal(matrix.entries, tensor_power(d).entries):
        return None
    return ("chsh", 1) if d == 1 else ("tensor", d)
