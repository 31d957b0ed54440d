"""Coefficient matrices defining generalized CHSH correlation inequalities.

A coefficient matrix pairs n observables on the X site with m observables on
the Y site.  The built-in family consists of the 2x2 seed [[1,1],[1,-1]] and
its Kronecker tensor powers (Sylvester-Hadamard matrices), whose rows and
columns are pairwise orthogonal with all entries +-1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Callable, Optional, TypeVar, Union

import numpy as np

from .errors import MatrixFormatError, SizeLimitError

# No command accepts a larger matrix (quantum refuses d >= 11, whose
# certificate is 4096 x 4096), yet generate --d 12 peaked near 1 GB of RSS
# and wrote a 90 MB file.
MAX_TENSOR_POWER = 10

ByteSource = Union[bytes, bytearray, memoryview, BinaryIO]
T = TypeVar("T")


def _freeze(result, dtype, *names: str) -> None:
    """Store each named field of a frozen dataclass as a read-only dtype copy."""
    for name in names:
        arr = np.array(getattr(result, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(result, name, arr)


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


def _read_document(source: Union[str, ByteSource], kind: str, parse: Callable[[dict], T]) -> T:
    """parse(doc) for the JSON object doc in source's UTF-8 text.  Reads matrix
    files, certificates and ledger lines: bad UTF-8 or JSON, a non-object, a
    missing field or a value parse refuses raises MatrixFormatError naming kind."""
    try:
        raw = source.read() if hasattr(source, "read") else source
        doc = json.loads(raw if isinstance(raw, str) else str(raw, "utf-8"))
        if not isinstance(doc, dict):
            raise MatrixFormatError("the document is not a JSON object")
        return parse(doc)
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"invalid {kind}: {exc}") from None
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise MatrixFormatError(f"invalid {kind}: {type(exc).__name__}: {exc}") from None


def _finite_numbers(values, what: str) -> np.ndarray:
    """values as a float array when it is a list of finite JSON numbers:
    ints or floats, never bools or strings."""
    try:
        if type(values) is list and set(map(type, values)) <= {int, float}:
            array = np.array(values, dtype=np.float64)
            if np.isfinite(array).all():
                return array
    except OverflowError:  # an int past a double's range, such as 10**400
        pass
    raise MatrixFormatError(f"{what} must be finite JSON numbers")


def _integer(value, what: str, positive: bool = False) -> int:
    """value when it is a JSON integer (never a bool or a float), >= 1 if positive."""
    if type(value) is not int or (positive and value < 1):
        raise MatrixFormatError(f"{what} must be a {'positive ' * positive}JSON integer")
    return value


def _entries(entries, rows: int, cols: int) -> np.ndarray:
    """The rows x cols array of a JSON "entries" list of lists of finite JSON
    numbers; on a fault, MatrixFormatError names the first bad row or entry."""
    if type(entries) is not list or len(entries) != rows:
        raise MatrixFormatError(f"'entries' must be a list of length {rows}")
    for i, row in enumerate(entries, 1):
        if type(row) is not list or len(row) != cols:
            raise MatrixFormatError(f"row {i} must be a list of length {cols}")
    flat = list(chain.from_iterable(entries))
    try:
        return _finite_numbers(flat, "entries").reshape(rows, cols)
    except MatrixFormatError:
        for k, value in enumerate(flat):
            _finite_numbers([value], f"entries (row {k // cols + 1}, column {k % cols + 1})")
        raise


def _matrix(doc: dict) -> CoefficientMatrix:
    rows, cols = (_integer(doc[key], repr(key), positive=True) for key in ("rows", "cols"))
    return CoefficientMatrix(_entries(doc["entries"], rows, cols))


def load_matrix(source: ByteSource) -> CoefficientMatrix:
    """Parse the JSON matrix document format.

    The document is an object {"rows": n, "cols": m, "entries": [[...], ...]}
    encoded as UTF-8 with no trailing data.  Round-trips save_matrix exactly.
    """
    return _read_document(source, "JSON matrix document", _matrix)


def save_matrix(matrix: CoefficientMatrix, sink: BinaryIO) -> None:
    """Write the JSON matrix document format (UTF-8, exact float round trip)."""
    doc = {"rows": matrix.rows, "cols": matrix.cols, "entries": matrix.entries.tolist()}
    sink.write(json.dumps(doc).encode("utf-8"))


def tensor_order(matrix: CoefficientMatrix) -> Optional[int]:
    """The order d of a built-in matrix tensor_power(d), 1 for CHSH, else None."""
    n = matrix.rows
    d = n.bit_length() - 1
    if matrix.cols != n or n != 1 << d or not 1 <= d <= MAX_TENSOR_POWER:
        return None
    return d if np.array_equal(matrix.entries, tensor_power(d).entries) else None
