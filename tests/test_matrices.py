import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellbound import (
    CoefficientMatrix,
    chsh_matrix,
    load_certificate,
    load_matrix,
    record_from_json,
    save_matrix,
    tensor_order,
    tensor_power,
)
from bellbound import quantum
from bellbound.errors import MatrixFormatError, SizeLimitError
from bellbound.matrices import MAX_TENSOR_POWER
from tests.test_search import record_line


def matrix_to_bytes(matrix):
    buf = io.BytesIO()
    save_matrix(matrix, buf)
    return buf.getvalue()


def hadamard_bitwise(d):
    # Independent construction: entry (i, j) = (-1)^popcount(i & j).
    n = 2 ** d
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = -1.0 if bin(i & j).count("1") % 2 else 1.0
    return out


def test_chsh_matrix_entries():
    m = chsh_matrix()
    assert np.array_equal(m.entries, [[1.0, 1.0], [1.0, -1.0]])
    assert m.entries[1, 1] == -1.0
    assert float(m.entries[0] @ m.entries[1]) == 0.0


def test_tensor_power_first_orders():
    assert np.array_equal(tensor_power(1).entries, chsh_matrix().entries)
    expected_d2 = [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ]
    assert np.array_equal(tensor_power(2).entries, expected_d2)


def test_tensor_power_d3_row_sums():
    sums = tensor_power(3).entries.sum(axis=1)
    assert sums[0] == 8.0
    assert np.array_equal(sums[1:], np.zeros(7))


@pytest.mark.parametrize("d", range(1, 11))
def test_tensor_power_orthogonality(d):
    r = tensor_power(d).entries
    assert np.all(np.abs(r) == 1.0)
    assert np.array_equal(r @ r.T, (2.0 ** d) * np.eye(2 ** d))


@pytest.mark.parametrize("d", range(1, 7))
def test_tensor_power_nesting(d):
    small = tensor_power(d).entries
    big = tensor_power(d + 1).entries
    assert np.array_equal(big[: 2 ** d, : 2 ** d], small)


@pytest.mark.parametrize("d", range(1, 9))
def test_tensor_power_matches_bitwise_construction(d):
    assert np.array_equal(tensor_power(d).entries, hadamard_bitwise(d))


@pytest.mark.parametrize("d", [0, -1, 11, 12, 13, 100])
def test_tensor_power_size_guard(d):
    with pytest.raises(SizeLimitError):
        tensor_power(d)


def test_tensor_power_guard_is_the_largest_order_quantum_accepts():
    # tensor_power(10) is 1024 x 1024, whose certificate is exactly at the
    # quantum limit; order 11 is one no command accepts.
    assert MAX_TENSOR_POWER == 10
    assert (2 * 2**10) ** 2 == quantum.CERTIFICATE_LIMIT
    assert tensor_power(10).entries.shape == (1024, 1024)
    with pytest.raises(SizeLimitError, match="between 1 and 10, got 11"):
        tensor_power(11)


def test_round_trip_chsh():
    data = matrix_to_bytes(chsh_matrix())
    again = load_matrix(data)
    assert np.array_equal(again.entries, chsh_matrix().entries)


def test_round_trip_single_float():
    m = CoefficientMatrix(np.array([[3.5]]))
    assert np.array_equal(load_matrix(matrix_to_bytes(m)).entries, [[3.5]])


def test_save_matrix_document_fields():
    doc = json.loads(matrix_to_bytes(chsh_matrix()))
    assert doc["rows"] == 2
    assert doc["cols"] == 2
    assert doc["entries"] == [[1.0, 1.0], [1.0, -1.0]]
    doc4 = json.loads(matrix_to_bytes(tensor_power(2)))
    assert doc4["entries"] == [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ]


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
    )
)
def test_round_trip_is_exact(entries):
    m = CoefficientMatrix(entries)
    again = load_matrix(matrix_to_bytes(m))
    assert np.array_equal(again.entries, m.entries)


def test_load_rejects_ragged_rows():
    doc = b'{"rows": 2, "cols": 2, "entries": [[1, 2], [1, 2, 3]]}'
    with pytest.raises(MatrixFormatError, match="row 2"):
        load_matrix(doc)


def test_load_rejects_non_numeric():
    doc = b'{"rows": 1, "cols": 2, "entries": [[1, "x"]]}'
    with pytest.raises(MatrixFormatError, match="row 1, column 2"):
        load_matrix(doc)


def test_load_rejects_bad_json():
    with pytest.raises(MatrixFormatError, match="invalid JSON"):
        load_matrix(b'{"rows": 1, "cols": 1, "entries": [[1]]} trailing')
    with pytest.raises(MatrixFormatError):
        load_matrix(b"not json at all")


def test_load_rejects_non_finite():
    doc = b'{"rows": 1, "cols": 1, "entries": [[Infinity]]}'
    with pytest.raises(MatrixFormatError):
        load_matrix(doc)


def test_load_rejects_missing_fields():
    with pytest.raises(MatrixFormatError, match="entries"):
        load_matrix(b'{"rows": 1, "cols": 1}')
    with pytest.raises(MatrixFormatError, match="rows"):
        load_matrix(b'{"rows": 0, "cols": 1, "entries": []}')


def test_load_accepts_file_like():
    buf = io.BytesIO(matrix_to_bytes(tensor_power(2)))
    assert load_matrix(buf).rows == 4


def test_entries_are_immutable():
    m = chsh_matrix()
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_constructor_rejects_bad_shapes():
    with pytest.raises(MatrixFormatError):
        CoefficientMatrix(np.zeros((0, 2)))
    with pytest.raises(MatrixFormatError):
        CoefficientMatrix(np.array([1.0, 2.0]))
    with pytest.raises(MatrixFormatError, match="row 1, column 2"):
        CoefficientMatrix(np.array([[1.0, np.nan]]))


def test_tensor_order():
    assert tensor_order(chsh_matrix()) == 1
    assert tensor_order(tensor_power(2)) == 2
    assert tensor_order(tensor_power(3)) == 3
    assert tensor_order(CoefficientMatrix(np.ones((2, 2)))) is None
    assert tensor_order(CoefficientMatrix(np.ones((3, 3)))) is None
    assert tensor_order(CoefficientMatrix(np.ones((2, 4)))) is None


def test_load_rejects_integer_beyond_double_range():
    # Used to exit 1 with OverflowError from math.isfinite.
    doc = b'{"rows": 1, "cols": 1, "entries": [[1' + b"0" * 400 + b"]]}"
    with pytest.raises(MatrixFormatError, match="row 1, column 1"):
        load_matrix(doc)


def test_constructor_rejects_sums_that_overflow():
    # Every entry is finite, but the bounds built from their sum are not.
    with pytest.raises(MatrixFormatError, match="too large"):
        CoefficientMatrix(np.array([[1e308, 1e308]]))
    with pytest.raises(MatrixFormatError, match="too large"):
        CoefficientMatrix(np.full((2, 2), 1e154))
    assert CoefficientMatrix(np.full((2, 2), 1e153)).rows == 2


# Raw JSON text that is not a finite JSON number.  Each loader refused some
# of these with its own message, and a ledger line loaded "1" and true.
NOT_FINITE_NUMBERS = {
    "string": '"1"', "true": "true", "nan": "NaN", "infinity": "Infinity",
    "1e400": "1e400", "10**400": "1" + "0" * 400,
}


@pytest.mark.parametrize("value", NOT_FINITE_NUMBERS.values(), ids=NOT_FINITE_NUMBERS.keys())
def test_every_loader_refuses_the_same_values(value):
    documents = [
        (load_matrix, f'{{"rows": 1, "cols": 2, "entries": [[1, {value}]]}}'.encode()),
        (load_certificate,
         f'{{"u": [1, {value}], "v": [1], "upper_bound": 1.5, "min_eigenvalue": 0}}'.encode()),
        (record_from_json, record_line(entries=f"[[1,{value}],[1,-1]]")),
    ]
    for load, document in documents:
        with pytest.raises(MatrixFormatError, match="finite JSON numbers"):
            load(document)
