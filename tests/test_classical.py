import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellbound import (
    CoefficientMatrix,
    chsh_matrix,
    classical_bound,
    evaluate_classical,
    tensor_power,
)
from bellbound.errors import DimensionMismatchError, DomainError, SizeLimitError

# Classical maxima of the tensor-power family, frozen from the brute-force
# oracle below (d <= 3) and pinned analytically for d = 4: the d = 2 witness
# tensored with itself attains 64, and the singular-value bound
# sigma_max * sqrt(n) * sqrt(m) = 4 * 4 * 4 caps the quantum (hence the
# classical) value at 64.
TENSOR_CLASSICAL = {1: 2.0, 2: 8.0, 3: 20.0, 4: 64.0}


def brute_force_bound(entries):
    # Naive double loop over every sign pair; the independent oracle.
    n, m = entries.shape
    best = -np.inf
    for sbits in itertools.product((1.0, -1.0), repeat=n):
        row = np.array(sbits) @ entries
        for tbits in itertools.product((1.0, -1.0), repeat=m):
            best = max(best, abs(float(row @ np.array(tbits))))
    return best


def test_chsh_bound_is_two():
    result = classical_bound(chsh_matrix())
    assert result.bound == 2.0
    assert result.witness.value == 2.0


def test_tensor_square_bound_is_eight():
    result = classical_bound(tensor_power(2))
    assert result.bound == 8.0
    assert evaluate_classical(
        tensor_power(2), result.witness.s, result.witness.t
    ) == 8.0


def test_spec_style_witness_attains_eight():
    s = np.array([1, 1, 1, -1])
    assert evaluate_classical(tensor_power(2), s, s) == 8.0


@pytest.mark.parametrize("d", sorted(TENSOR_CLASSICAL))
def test_tensor_power_classical_values(d):
    assert classical_bound(tensor_power(d)).bound == TENSOR_CLASSICAL[d]


def test_all_ones_matrix():
    result = classical_bound(CoefficientMatrix(np.ones((2, 2))))
    assert result.bound == 4.0
    assert np.array_equal(result.witness.s, [1, 1])
    assert np.array_equal(result.witness.t, [1, 1])


def test_single_negative_entry():
    result = classical_bound(CoefficientMatrix(np.array([[-3.0]])))
    assert result.bound == 3.0
    assert result.witness.s[0] * result.witness.t[0] == -1


def test_zero_matrix_defaults_to_all_ones():
    result = classical_bound(CoefficientMatrix(np.zeros((3, 4))))
    assert result.bound == 0.0
    assert np.all(result.witness.s == 1)
    assert np.all(result.witness.t == 1)


def test_witness_value_recomputes():
    rng = np.random.default_rng(7)
    matrix = CoefficientMatrix(rng.standard_normal((5, 6)))
    result = classical_bound(matrix)
    recomputed = evaluate_classical(matrix, result.witness.s, result.witness.t)
    assert result.bound == pytest.approx(recomputed, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 9))
    matrix = CoefficientMatrix(rng.standard_normal((n, m)))
    assert classical_bound(matrix).bound == pytest.approx(
        brute_force_bound(matrix.entries), rel=1e-12
    )


@pytest.mark.parametrize("seed", range(6))
def test_transpose_agreement(seed):
    rng = np.random.default_rng(100 + seed)
    matrix = CoefficientMatrix(rng.standard_normal((7, 10)))
    direct = classical_bound(matrix).bound
    flipped = classical_bound(matrix.transposed()).bound
    assert direct == pytest.approx(flipped, rel=1e-12)


@given(st.floats(-5, 5, allow_nan=False).filter(lambda c: c != 0.0))
def test_scaling_equivariance(c):
    matrix = CoefficientMatrix(np.array([[1.0, -2.0], [0.5, 3.0]]))
    base = classical_bound(matrix).bound
    scaled = classical_bound(matrix.scaled(c)).bound
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


def first_gray_order_maximizer(entries):
    # Plain loop over the scan side in Gray order: s[0] = +1 and candidate k
    # sets s[j+1] = -1 for each bit j of k ^ (k >> 1).  Keeps the first
    # candidate whose value beats every earlier one.
    n = entries.shape[0]
    best, best_s = -1.0, None
    for k in range(2 ** (n - 1)):
        g = k ^ (k >> 1)
        s = np.array([1.0] + [-1.0 if (g >> j) & 1 else 1.0 for j in range(n - 1)])
        value = float(np.abs(s @ entries).sum())
        if value > best:
            best, best_s = value, s
    return best_s, np.where(best_s @ entries >= 0.0, 1.0, -1.0)


def test_witness_is_first_gray_order_maximizer():
    # Small integer entries make ties between sign vectors common, so the
    # witness pins the tie-break, not just the bound.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, 10))
        entries = rng.integers(-3, 4, (n, m)).astype(np.float64)
        witness = classical_bound(CoefficientMatrix(entries)).witness
        if m < n:  # the scan runs over the smaller side
            t, s = first_gray_order_maximizer(entries.T)
        else:
            s, t = first_gray_order_maximizer(entries)
        assert np.array_equal(witness.s, s)
        assert np.array_equal(witness.t, t)


def test_size_guard_advises_transposition():
    wide = CoefficientMatrix(np.ones((29, 2)))
    with pytest.raises(SizeLimitError, match="transpose"):
        classical_bound(wide)
    square = CoefficientMatrix(np.ones((29, 29)))
    with pytest.raises(SizeLimitError) as info:
        classical_bound(square)
    assert "transpose" not in str(info.value)


def test_wide_matrix_enumerates_columns():
    # 2 x 20 stays fast because the scan runs over the smaller side.
    rng = np.random.default_rng(3)
    matrix = CoefficientMatrix(rng.standard_normal((2, 20)))
    result = classical_bound(matrix)
    assert result.bound == pytest.approx(
        classical_bound(matrix.transposed()).bound, rel=1e-12
    )
    assert result.witness.s.size == 2
    assert result.witness.t.size == 20


def test_single_row_bound_is_abs_sum():
    matrix = CoefficientMatrix(np.array([[1.5, -2.0, 0.25]]))
    assert classical_bound(matrix).bound == pytest.approx(3.75)


def test_evaluate_classical_examples():
    assert evaluate_classical(chsh_matrix(), [1, 1], [1, 1]) == 2.0
    s = np.array([1, 1, 1, -1])
    assert evaluate_classical(tensor_power(2), s, s) == 8.0


@given(
    st.lists(st.sampled_from([1, -1]), min_size=2, max_size=2),
    st.lists(st.sampled_from([1, -1]), min_size=2, max_size=2),
)
def test_global_sign_flip_invariance(s, t):
    matrix = chsh_matrix()
    forward = evaluate_classical(matrix, s, t)
    flipped = evaluate_classical(matrix, [-v for v in s], [-v for v in t])
    assert forward == flipped


def test_evaluate_classical_errors():
    with pytest.raises(DimensionMismatchError):
        evaluate_classical(chsh_matrix(), [1, 1, 1], [1, 1])
    with pytest.raises(DimensionMismatchError):
        evaluate_classical(chsh_matrix(), [1, 1], [1])
    with pytest.raises(DomainError):
        evaluate_classical(chsh_matrix(), [1, 0], [1, 1])
    with pytest.raises(DomainError):
        evaluate_classical(chsh_matrix(), [1, 1], [1, 0.5])
