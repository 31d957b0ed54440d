import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellbound import (
    ClassicalBoundResult,
    CoefficientMatrix,
    chsh_matrix,
    classical_bound,
    evaluate_classical,
    tensor_power,
)
from bellbound import _kernels
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
    assert result.bound == 2.0


def test_tensor_square_bound_is_eight():
    result = classical_bound(tensor_power(2))
    assert result.bound == 8.0
    assert evaluate_classical(
        tensor_power(2), result.s, result.t
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
    assert np.array_equal(result.s, [1, 1])
    assert np.array_equal(result.t, [1, 1])


def test_single_negative_entry():
    result = classical_bound(CoefficientMatrix(np.array([[-3.0]])))
    assert result.bound == 3.0
    assert result.s[0] * result.t[0] == -1


def test_zero_matrix_defaults_to_all_ones():
    result = classical_bound(CoefficientMatrix(np.zeros((3, 4))))
    assert result.bound == 0.0
    assert np.all(result.s == 1)
    assert np.all(result.t == 1)


def test_witness_value_recomputes():
    rng = np.random.default_rng(7)
    matrix = CoefficientMatrix(rng.standard_normal((5, 6)))
    result = classical_bound(matrix)
    recomputed = evaluate_classical(matrix, result.s, result.t)
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
    flipped = classical_bound(CoefficientMatrix(matrix.entries.T)).bound
    assert direct == pytest.approx(flipped, rel=1e-12)


@given(st.floats(-5, 5, allow_nan=False).filter(lambda c: c != 0.0))
def test_scaling_equivariance(c):
    matrix = CoefficientMatrix(np.array([[1.0, -2.0], [0.5, 3.0]]))
    base = classical_bound(matrix).bound
    scaled = classical_bound(CoefficientMatrix(matrix.entries * c)).bound
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
        witness = classical_bound(CoefficientMatrix(entries))
        if m < n:  # the scan runs over the smaller side
            t, s = first_gray_order_maximizer(entries.T)
        else:
            s, t = first_gray_order_maximizer(entries)
        assert np.array_equal(witness.s, s)
        assert np.array_equal(witness.t, t)


@pytest.mark.parametrize("block", ["default", "balanced"])
def test_split_scan_witness_is_first_gray_order_maximizer(block, monkeypatch):
    # 12 to 17 scanned rows split into several high blocks; with a block
    # size of 1 the split is the balanced one, k = ceil((n - 1) / 2), so the
    # first maximizer must be found across blocks read in both directions.
    # Two zero rows make every maximizer one of at least four tied ones.
    if block == "balanced":
        monkeypatch.setattr(_kernels, "_SCAN_BLOCK", 1)
    rng = np.random.default_rng(12)
    for n in range(12, 18):
        entries = rng.integers(-2, 3, (n, n + 3)).astype(np.float64)
        entries[rng.choice(np.arange(1, n), 2, replace=False)] = 0.0
        witness = classical_bound(CoefficientMatrix(entries))
        s, t = first_gray_order_maximizer(entries)
        assert np.array_equal(witness.s, s)
        assert np.array_equal(witness.t, t)


def test_size_guard_counts_the_scanned_side():
    # 29 x 2 scans 2 columns, so it is cheap and equals its transpose.
    wide = CoefficientMatrix(np.arange(58.0).reshape(29, 2) % 7 - 3)
    assert classical_bound(wide).bound == classical_bound(CoefficientMatrix(wide.entries.T)).bound
    # 28 x 29 is one column past the largest allowed scan, 28 x 28.
    with pytest.raises(SizeLimitError, match=str(2**27)):
        classical_bound(CoefficientMatrix(np.ones((28, 29))))
    # A 28-row scan over 100 000 columns would run for hours.
    with pytest.raises(SizeLimitError, match=str(2**27)):
        classical_bound(CoefficientMatrix(np.ones((100_000, 28))))
    with pytest.raises(SizeLimitError, match=str(2**28)):
        classical_bound(CoefficientMatrix(np.ones((29, 29))))


def test_wide_matrix_enumerates_columns():
    # 2 x 20 stays fast because the scan runs over the smaller side.
    rng = np.random.default_rng(3)
    matrix = CoefficientMatrix(rng.standard_normal((2, 20)))
    result = classical_bound(matrix)
    assert result.bound == pytest.approx(
        classical_bound(CoefficientMatrix(matrix.entries.T)).bound, rel=1e-12
    )
    assert result.s.size == 2
    assert result.t.size == 20


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


@pytest.mark.parametrize("s", [[1.5, -1], [1, 0], [[1, -1]]])
def test_result_refuses_anything_but_a_sign_vector(s):
    # [1.5, -1] used to be cast to int8 [1, -1] before the check, and passed.
    with pytest.raises(DomainError, match="must contain only"):
        ClassicalBoundResult(s=s, t=[1], bound=0.0)


def test_result_signs_are_read_only_int8():
    result = classical_bound(chsh_matrix())
    for signs in (result.s, result.t):
        assert signs.dtype == np.int8 and not signs.flags.writeable
