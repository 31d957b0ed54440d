import json
import math
from math import comb

import numpy as np
import pytest

from bellbound import (
    CoefficientMatrix,
    chsh_matrix,
    closed_form_bound,
    norm_estimate,
    normalized_violation_estimate,
    quantum_bound,
    save_matrix,
    square_bell_operator,
    tensor_power,
)
from bellbound.cli import run
from bellbound.errors import DomainError, SizeLimitError
from tests.expansion_oracle import numeric_check

# Full term set of the squared four-observable Bell operator, 0-based indices,
# canonical pairs (first < second), commutator antisymmetry absorbed into the
# sign.  Keys are (x_pair, y_pair), values the coefficients.
R4_COMM_TERMS = {
    ((0, 1), (0, 1)): -1.0, ((0, 1), (0, 3)): -1.0,
    ((0, 1), (1, 2)): +1.0, ((0, 1), (2, 3)): -1.0,
    ((0, 2), (0, 2)): -1.0, ((0, 2), (0, 3)): -1.0,
    ((0, 2), (1, 2)): -1.0, ((0, 2), (1, 3)): -1.0,
    ((0, 3), (0, 1)): -1.0, ((0, 3), (0, 2)): -1.0,
    ((0, 3), (1, 3)): +1.0, ((0, 3), (2, 3)): +1.0,
    ((1, 2), (0, 1)): +1.0, ((1, 2), (0, 2)): -1.0,
    ((1, 2), (1, 3)): +1.0, ((1, 2), (2, 3)): -1.0,
    ((1, 3), (0, 2)): -1.0, ((1, 3), (0, 3)): +1.0,
    ((1, 3), (1, 2)): +1.0, ((1, 3), (1, 3)): -1.0,
    ((2, 3), (0, 1)): -1.0, ((2, 3), (0, 3)): +1.0,
    ((2, 3), (1, 2)): -1.0, ((2, 3), (2, 3)): -1.0,
}
R4_ACOMM_TERMS = {
    ((0, 1), (0, 2)): +1.0, ((0, 1), (1, 3)): -1.0,
    ((0, 2), (0, 1)): +1.0, ((0, 2), (2, 3)): -1.0,
    ((0, 3), (0, 3)): +1.0, ((0, 3), (1, 2)): -1.0,
    ((1, 2), (1, 2)): +1.0, ((1, 2), (0, 3)): -1.0,
    ((1, 3), (2, 3)): +1.0, ((1, 3), (0, 1)): -1.0,
    ((2, 3), (1, 3)): +1.0, ((2, 3), (0, 2)): -1.0,
}


def as_dict(terms):
    """{(x_pair, y_pair): c} of a report's [[i, k], [j, l], c] term list."""
    return {(tuple(xp), tuple(yp)): c for xp, yp, c in terms}


def test_chsh_square_is_identity_minus_one_commutator():
    assert square_bell_operator(chsh_matrix()).to_json_dict() == {
        "identity": 4.0,
        "commutators": [[[0, 1], [0, 1], -1.0]],
        "anticommutators": [],
        "residual": [],
    }


def test_tensor_square_term_set():
    doc = square_bell_operator(tensor_power(2)).to_json_dict()
    assert doc["identity"] == 16.0
    assert doc["residual"] == []
    assert len(doc["commutators"]) == 24
    assert len(doc["anticommutators"]) == 12
    assert as_dict(doc["commutators"]) == R4_COMM_TERMS
    assert as_dict(doc["anticommutators"]) == R4_ACOMM_TERMS


def test_commuting_variant_keeps_only_anticommutators():
    doc = square_bell_operator(tensor_power(2)).assuming_commuting().to_json_dict()
    assert doc["identity"] == 16.0
    assert doc["commutators"] == []
    assert len(doc["anticommutators"]) == 12
    assert as_dict(doc["anticommutators"]) == R4_ACOMM_TERMS


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tensor_power_expansion_structure(d):
    # Orthogonal rows and columns leave no single-site residuals; every
    # (X-pair, Y-pair) combination contributes exactly one unit term, with
    # 2^(2d-2) commutator partners per pair.
    n = 1 << d
    doc = square_bell_operator(tensor_power(d)).to_json_dict()
    assert doc["residual"] == []
    assert doc["identity"] == float(n * n)
    pairs = comb(n, 2)
    comm_per_pair = 1 << (2 * d - 2)
    assert sum(abs(c) for _, _, c in doc["commutators"]) == pairs * comm_per_pair
    acomm_per_pair = pairs - comm_per_pair
    assert sum(abs(c) for _, _, c in doc["anticommutators"]) == pairs * acomm_per_pair
    assert all(abs(c) == 1.0 for _, _, c in doc["commutators"])
    assert all(abs(c) == 1.0 for _, _, c in doc["anticommutators"])


def test_non_orthogonal_matrix_keeps_residuals():
    assert square_bell_operator(CoefficientMatrix(np.ones((2, 2)))).to_json_dict() == {
        "identity": 4.0,
        "commutators": [],
        "anticommutators": [[[0, 1], [0, 1], 1.0]],
        "residual": [["x", [0, 1], 2.0], ["y", [0, 1], 2.0]],
    }


def test_square_guards():
    with pytest.raises(DomainError, match="square"):
        square_bell_operator(CoefficientMatrix(np.ones((2, 3))))
    with pytest.raises(DomainError, match="entry"):
        square_bell_operator(CoefficientMatrix(np.array([[0.5, 1.0], [1.0, 1.0]])))
    with pytest.raises(SizeLimitError):
        square_bell_operator(CoefficientMatrix(np.ones((33, 33))))
    assert square_bell_operator(tensor_power(5)).acomm.any()


@pytest.mark.parametrize("seed", range(20))
def test_numeric_check_chsh(seed):
    assert numeric_check(chsh_matrix(), dim=2, seed=seed) <= 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_numeric_check_tensor_square(seed):
    assert numeric_check(tensor_power(2), dim=4, seed=seed) <= 1e-9


def test_numeric_check_zero_matrix():
    assert numeric_check(CoefficientMatrix(np.zeros((2, 2))), dim=2, seed=0) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_numeric_check_with_residuals_and_zeros(seed):
    ones = CoefficientMatrix(np.ones((2, 2)))
    assert numeric_check(ones, dim=3, seed=seed) <= 1e-10
    sparse = CoefficientMatrix(np.array([[1.0, 0.0, -1.0],
                                         [0.0, -1.0, 1.0],
                                         [1.0, 1.0, 0.0]]))
    assert numeric_check(sparse, dim=2, seed=seed) <= 1e-10


def test_norm_estimate_chsh():
    expr = square_bell_operator(chsh_matrix())
    assert norm_estimate(expr) == math.sqrt(8.0)
    assert norm_estimate(expr.assuming_commuting()) == 2.0


def test_norm_estimate_tensor_square():
    expr = square_bell_operator(tensor_power(2))
    assert norm_estimate(expr.assuming_commuting()) == 8.0
    general = norm_estimate(expr)
    assert general == math.sqrt(160.0)
    assert general == pytest.approx(4.0 * math.sqrt(10.0), abs=1e-12)


def test_norm_estimate_counts_residuals():
    expr = square_bell_operator(CoefficientMatrix(np.ones((2, 2))))
    # identity 4 + one anticommutator (4) + two residuals (2 * 2) = 16
    assert norm_estimate(expr) == 4.0


def report_norm_estimate(expr):
    """Reference norm estimate: left-to-right sums over the report's terms."""
    doc = expr.to_json_dict()
    total = doc["identity"]
    total += 4.0 * sum(abs(c) for _, _, c in doc["anticommutators"])
    total += 4.0 * sum(abs(c) for _, _, c in doc["commutators"])
    total += 2.0 * sum(abs(c) for _, _, c in doc["residual"])
    return math.sqrt(total)


@pytest.mark.parametrize(
    "matrix",
    [tensor_power(d) for d in range(1, 6)]
    + [
        CoefficientMatrix(np.random.default_rng(seed).integers(-1, 2, (n, n)))
        for seed, n in enumerate([2, 5, 9, 16, 32])
    ],
    ids=[f"tensor{d}" for d in range(1, 6)]
    + [f"random{n}" for n in (2, 5, 9, 16, 32)],
)
@pytest.mark.parametrize("commuting", [False, True])
def test_norm_estimate_from_arrays_equals_tuple_sums(matrix, commuting):
    # Coefficients are half-integers or integers, so both sums are exact.
    expr = square_bell_operator(matrix)
    if commuting:
        expr = expr.assuming_commuting()
        assert not expr.comm.any()
    assert norm_estimate(expr) == report_norm_estimate(expr)


def test_counting_bound_matches_expansion_at_d2():
    expr = square_bell_operator(tensor_power(2))
    commuting = norm_estimate(expr.assuming_commuting())
    assert closed_form_bound(2, commuting_sites=True) == commuting
    assert closed_form_bound(2, commuting_sites=False) == norm_estimate(expr)


def test_counting_bound_values():
    assert closed_form_bound(2, commuting_sites=True) == 8.0
    assert closed_form_bound(2, commuting_sites=False) == pytest.approx(
        4.0 * math.sqrt(10.0), abs=1e-12
    )
    assert closed_form_bound(3, commuting_sites=False) == pytest.approx(
        8.0 * math.sqrt(22.0), abs=1e-12
    )
    assert closed_form_bound(3, commuting_sites=True) == pytest.approx(
        2.0 ** 4.5, abs=1e-12
    )
    assert closed_form_bound(4, commuting_sites=True) == 64.0


def test_counting_bound_guards():
    with pytest.raises(DomainError):
        closed_form_bound(1, commuting_sites=True)
    with pytest.raises(DomainError):
        closed_form_bound(0)
    with pytest.raises(DomainError):
        closed_form_bound(-2)
    with pytest.raises(DomainError):
        closed_form_bound(1, commuting_sites=False)


@pytest.mark.parametrize("commuting, last", [(False, 340), (True, 341)])
def test_counting_bound_refuses_orders_past_a_double(commuting, last):
    # The next order used to return inf, d = 512 raised OverflowError, and
    # d = 10**9 built a 2*10^9-bit integer before either.
    assert math.isfinite(closed_form_bound(last, commuting_sites=commuting))
    for d in (last + 1, 512, 10**9):
        with pytest.raises(DomainError, match="range"):
            closed_form_bound(d, commuting_sites=commuting)


def test_counting_bound_takes_numpy_orders():
    # 1 << np.int64(d) wraps around: d = 40 used to raise "math domain error".
    assert closed_form_bound(np.int64(40)) == closed_form_bound(40)


def test_normalized_estimate_values():
    assert normalized_violation_estimate(2) == pytest.approx(
        math.sqrt(2.5), abs=1e-12
    )
    assert abs(normalized_violation_estimate(20) - math.sqrt(3.0)) <= 1e-3


def test_normalized_estimate_monotone_and_bounded():
    values = [normalized_violation_estimate(d) for d in range(2, 31)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < math.sqrt(3.0) for v in values)


def test_normalized_estimate_guards():
    with pytest.raises(DomainError):
        normalized_violation_estimate(1)
    with pytest.raises(DomainError):
        normalized_violation_estimate(0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_norm_estimate_dominates_quantum_value(d):
    matrix = tensor_power(d)
    estimate = norm_estimate(square_bell_operator(matrix))
    quantum = quantum_bound(matrix, seed=0).primal.objective
    assert estimate >= quantum - 1e-6


def loop_expansion(A):
    """Reference B^2 expansion: one pass over every (i<k, j<l) quadruple."""
    n = A.shape[0]
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    comm, acomm = [], []
    for i, k in pairs:
        for j, l in pairs:
            forward = A[i, j] * A[k, l]
            crossed = A[i, l] * A[k, j]
            if forward != crossed:
                comm.append([[i, k], [j, l], 0.5 * float(forward - crossed)])
            if forward != -crossed:
                acomm.append([[i, k], [j, l], 0.5 * float(forward + crossed)])
    residual = [
        [site, [i, k], float(dots[i, k])]
        for site, dots in (("x", A @ A.T), ("y", A.T @ A))
        for i, k in pairs
        if dots[i, k] != 0.0
    ]
    return {
        "identity": float((A * A).sum()),
        "commutators": comm,
        "anticommutators": acomm,
        "residual": residual,
    }


@pytest.mark.parametrize(
    "matrix",
    [tensor_power(3)]
    + [
        CoefficientMatrix(np.random.default_rng(seed).integers(-1, 2, (9, 9)))
        for seed in range(3)
    ],
    ids=["tensor3", "random0", "random1", "random2"],
)
def test_expansion_matches_reference_term_for_term(matrix):
    # The report bytes follow this order: x pairs (i, k) major, then y pairs
    # (j, l), each in row-major canonical order; residuals x before y.
    doc = square_bell_operator(matrix).to_json_dict()
    assert doc == loop_expansion(matrix.entries)
    assert json.dumps(doc) == json.dumps(loop_expansion(matrix.entries))


@pytest.mark.parametrize(
    "matrix",
    [tensor_power(3), CoefficientMatrix(np.random.default_rng(9).integers(-1, 2, (9, 9)))],
    ids=["tensor3", "random9"],
)
@pytest.mark.parametrize("commuting", [False, True])
def test_expand_report_matches_reference(matrix, commuting, tmp_path, capsys):
    path = tmp_path / "m.json"
    with open(path, "wb") as handle:
        save_matrix(matrix, handle)
    argv = ["expand", "--matrix", str(path)] + (["--commuting"] if commuting else [])
    assert run(argv) == 0
    expression = json.loads(capsys.readouterr().out)["results"]["expression"]
    expected = loop_expansion(matrix.entries)
    if commuting:
        expected["commutators"] = []
    assert expression == expected


def nested_list_json(expr):
    """Reference encoder: nested [[i,k],[j,l],c] lists through json.dumps."""
    pairs = [[i, k] for i, k in zip(*(index.tolist() for index in expr.pairs))]

    def terms(coeffs, rows):
        p, q = np.nonzero(coeffs)
        return [[rows[i], pairs[j], c] for i, j, c in
                zip(p.tolist(), q.tolist(), coeffs[p, q].tolist())]

    doc = {
        "identity": expr.identity_coeff,
        "commutators": terms(expr.comm, pairs),
        "anticommutators": terms(expr.acomm, pairs),
        "residual": terms(expr.residual, ["x", "y"]),
    }
    return json.dumps(doc, separators=(",", ":"))


@pytest.mark.parametrize(
    "matrix",
    [tensor_power(d) for d in range(1, 6)]
    + [
        CoefficientMatrix(np.random.default_rng(seed).integers(-1, 2, (n, n)))
        for seed, n in enumerate([1, 2, 3, 7, 16, 32])
    ]
    + [CoefficientMatrix(np.zeros((3, 3))), CoefficientMatrix(np.eye(4))],
    ids=[f"tensor{d}" for d in range(1, 6)]
    + [f"random{n}" for n in (1, 2, 3, 7, 16, 32)]
    + ["zero3", "eye4"],
)
@pytest.mark.parametrize("commuting", [False, True])
def test_to_json_is_byte_identical_to_nested_list_encoder(matrix, commuting):
    expr = square_bell_operator(matrix)
    if commuting:
        expr = expr.assuming_commuting()
    assert expr.to_json() == nested_list_json(expr)


def test_to_json_covers_every_term_kind():
    # The random and zero cases above reach residuals, half-integer
    # coefficients and empty lists; pin that they do.
    random7 = square_bell_operator(
        CoefficientMatrix(np.random.default_rng(3).integers(-1, 2, (7, 7)))
    ).to_json_dict()
    assert random7["residual"]
    assert 0.5 in {abs(c) for _, _, c in random7["anticommutators"]}
    zero = json.loads(square_bell_operator(CoefficientMatrix(np.zeros((3, 3)))).to_json())
    assert zero == {"identity": 0.0, "commutators": [], "anticommutators": [],
                    "residual": []}


def test_expression_json_dump():
    doc = square_bell_operator(chsh_matrix()).to_json_dict()
    assert doc["identity"] == 4.0
    assert doc["commutators"] == [[[0, 1], [0, 1], -1.0]]
    assert doc["anticommutators"] == []
    assert doc["residual"] == []

