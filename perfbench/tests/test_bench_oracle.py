"""The oracle against hand-computed cases."""

import math

import numpy as np
import pytest

import oracle
from workloads import CHSH, tensor_power

SQRT2 = math.sqrt(2.0)


def classical_report(bound, s, t):
    return {"results": {"bound": bound, "witness": {"s": s, "t": t, "value": bound}}}


def quantum_report(objective, upper, min_eigenvalue, converged):
    return {"results": {"objective": objective, "upper_bound": upper,
                        "min_eigenvalue": min_eigenvalue, "converged": converged}}


def test_brute_force_chsh_and_tensor_power_2():
    assert oracle.classical_brute_force(CHSH)[0] == 2.0
    assert oracle.classical_brute_force(tensor_power(2))[0] == 8.0


def test_gray_rank_inverts_the_gray_code():
    # Gray order for three signs: codes 0, 1, 3, 2 (bit j set: sign j+1 is -1).
    order = [(1, 1, 1), (1, -1, 1), (1, -1, -1), (1, 1, -1)]
    assert [oracle.gray_rank(np.array(s)) for s in order] == [0, 1, 2, 3]


def test_chsh_witness_is_first_maximizer_in_gray_order():
    verdict = oracle.Verdict()
    # Both (1, 1) and (1, -1) reach 2; (1, 1) comes first, and t follows s.
    assert oracle.check_classical(verdict, CHSH, classical_report(2.0, [1, 1], [1, 1])) == 2.0
    assert verdict.problems == []
    verdict = oracle.Verdict()
    oracle.check_classical(verdict, CHSH, classical_report(2.0, [1, -1], [1, -1]))
    assert any("Gray order" in p for p in verdict.problems)


def test_gray_tie_break_matches_a_plain_loop():
    rng = np.random.default_rng(3)
    A = rng.choice([-1.0, 0.0, 1.0], size=(5, 7))
    exact, side, maximizers = oracle.classical_brute_force(A)
    best, first = -1.0, None
    for k in range(1 << 4):
        g = k ^ (k >> 1)
        s = np.array([1.0] + [-1.0 if (g >> j) & 1 else 1.0 for j in range(4)])
        value = np.abs(s @ A).sum()
        if value > best:
            best, first = value, s
    assert exact == best
    assert np.array_equal(min(maximizers, key=oracle.gray_rank), first)


def test_wrong_classical_bound_is_reported():
    verdict = oracle.Verdict()
    oracle.check_classical(verdict, tensor_power(2), classical_report(6.0, [1, 1, 1, 1], [1, 1, 1, -1]))
    assert verdict.problems


def test_chsh_certificate_is_certified():
    verdict = oracle.Verdict()
    cert = {"u": [SQRT2, SQRT2], "v": [SQRT2, SQRT2], "upper_bound": 2 * SQRT2}
    objective, upper = oracle.check_quantum(
        verdict, CHSH, quantum_report(2 * SQRT2, 2 * SQRT2, 0.0, True), cert, 2.0)
    assert verdict.problems == []
    assert verdict.quantum == [(True, True)]
    assert objective == pytest.approx(2 * SQRT2) and upper == pytest.approx(2 * SQRT2)


def test_shrunk_certificate_is_miscertified_and_shifted():
    verdict = oracle.Verdict()
    u = [1.3, 1.3]
    lam = oracle.certificate_min_eigenvalue(CHSH, np.array(u), np.array(u))
    assert lam == pytest.approx(1.3 - SQRT2)
    cert = {"u": u, "v": u, "upper_bound": 2.6}
    _, upper = oracle.check_quantum(
        verdict, CHSH, quantum_report(2.6, 2.6, lam, True), cert, 2.0)
    assert verdict.quantum == [(True, False)]
    # The shifted bound 2.6 - 4 * lam / 2 is valid again.
    assert upper == pytest.approx(2.6 - 2 * lam) and upper >= 2 * SQRT2
    # 2.6 also misses the closed form 2*sqrt(2).
    assert any("expected" in p for p in verdict.problems)


def test_classical_above_a_valid_upper_bound_is_a_failure():
    verdict = oracle.Verdict()
    cert = {"u": [SQRT2, SQRT2], "v": [SQRT2, SQRT2], "upper_bound": 2 * SQRT2}
    oracle.check_quantum(verdict, CHSH, quantum_report(2 * SQRT2, 2 * SQRT2, 0.0, True), cert, 3.0)
    assert any("valid upper bound" in p for p in verdict.problems)


def test_tensor_power_order():
    assert oracle.tensor_power_order(CHSH) == 1
    assert oracle.tensor_power_order(tensor_power(3)) == 3
    assert oracle.tensor_power_order(-tensor_power(2)) is None
    assert oracle.tensor_power_order(np.ones((4, 4))) is None


def test_expansion_closed_forms():
    chsh = oracle.expected_expansion(CHSH)
    assert chsh["identity"] == 4.0
    assert chsh["comm"].tolist() == [[-1.0]] and chsh["acomm"].tolist() == [[0.0]]
    assert oracle.expected_norm(chsh, commuting=False) == pytest.approx(2 * SQRT2)
    r4 = oracle.expected_expansion(tensor_power(2))
    assert oracle.expected_norm(r4, commuting=False) == pytest.approx(4 * math.sqrt(10))
    assert oracle.expected_norm(r4, commuting=True) == pytest.approx(8.0)


def test_uncertified_result_below_classical_is_a_shortfall():
    # L(I) = 2; a stalled solve reports Q = 1.9 and U = 1.95 < L, which the
    # eigenvalue shift -0.025 * (2 + 2) / 2 repairs to exactly 2.
    verdict = oracle.Verdict()
    cert = {"u": [0.975, 0.975], "v": [0.975, 0.975], "upper_bound": 1.95}
    _, upper = oracle.check_quantum(
        verdict, np.eye(2), quantum_report(1.9, 1.95, -0.025, False), cert, 2.0)
    assert verdict.problems == []
    assert verdict.quantum == [(False, False)]
    assert upper == pytest.approx(2.0)
    assert len(verdict.shortfalls) == 1 and "upper bound=1.95" in verdict.shortfalls[0]
