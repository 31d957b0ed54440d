"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with:  pytest tests/test_acceptance.py -v -s
Timings are taken after JIT warm-up (session fixture) as the minimum over a
few repeats, so they measure the algorithm rather than compiler or scheduler
noise.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import bellbound as bb
from bellbound.cli import run as cli_run
from tests.expansion_oracle import numeric_check
from tests.test_operators import R4_ACOMM_TERMS, R4_COMM_TERMS, as_dict
from tests.test_quantum import assert_sweep_budget_ladder

SQRT2 = math.sqrt(2.0)


def tell(line):
    print(line)


def best_time(fn, repeats=10):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.fixture(scope="module")
def chsh_run():
    return bb.quantum_bound(bb.chsh_matrix(), seed=1)


@pytest.fixture(scope="module")
def r4_run():
    return bb.quantum_bound(bb.tensor_power(2), seed=1)


def test_criterion_01_chsh_classical_bound():
    result = bb.classical_bound(bb.chsh_matrix())
    assert result.bound == 2.0
    elapsed = best_time(lambda: bb.classical_bound(bb.chsh_matrix()))
    assert elapsed < 1e-3
    tell(f"PASS criterion 1: CHSH classical bound = 2 exactly ({elapsed*1e3:.3f} ms)")


def test_criterion_02_chsh_tsirelson_bound(chsh_run):
    elapsed = best_time(lambda: bb.quantum_bound(bb.chsh_matrix(), seed=1), repeats=3)
    assert chsh_run.primal.objective == pytest.approx(2.8284271, abs=1e-6)
    assert chsh_run.gap <= 1e-6
    assert elapsed < 1.0
    tell(
        f"PASS criterion 2: CHSH quantum bound = {chsh_run.primal.objective:.7f} "
        f"(2*sqrt(2) within 1e-6), gap = {chsh_run.gap:.2e} ({elapsed:.3f} s)"
    )


def test_criterion_03_four_observable_classical_bound():
    matrix = bb.tensor_power(2)
    result = bb.classical_bound(matrix)
    assert result.bound == 8.0
    recomputed = bb.evaluate_classical(matrix, result.s, result.t)
    assert recomputed == 8.0
    elapsed = best_time(lambda: bb.classical_bound(matrix))
    assert elapsed < 1e-2
    tell(
        f"PASS criterion 3: four-observable classical bound = 8 exactly, witness "
        f"re-evaluates to 8 ({elapsed*1e3:.3f} ms)"
    )


def test_criterion_04_chsh_squared_operator():
    assert bb.square_bell_operator(bb.chsh_matrix()).to_json_dict() == {
        "identity": 4.0,
        "commutators": [[[0, 1], [0, 1], -1.0]],
        "anticommutators": [],
        "residual": [],
    }
    tell("PASS criterion 4: B_2^2 = 4 I - [X1,X2][Y1,Y2], exact symbolic match")


def test_criterion_05_four_observable_squared_operator():
    doc = bb.square_bell_operator(bb.tensor_power(2)).to_json_dict()
    assert doc["identity"] == 16.0
    assert len(doc["commutators"]) == 24
    assert all(abs(c) == 1.0 for _, _, c in doc["commutators"])
    assert len(doc["anticommutators"]) == 12
    assert all(abs(c) == 1.0 for _, _, c in doc["anticommutators"])
    assert doc["residual"] == []
    assert as_dict(doc["commutators"]) == R4_COMM_TERMS
    assert as_dict(doc["anticommutators"]) == R4_ACOMM_TERMS
    worst = max(
        numeric_check(bb.tensor_power(2), dim=4, seed=seed) for seed in range(20)
    )
    assert worst <= 1e-9
    tell(
        f"PASS criterion 5: B_4^2 = 16 I + 24 commutator + 12 anticommutator "
        f"unit terms, grouping matches; numeric oracle discrepancy {worst:.2e}"
    )


def test_criterion_06_norm_estimates_for_d2():
    expr = bb.square_bell_operator(bb.tensor_power(2))
    commuting = bb.norm_estimate(expr.assuming_commuting())
    general = bb.norm_estimate(expr)
    assert abs(commuting - 8.0) <= 1e-9
    assert abs(general - 4.0 * math.sqrt(10.0)) <= 1e-9
    assert bb.closed_form_bound(2, True) == commuting
    assert bb.closed_form_bound(2, False) == general
    tell(
        f"PASS criterion 6 (d=2): norm estimates 8 and {general:.5f} = 4*sqrt(10); "
        f"counting model matches the expansion exactly"
    )


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the closed-form counting model assumes 2^d commutator and 2^(d-1) "
        "anticommutator partners per same-site pair, but the expansion "
        "(validated against direct matrix evaluation) has 2^(2d-2) and "
        "C(2^d,2) - 2^(2d-2); the counts coincide only at d = 2"
    ),
)
def test_criterion_06_counting_model_exact_match_above_d2(d):
    expr = bb.square_bell_operator(bb.tensor_power(d))
    for commuting in (True, False):
        counted = bb.closed_form_bound(d, commuting)
        expanded = bb.norm_estimate(expr.assuming_commuting() if commuting else expr)
        if counted != expanded:
            tell(
                f"FAIL criterion 6 (d={d}, commuting={commuting}): counting model "
                f"{counted:.5f} != expansion estimate {expanded:.5f} "
                f"(expected failure, see decisions ledger)"
            )
        assert counted == expanded


def test_criterion_07_normalized_estimate_and_limit():
    at_two = bb.normalized_violation_estimate(2)
    assert abs(at_two - math.sqrt(2.5)) <= 1e-12
    values = [bb.normalized_violation_estimate(d) for d in range(2, 31)]
    assert all(b > a for a, b in zip(values, values[1:]))
    at_twenty = bb.normalized_violation_estimate(20)
    assert abs(at_twenty - math.sqrt(3.0)) <= 1e-3
    tell(
        f"PASS criterion 7: normalized estimate sqrt(5/2) = {at_two:.7f} at d=2, "
        f"strictly increasing, {at_twenty:.7f} within 1e-3 of sqrt(3) at d=20"
    )


def test_criterion_08_exact_quantum_value_of_r4(r4_run, tmp_path, capsys):
    elapsed = best_time(lambda: bb.quantum_bound(bb.tensor_power(2), seed=1), repeats=3)
    assert elapsed < 10.0
    assert r4_run.converged
    assert r4_run.gap <= 1e-6

    # independent analytic oracle: sigma_max = 2 so the objective is capped by
    # sigma_max * sqrt(n) * sqrt(m) = 8, and the classical witness attains 8.
    sigma_max = np.linalg.svd(bb.tensor_power(2).entries, compute_uv=False)[0]
    oracle = sigma_max * 2.0 * 2.0
    assert bb.classical_bound(bb.tensor_power(2)).bound == 8.0
    assert r4_run.primal.objective == pytest.approx(oracle, abs=1e-6)

    # the report shows the certified value next to the counting-model estimate
    matrix_path = str(tmp_path / "r4.json")
    with open(matrix_path, "wb") as handle:
        bb.save_matrix(bb.tensor_power(2), handle)
    assert cli_run(["quantum", "--matrix", matrix_path, "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    row = report["reference_comparison"][0]
    assert row["reference"] == pytest.approx(4.0 * math.sqrt(10.0), abs=1e-9)
    assert row["computed"] == pytest.approx(8.0, abs=1e-6)
    tell(
        f"PASS criterion 8: certified quantum value {r4_run.primal.objective:.7f} "
        f"= analytic oracle 8; report shows estimate {row['reference']:.5f} "
        f"alongside it ({elapsed:.3f} s)"
    )


def test_criterion_09_realization_round_trip(chsh_run):
    t0 = time.perf_counter()
    realization = bb.realize(bb.chsh_matrix(), chsh_run.primal)
    value = bb.bell_value(realization, bb.chsh_matrix())
    elapsed = time.perf_counter() - t0
    assert abs(value - chsh_run.primal.objective) <= 1e-9
    dim = realization.dim
    for ops in (realization.x_observables, realization.y_observables):
        for op in ops:
            assert np.abs(op @ op - np.eye(dim)).max() <= 1e-10
    assert elapsed < 1.0
    tell(
        f"PASS criterion 9: realized Bell value {value:.9f} matches the Gram "
        f"objective to 1e-9; observables square to identity ({elapsed:.3f} s)"
    )


def test_criterion_10_ratio_search_sanity():
    for seed in (0, 1, 4):
        t0 = time.perf_counter()
        record = bb.ratio_search(2, 2, 500, seed=seed)
        elapsed = time.perf_counter() - t0
        assert record.ratio >= 1.41
        assert elapsed < 60.0
    single_row = bb.ratio_search(1, 5, 50, seed=0)
    assert single_row.ratio == pytest.approx(1.0, abs=1e-6)
    tell(
        f"PASS criterion 10: 2x2 searches reach >= 1.41 for seeds 0, 1, 4 "
        f"(last: {record.ratio:.5f} in {elapsed:.1f} s); single-row ratio = 1"
    )


def naive_double_loop_bound(entries):
    n, m = entries.shape
    signs_s = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    signs_t = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
    return float(np.abs(signs_s @ entries @ signs_t.T).max())


def test_criterion_11_property_suites():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        matrix = bb.CoefficientMatrix(rng.standard_normal((n, m)))
        classical = bb.classical_bound(matrix).bound
        result = bb.quantum_bound(
            matrix, restarts=8, tol=1e-13, seed=int(rng.integers(1 << 30))
        )
        assert classical <= result.primal.objective + 1e-7
        assert result.primal.objective <= result.dual.upper_bound + 1e-7

    gray_rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(gray_rng.integers(1, 9))
        m = int(gray_rng.integers(1, 9))
        matrix = bb.CoefficientMatrix(gray_rng.standard_normal((n, m)))
        assert bb.classical_bound(matrix).bound == pytest.approx(
            naive_double_loop_bound(matrix.entries), rel=1e-12
        )

    # The criterion 2 and 8 matrices and seed, one restart each.
    stops = [assert_sweep_budget_ladder(m, seed=1) for m in (bb.chsh_matrix(), bb.tensor_power(2))]
    tell(
        "PASS criterion 11: sandwich holds on 100 random matrices, Gray-code "
        "scan equals the naive double loop on 10 matrices up to 8x8, and the "
        "alternating objective never falls as the sweep budget grows on the "
        f"criterion 2 and 8 matrices (stopping sweeps {stops})"
    )
