import io
import json
import math

import numpy as np
import pytest

from bellbound import CoefficientMatrix, ratio_search, record_from_json
from bellbound import _kernels, quantum, search
from bellbound.classical import classical_bound
from bellbound.errors import DomainError, MatrixFormatError, SizeLimitError
from bellbound.quantum import quantum_bound


def test_two_by_two_search_approaches_maximum():
    record = ratio_search(2, 2, 500, seed=0)
    assert record.ratio >= 1.41
    assert record.ratio <= math.sqrt(2.0) + 1e-6
    assert record.classical > 0.0
    assert record.ratio == pytest.approx(record.quantum / record.classical, abs=1e-9)


def test_single_row_search_ratio_is_one():
    record = ratio_search(1, 5, 50, seed=0)
    assert record.ratio == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 3])
def test_ratio_never_below_one(seed):
    record = ratio_search(2, 3, 40, seed=seed)
    assert record.ratio >= 1.0 - 1e-9


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_two_by_two_ratio_never_exceeds_cap(seed):
    record = ratio_search(2, 2, 120, seed=seed)
    assert record.ratio <= math.sqrt(2.0) + 1e-6


def test_search_is_deterministic():
    a = ratio_search(2, 2, 60, seed=5)
    b = ratio_search(2, 2, 60, seed=5)
    assert a.ratio == b.ratio
    assert a.iteration_found == b.iteration_found
    assert np.array_equal(a.matrix.entries, b.matrix.entries)


def test_prefix_property_of_the_stream():
    short_sink, long_sink = io.StringIO(), io.StringIO()
    short = ratio_search(2, 2, 150, seed=4, record_sink=short_sink)
    long = ratio_search(2, 2, 400, seed=4, record_sink=long_sink)
    assert long.ratio >= short.ratio - 1e-9

    # every improvement of the short run reappears verbatim in the long run
    short_improvements = short_sink.getvalue().splitlines()[:-1]
    long_improvements = long_sink.getvalue().splitlines()[:-1]
    assert long_improvements[: len(short_improvements)] == short_improvements


def test_record_json_round_trip():
    record = ratio_search(2, 2, 30, seed=9)
    again = record_from_json(json.dumps(record.to_json_dict()))
    assert again.ratio == record.ratio
    assert again.seed == record.seed
    assert np.array_equal(again.matrix.entries, record.matrix.entries)


# One ledger line with a ratio that is not quantum / classical, and one whose
# ratio is undefined.
FORGED_LEDGER_LINES = [
    (2.0, 1.0, 1.5, "ratio 2.0 is not quantum / classical"),
    (1.0, 0.0, 0.0, "ZeroDivisionError"),
]


def ledger_line(ratio, classical, objective):
    return json.dumps({"n": 1, "m": 1, "entries": [[1.0]], "ratio": ratio,
                       "classical": classical, "quantum": objective,
                       "iteration_found": 0, "seed": 0})


@pytest.mark.parametrize(
    "ratio, classical, objective, cause", FORGED_LEDGER_LINES, ids=["ratio", "zero"]
)
def test_record_from_json_refuses_a_ratio_its_bounds_do_not_give(
    ratio, classical, objective, cause
):
    with pytest.raises(MatrixFormatError, match=cause):
        record_from_json(ledger_line(ratio, classical, objective))
    if classical:
        record = record_from_json(ledger_line(objective / classical, classical, objective))
        assert record.ratio == objective / classical


def test_search_guards():
    with pytest.raises(SizeLimitError):
        ratio_search(13, 2, 10, seed=0)
    with pytest.raises(SizeLimitError):
        ratio_search(2, 0, 10, seed=0)
    with pytest.raises(DomainError):
        ratio_search(2, 2, 0, seed=0)


def search_ledger(n, m, iterations, seed):
    sink = io.StringIO()
    ratio_search(n, m, iterations, seed=seed, record_sink=sink)
    return sink.getvalue()


@pytest.mark.parametrize("n, iterations", [(2, 200), (5, 100), (8, 60)])
@pytest.mark.parametrize("seed", [601, 602])
def test_primal_only_loop_writes_the_quantum_bound_ledger(monkeypatch, n, iterations, seed):
    primal_only = search_ledger(n, n, iterations, seed)

    def evaluate(entries, starts):
        # Oracle: every candidate gets a full quantum_bound, certificate included.
        matrix = CoefficientMatrix(entries)
        classical = classical_bound(matrix).bound
        if classical <= 0.0:
            return -math.inf, classical, 0.0
        value = quantum_bound(
            matrix,
            restarts=search.LOOP_RESTARTS,
            max_iters=search.LOOP_MAX_ITERS,
            tol=search.LOOP_TOL,
            seed=seed,
        ).primal.objective
        return value / classical, classical, value

    monkeypatch.setattr(search, "_evaluate", evaluate)
    assert search_ledger(n, n, iterations, seed) == primal_only


def test_search_draws_starts_once_and_runs_no_eigensolver_in_the_loop(monkeypatch):
    eigensolves, draws, unit_rows, certified = [], [], [], []
    loop = {"active": False}
    eigvals, seeded, unit = _kernels.jacobi_eigenvalues, search._seeded_starts, quantum._unit_rows
    evaluate, certify = search._evaluate, search.quantum_bound

    def count_eigensolves(S):
        eigensolves.append(loop["active"])
        return eigvals(S)

    def count_draws(*args):
        draws.append(args)
        return seeded(*args)

    def count_unit_rows(*args):
        unit_rows.append(args)
        return unit(*args)

    def in_loop(*args):
        loop["active"] = True
        try:
            return evaluate(*args)
        finally:
            loop["active"] = False

    def count_certified(*args, **kwargs):
        certified.append(kwargs)
        return certify(*args, **kwargs)

    monkeypatch.setattr(_kernels, "jacobi_eigenvalues", count_eigensolves)
    monkeypatch.setattr(search, "_seeded_starts", count_draws)
    monkeypatch.setattr(quantum, "_unit_rows", count_unit_rows)
    monkeypatch.setattr(search, "_evaluate", in_loop)
    monkeypatch.setattr(search, "quantum_bound", count_certified)
    ratio_search(5, 5, 100, seed=601)
    # The one certified solve is the final re-verification, outside the loop.
    assert certified == [{"seed": 601}]
    assert eigensolves and not any(eigensolves)
    assert draws == [(5, 5, 5, search.LOOP_RESTARTS, 601)]
    # Two draws per restart: the loop's starts once, then the re-verification's.
    assert len(unit_rows) == 2 * (search.LOOP_RESTARTS + quantum.DEFAULT_RESTARTS)
