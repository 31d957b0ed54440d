"""Random search for matrices with large quantum-to-classical ratios.

The search alternates fresh standard-normal samples with hill-climbing
around the best matrix found so far, evaluating both bounds at every step.
The ratio landscape has conical (piecewise-linear) maxima, so climbing steps
draw their scale from a {0.1, 0.01, 0.001} mixture: large steps hop ridges,
small ones polish.  The best matrix is normalized to unit max-entry before
perturbing (the ratio is scale-invariant) and every tenth climb step moves
all entries at once.  In-loop quantum bounds use reduced settings and one
fixed evaluation seed per search, which keeps the acceptance test free of
solver noise; their starts are drawn once per search, each evaluation sweeps
a fresh copy (the sweeps overwrite it), and no in-loop solve builds a
certificate.  The returned best record is re-verified by a full
``quantum_bound`` at default settings.
Every improvement can be appended to a JSON-lines leaderboard.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .classical import classical_bound
from .errors import DomainError, MatrixFormatError, SizeLimitError
from .matrices import CoefficientMatrix
from .quantum import _best_primal, _seeded_starts, quantum_bound

MAX_SEARCH_SIZE = 12
FRESH_SAMPLE_PERIOD = 10
FULL_STEP_PHASE = 5
EXPLORATION_SPAN = 100
PERTURBATION_SCALES = (0.1, 0.01, 0.001)
LOOP_RESTARTS = 4
LOOP_TOL = 1e-5
LOOP_MAX_ITERS = 2_000


@dataclass(frozen=True)
class SearchRecord:
    matrix: CoefficientMatrix
    classical: float
    quantum: float
    iteration_found: int
    seed: int

    @property
    def ratio(self) -> float:
        return self.quantum / self.classical

    def to_json_dict(self) -> dict:
        return {
            "n": self.matrix.rows,
            "m": self.matrix.cols,
            "entries": [[float(v) for v in row] for row in self.matrix.entries],
            "ratio": self.ratio,
            "classical": self.classical,
            "quantum": self.quantum,
            "iteration_found": self.iteration_found,
            "seed": self.seed,
        }


def record_from_json(line: str) -> SearchRecord:
    """Parse one ledger line; raise MatrixFormatError if it is not a record
    or its "ratio" is not bit-equal to quantum / classical."""
    try:
        doc = json.loads(line)
        record = SearchRecord(
            matrix=CoefficientMatrix(np.asarray(doc["entries"], dtype=np.float64)),
            classical=float(doc["classical"]),
            quantum=float(doc["quantum"]),
            iteration_found=int(doc["iteration_found"]),
            seed=int(doc["seed"]),
        )
        if float(doc["ratio"]) != record.ratio:
            raise ValueError(f"ratio {doc['ratio']!r} is not quantum / classical")
        return record
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise MatrixFormatError(
            f"malformed ledger line {line[:80]!r}: {type(exc).__name__}: {exc}"
        ) from exc


def _evaluate(entries: np.ndarray, starts: list) -> tuple[float, float, float]:
    matrix = CoefficientMatrix(entries)
    classical = classical_bound(matrix).bound
    if classical <= 0.0:
        return -math.inf, classical, 0.0
    fresh = [(xs.copy(), ys.copy()) for xs, ys in starts]  # the sweeps write in place
    quantum = _best_primal(matrix.entries, fresh, LOOP_MAX_ITERS, LOOP_TOL)[0]
    return quantum / classical, classical, quantum


def ratio_search(
    n: int,
    m: int,
    iterations: int,
    seed: int = 0,
    record_sink: Optional[IO[str]] = None,
) -> SearchRecord:
    """Best quantum/classical ratio found over the iteration budget.

    The stream mixes fresh Gaussian samples (every second iteration during
    the first 100, every tenth afterwards) with perturbations of the current
    best.  Deterministic given (n, m, iterations, seed): running longer only
    extends the stream.  Each new best is appended to ``record_sink`` as one
    JSON line, as is the final re-verified record.
    """
    if n < 1 or m < 1 or n > MAX_SEARCH_SIZE or m > MAX_SEARCH_SIZE:
        raise SizeLimitError(
            f"search supports sizes 1..{MAX_SEARCH_SIZE} per side, got {n}x{m}"
        )
    if iterations < 1:
        raise DomainError("iteration budget must be at least 1")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    starts = list(_seeded_starts(n, m, min(n, m), LOOP_RESTARTS, seed))
    best: Optional[SearchRecord] = None

    def emit(record: SearchRecord) -> None:
        if record_sink is not None:
            record_sink.write(json.dumps(record.to_json_dict()) + "\n")

    for i in range(iterations):
        explore = (i < EXPLORATION_SPAN and i % 2 == 0) or i % FRESH_SAMPLE_PERIOD == 0
        if best is None or explore:
            entries = rng.standard_normal((n, m))
        else:
            base = best.matrix.entries
            peak = float(np.abs(base).max())
            entries = base / peak if peak > 0.0 else base.copy()
            flat = entries.reshape(-1)
            scale = PERTURBATION_SCALES[int(rng.integers(len(PERTURBATION_SCALES)))]
            if i % FRESH_SAMPLE_PERIOD == FULL_STEP_PHASE:
                flat += rng.standard_normal(flat.size) * scale
            else:
                pos = int(rng.integers(flat.size))
                flat[pos] += rng.standard_normal() * scale

        ratio, classical, quantum = _evaluate(entries, starts)
        if not math.isfinite(ratio):
            continue
        if best is None or ratio > best.ratio:
            best = SearchRecord(
                matrix=CoefficientMatrix(entries),
                classical=classical,
                quantum=quantum,
                iteration_found=i,
                seed=seed,
            )
            emit(best)

    if best is None:
        raise DomainError("the search produced no usable candidate")

    classical = classical_bound(best.matrix).bound
    quantum = quantum_bound(best.matrix, seed=seed).primal.objective
    final = SearchRecord(
        matrix=best.matrix,
        classical=classical,
        quantum=quantum,
        iteration_found=best.iteration_found,
        seed=seed,
    )
    emit(final)
    return final
