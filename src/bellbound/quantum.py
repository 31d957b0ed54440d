"""Certified quantum (Tsirelson) maxima via unit Gram vectors.

The quantum maximum of a correlation inequality equals the maximum of
sum_kl A[k,l] x_k . y_l over unit vectors x_k, y_l in a Euclidean space of
dimension min(n, m).  The primal side runs alternating maximization from
seeded random starts, swept together as one stacked array in groups of
bounded size, each restart stopping on its own test: the stages
``_seeded_starts`` and ``_best_primal``, all the search loop runs.  The dual
side of ``quantum_bound`` certifies an upper bound through the PSD-ness of

    M = [[diag(u), -A], [-A^T, diag(v)]],

which implies the objective never exceeds (sum u + sum v) / 2.  Both
``quantum_bound`` and ``check_dual`` refuse a matrix whose M would exceed
CERTIFICATE_LIMIT entries, n + m = 2048, where ``eigvalsh`` takes under 1 s
of CPU and a 99 MB peak (2 CPUs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import BinaryIO, Optional

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatchError,
    DomainError,
    MatrixFormatError,
    SizeLimitError,
)
from .matrices import ByteSource, CoefficientMatrix, _finite_numbers, _freeze, _read_document

DEFAULT_RESTARTS = 16
DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-7
# Restarts sweep together in groups of about this many stacked vector entries.
_SWEEP_BLOCK = 1 << 16
CERTIFICATE_LIMIT = 1 << 22  # entries of M, (n + m)^2
RESTART_LIMIT = 1 << 14  # seeds spawned before any sweep: 7 MB; CHSH then takes 0.6 s


@dataclass(frozen=True)
class GramSolution:
    """Unit vectors for both sites plus the bilinear objective they attain."""

    x: np.ndarray
    y: np.ndarray
    objective: float

    def __post_init__(self) -> None:
        _freeze(self, np.float64, "x", "y")

    @property
    def dimension(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class DualCertificate:
    """Nonnegative site weights certifying an upper bound on the objective."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, np.float64, "u", "v")

    @property
    def upper_bound(self) -> float:
        """(sum u + sum v) / 2, the bound the weights certify when M is PSD."""
        return float(self.u.sum() + self.v.sum()) / 2.0


@dataclass(frozen=True)
class QuantumBoundResult:
    """The best Gram solution ``primal``, its weights ``dual``, the smallest
    eigenvalue ``min_eigenvalue`` of their certificate matrix M, ``converged``
    and the number of full ``sweeps`` the best restart ran.  ``converged``
    tests only the stopping rule and the primal-dual gap, never
    ``min_eigenvalue``: when that is negative, M is not PSD and ``dual``
    certifies no upper bound."""

    primal: GramSolution
    dual: DualCertificate
    min_eigenvalue: float
    converged: bool
    sweeps: int

    @property
    def gap(self) -> float:
        return self.dual.upper_bound - self.primal.objective


def _bilinear(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum((A @ y) * x))


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    vecs = rng.standard_normal((count, dim))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return vecs / norms


def _check_certificate_size(matrix: CoefficientMatrix) -> None:
    order = matrix.rows + matrix.cols
    if order * order > CERTIFICATE_LIMIT:
        raise SizeLimitError(
            f"a {matrix.rows}x{matrix.cols} matrix needs a {order}x{order} "
            f"certificate, more than the {CERTIFICATE_LIMIT}-entry limit"
        )


def certificate_matrix(matrix: CoefficientMatrix, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    A = matrix.entries
    n, m = A.shape
    M = np.zeros((n + m, n + m), dtype=np.float64)
    M[:n, :n] = np.diag(u)
    M[n:, n:] = np.diag(v)
    M[:n, n:] = -A
    M[n:, :n] = -A.T
    return M


def _min_eigenvalue(matrix: CoefficientMatrix, u: np.ndarray, v: np.ndarray) -> float:
    """The smallest eigenvalue of M; the certificate holds when it is >= 0."""
    return float(_kernels.jacobi_eigenvalues(certificate_matrix(matrix, u, v))[0])


def _seeded_starts(n: int, m: int, r: int, restarts: int, seed: int):
    """Yield the stacked (xs, ys) starts of each sweep group, in restart order."""
    children = np.random.SeedSequence(seed).spawn(restarts)
    group = max(1, _SWEEP_BLOCK // ((n + m) * r))
    for first in range(0, restarts, group):
        xs, ys = [], []
        for child in children[first : first + group]:
            rng = np.random.default_rng(child)
            xs.append(_unit_rows(rng, n, r))
            ys.append(_unit_rows(rng, m, r))
        yield np.stack(xs), np.stack(ys)


def _best_primal(A: np.ndarray, groups, max_iters: int, tol: float):
    """Sweep each group of starts.  Returns (GramSolution, sweeps, converged)
    of the first restart with the highest final objective."""
    best = None
    for xs, ys in groups:
        x, y, final, sweeps, converged = _kernels.alternating_sweeps(A, xs, ys, max_iters, tol)
        i = int(final.argmax())
        if best is None or final[i] > best[0]:
            best = final[i], x[i], y[i], int(sweeps[i]), bool(converged[i])
    _, x, y, sweeps, converged = best
    return GramSolution(x=x, y=y, objective=_bilinear(A, x, y)), sweeps, converged


def quantum_bound(
    matrix: CoefficientMatrix,
    restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    gram_dim: Optional[int] = None,
) -> QuantumBoundResult:
    """Best primal Gram solution over seeded restarts plus a dual certificate.

    Args:
        matrix: coefficient matrix A.
        restarts: number of independent random starts; the best objective wins,
            ties broken by the lowest restart index.  Each start is drawn
            from its own child seed; the starts are swept together in groups
            of at most max(1, 2**16 // ((n + m) * gram_dim)), and each stops
            on its own test, so every restart ends as it would alone.
        max_iters: sweep budget per restart; must be non-negative.
        tol: relative objective-change threshold for convergence; also the
            slack allowed on the primal-dual gap; must be in [0, inf).
        seed: non-negative root seed; with ``restarts`` it fixes every output.
        gram_dim: dimension of the Gram vectors.  Defaults to min(n, m), which
            is always sufficient; n + m gives a friendlier landscape for rare
            saddle points.

    Never raises on non-convergence: the result carries ``converged=False``.
    Raises, before any seed is spawned, SizeLimitError past RESTART_LIMIT
    restarts or CERTIFICATE_LIMIT certificate entries, and DomainError for a
    negative max_iters or seed or a tol outside [0, inf).
    """
    A = matrix.entries
    n, m = matrix.rows, matrix.cols
    r = int(gram_dim) if gram_dim is not None else min(n, m)
    if r < 1:
        raise DimensionMismatchError("gram_dim must be at least 1")
    if restarts < 1:
        raise DimensionMismatchError("restarts must be at least 1")
    if restarts > RESTART_LIMIT:
        raise SizeLimitError(f"{restarts} restarts exceed the limit of {RESTART_LIMIT}")
    if max_iters < 0:
        raise DomainError(f"max_iters must be non-negative, got {max_iters}")
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"tol must be finite and non-negative, got {tol}")
    if seed < 0:
        raise DomainError(f"the seed must be non-negative, got {seed}")
    _check_certificate_size(matrix)

    groups = _seeded_starts(n, m, r, restarts, seed)
    primal, sweeps, converged = _best_primal(A, groups, max_iters, tol)
    u = np.linalg.norm(A @ primal.y, axis=1)
    v = np.linalg.norm(A.T @ primal.x, axis=1)
    dual = DualCertificate(u=u, v=v)
    return QuantumBoundResult(
        primal=primal,
        dual=dual,
        min_eigenvalue=_min_eigenvalue(matrix, u, v),
        converged=converged and dual.upper_bound - primal.objective <= tol,
        sweeps=sweeps,
    )


def check_dual(
    matrix: CoefficientMatrix, certificate: DualCertificate, tol: float = 1e-8
) -> bool:
    """Recompute the block-matrix minimum eigenvalue; True iff >= -tol.

    Raises SizeLimitError when M would have more than CERTIFICATE_LIMIT entries.
    """
    if certificate.u.shape != (matrix.rows,):
        raise DimensionMismatchError(
            f"certificate has {certificate.u.size} row weights, expected {matrix.rows}"
        )
    if certificate.v.shape != (matrix.cols,):
        raise DimensionMismatchError(
            f"certificate has {certificate.v.size} column weights, expected {matrix.cols}"
        )
    _check_certificate_size(matrix)
    return _min_eigenvalue(matrix, certificate.u, certificate.v) >= -tol


def save_certificate(certificate: DualCertificate, sink: BinaryIO) -> None:
    doc = {
        "u": certificate.u.tolist(),
        "v": certificate.v.tolist(),
        "upper_bound": certificate.upper_bound,
    }
    sink.write(json.dumps(doc).encode("utf-8"))


def _certificate(doc: dict) -> DualCertificate:
    u, v = (_finite_numbers(doc[key], "certificate weights") for key in ("u", "v"))
    with np.errstate(over="ignore"):
        if not np.isfinite(u.sum() + v.sum()):
            raise MatrixFormatError("the sum of the certificate weights must be finite")
    if (u < 0).any() or (v < 0).any():
        raise MatrixFormatError("certificate weights must be nonnegative")
    [upper] = _finite_numbers([doc["upper_bound"]], "'upper_bound'").tolist()
    certificate = DualCertificate(u=u, v=v)
    if upper != certificate.upper_bound:
        raise MatrixFormatError(
            f"certificate states upper_bound {upper!r}, but its weights give "
            f"(sum u + sum v) / 2 = {certificate.upper_bound!r}"
        )
    return certificate


def load_certificate(source: ByteSource) -> DualCertificate:
    """Parse a save_certificate document; raise MatrixFormatError unless its
    values are finite JSON numbers and its weights are nonnegative, with a
    finite sum that gives its "upper_bound" bit for bit.  Other keys, such as
    the "min_eigenvalue" of older files, are ignored."""
    return _read_document(source, "certificate document", _certificate)
