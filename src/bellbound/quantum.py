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
from .matrices import ByteSource, CoefficientMatrix, _read_bytes

DEFAULT_RESTARTS = 16
DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-7
# Restarts sweep together in groups of about this many stacked vector entries.
_SWEEP_BLOCK = 1 << 16
CERTIFICATE_LIMIT = 1 << 22  # entries of M, (n + m)^2


@dataclass(frozen=True)
class GramSolution:
    """Unit vectors for both sites plus the bilinear objective they attain."""

    x: np.ndarray
    y: np.ndarray
    objective: float

    def __post_init__(self) -> None:
        for name in ("x", "y"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dimension(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class DualCertificate:
    """Nonnegative site weights certifying an upper bound on the objective."""

    u: np.ndarray
    v: np.ndarray
    min_eigenvalue: float

    def __post_init__(self) -> None:
        for name in ("u", "v"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def upper_bound(self) -> float:
        """(sum u + sum v) / 2, the bound the weights certify when M is PSD."""
        return float(self.u.sum() + self.v.sum()) / 2.0


@dataclass(frozen=True)
class QuantumBoundResult:
    primal: GramSolution
    dual: DualCertificate
    converged: bool
    objective_history: np.ndarray

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
    """Sweep each group of starts in place.  Returns (objective, x, y, history,
    converged) of the first restart with the highest final objective."""
    best = None
    for xs, ys in groups:
        hists, run_converged = _kernels.alternating_sweeps(A, xs, ys, max_iters, tol)
        for i, hist in enumerate(hists):
            if best is None or hist[-1] > best[2][-1]:
                best = xs[i], ys[i], hist, run_converged[i]
    return (_bilinear(A, best[0], best[1]),) + best


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
            slack allowed on the primal-dual gap.
        seed: root seed; together with ``restarts`` it fixes every output.
        gram_dim: dimension of the Gram vectors.  Defaults to min(n, m), which
            is always sufficient; n + m gives a friendlier landscape for rare
            saddle points.

    Never raises on non-convergence: the result carries ``converged=False``.
    Raises SizeLimitError, before any sweep, when the certificate matrix would
    have more than CERTIFICATE_LIMIT entries.
    """
    A = matrix.entries
    n, m = matrix.rows, matrix.cols
    r = int(gram_dim) if gram_dim is not None else min(n, m)
    if r < 1:
        raise DimensionMismatchError("gram_dim must be at least 1")
    if restarts < 1:
        raise DimensionMismatchError("restarts must be at least 1")
    if max_iters < 0:
        raise DomainError(f"max_iters must be non-negative, got {max_iters}")
    _check_certificate_size(matrix)

    groups = _seeded_starts(n, m, r, restarts, seed)
    objective, x, y, best_hist, converged = _best_primal(A, groups, max_iters, tol)
    u = np.linalg.norm(A @ y, axis=1)
    v = np.linalg.norm(A.T @ x, axis=1)
    M = certificate_matrix(matrix, u, v)
    min_eig = float(_kernels.jacobi_eigenvalues(M)[0])

    dual = DualCertificate(u=u, v=v, min_eigenvalue=min_eig)
    return QuantumBoundResult(
        primal=GramSolution(x=x, y=y, objective=objective),
        dual=dual,
        converged=bool(converged and dual.upper_bound - objective <= tol),
        objective_history=best_hist,
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
    M = certificate_matrix(matrix, certificate.u, certificate.v)
    min_eig = float(_kernels.jacobi_eigenvalues(M)[0])
    return min_eig >= -tol


def save_certificate(certificate: DualCertificate, sink: BinaryIO) -> None:
    doc = {
        "u": [float(w) for w in certificate.u],
        "v": [float(w) for w in certificate.v],
        "upper_bound": certificate.upper_bound,
        "min_eigenvalue": certificate.min_eigenvalue,
    }
    sink.write(json.dumps(doc).encode("utf-8"))


def load_certificate(source: ByteSource) -> DualCertificate:
    """Parse a save_certificate document; raise MatrixFormatError unless its
    values are finite JSON numbers and its weights are nonnegative, with a
    finite sum that gives its "upper_bound" bit for bit."""
    try:
        doc = json.loads(_read_bytes(source).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MatrixFormatError(f"invalid certificate document: {exc}") from None
    if not isinstance(doc, dict):
        raise MatrixFormatError("certificate document must be a JSON object")
    try:
        values = [*doc["u"], *doc["v"], doc["upper_bound"], doc["min_eigenvalue"]]
        if not all(type(value) in (int, float) for value in values):
            raise TypeError("certificate values must be JSON numbers")
        u = np.array(doc["u"], dtype=np.float64)
        v = np.array(doc["v"], dtype=np.float64)
        upper = float(doc["upper_bound"])
        min_eig = float(doc["min_eigenvalue"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MatrixFormatError(f"malformed certificate document: {exc}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(u.sum() + v.sum()) and np.isfinite(min_eig)
    if not finite:
        raise MatrixFormatError("certificate weights, sum and min_eigenvalue must be finite")
    if (u < 0).any() or (v < 0).any():
        raise MatrixFormatError("certificate weights must be nonnegative")
    certificate = DualCertificate(u=u, v=v, min_eigenvalue=min_eig)
    if upper != certificate.upper_bound:
        raise MatrixFormatError(
            f"certificate states upper_bound {upper!r}, but its weights give "
            f"(sum u + sum v) / 2 = {certificate.upper_bound!r}"
        )
    return certificate
