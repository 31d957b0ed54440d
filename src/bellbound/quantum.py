"""Certified quantum (Tsirelson) maxima via unit Gram vectors.

The quantum maximum of a correlation inequality equals the maximum of
sum_kl A[k,l] x_k . y_l over unit vectors x_k, y_l in a Euclidean space of
dimension min(n, m).  The primal side runs alternating maximization from
seeded random starts; the dual side certifies an upper bound through the
positive semidefiniteness of

    M = [[diag(u), -A], [-A^T, diag(v)]],

which implies the objective never exceeds (sum u + sum v) / 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import BinaryIO, Optional

import numpy as np

from . import _kernels
from .classical import classical_bound
from .errors import (
    DimensionMismatchError,
    MatrixFormatError,
    UndefinedRatioError,
)
from .matrices import CoefficientMatrix

DEFAULT_RESTARTS = 16
DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-7


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
    upper_bound: float
    min_eigenvalue: float

    def __post_init__(self) -> None:
        for name in ("u", "v"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class QuantumBoundResult:
    primal: GramSolution
    dual: DualCertificate
    gap: float
    converged: bool
    objective_history: np.ndarray
    restarts: int


def _bilinear(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum((A @ y) * x))


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    vecs = rng.standard_normal((count, dim))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return vecs / norms


def _solve_restart(A, r, child_seed, max_iters, tol):
    rng = np.random.default_rng(child_seed)
    n, m = A.shape
    x = _unit_rows(rng, n, r)
    y = _unit_rows(rng, m, r)
    hist, converged = _kernels.alternating_sweeps(A, x, y, max_iters, tol)
    return x, y, hist, converged


def certificate_matrix(matrix: CoefficientMatrix, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    A = matrix.entries
    n, m = A.shape
    M = np.zeros((n + m, n + m), dtype=np.float64)
    M[:n, :n] = np.diag(u)
    M[n:, n:] = np.diag(v)
    M[:n, n:] = -A
    M[n:, :n] = -A.T
    return M


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
            ties broken by the lowest restart index.
        max_iters: sweep budget per restart.
        tol: relative objective-change threshold for convergence; also the
            slack allowed on the primal-dual gap.
        seed: root seed; together with ``restarts`` it fixes every output.
        gram_dim: dimension of the Gram vectors.  Defaults to min(n, m), which
            is always sufficient; n + m gives a friendlier landscape for rare
            saddle points.

    Never raises on non-convergence: the result carries ``converged=False``.
    """
    A = matrix.entries
    n, m = matrix.rows, matrix.cols
    r = int(gram_dim) if gram_dim is not None else min(n, m)
    if r < 1:
        raise DimensionMismatchError("gram_dim must be at least 1")
    if restarts < 1:
        raise DimensionMismatchError("restarts must be at least 1")

    children = np.random.SeedSequence(seed).spawn(restarts)
    runs = [_solve_restart(A, r, c, max_iters, tol) for c in children]

    best = 0
    for i in range(1, restarts):
        if runs[i][2][-1] > runs[best][2][-1]:
            best = i
    x, y, hist, run_converged = runs[best]

    objective = _bilinear(A, x, y)
    u = np.linalg.norm(A @ y, axis=1)
    v = np.linalg.norm(A.T @ x, axis=1)
    upper = float(u.sum() + v.sum()) / 2.0
    M = certificate_matrix(matrix, u, v)
    min_eig = float(_kernels.jacobi_eigenvalues(M)[0])

    primal = GramSolution(x=x, y=y, objective=objective)
    dual = DualCertificate(u=u, v=v, upper_bound=upper, min_eigenvalue=min_eig)
    gap = upper - objective
    return QuantumBoundResult(
        primal=primal,
        dual=dual,
        gap=gap,
        converged=bool(run_converged and gap <= tol),
        objective_history=hist,
        restarts=restarts,
    )


def check_dual(
    matrix: CoefficientMatrix, certificate: DualCertificate, tol: float = 1e-8
) -> bool:
    """Recompute the block-matrix minimum eigenvalue; True iff >= -tol."""
    if certificate.u.shape != (matrix.rows,):
        raise DimensionMismatchError(
            f"certificate has {certificate.u.size} row weights, expected {matrix.rows}"
        )
    if certificate.v.shape != (matrix.cols,):
        raise DimensionMismatchError(
            f"certificate has {certificate.v.size} column weights, expected {matrix.cols}"
        )
    M = certificate_matrix(matrix, certificate.u, certificate.v)
    min_eig = float(_kernels.jacobi_eigenvalues(M)[0])
    return min_eig >= -tol


def violation_ratio(matrix: CoefficientMatrix, seed: int = 0) -> float:
    """Quantum-to-classical ratio; requires a positive classical bound."""
    classical = classical_bound(matrix)
    if classical.bound <= 0.0:
        raise UndefinedRatioError(
            "violation ratio is undefined for a zero classical bound"
        )
    quantum = quantum_bound(matrix, seed=seed)
    return quantum.primal.objective / classical.bound


def save_certificate(certificate: DualCertificate, sink: BinaryIO) -> None:
    doc = {
        "u": [float(w) for w in certificate.u],
        "v": [float(w) for w in certificate.v],
        "upper_bound": certificate.upper_bound,
        "min_eigenvalue": certificate.min_eigenvalue,
    }
    sink.write(json.dumps(doc).encode("utf-8"))


def load_certificate(source) -> DualCertificate:
    raw = source.read() if hasattr(source, "read") else bytes(source)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MatrixFormatError(f"invalid certificate document: {exc}") from None
    if not isinstance(doc, dict):
        raise MatrixFormatError("certificate document must be a JSON object")
    try:
        u = np.asarray(doc["u"], dtype=np.float64)
        v = np.asarray(doc["v"], dtype=np.float64)
        upper = float(doc["upper_bound"])
        min_eig = float(doc["min_eigenvalue"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFormatError(f"malformed certificate document: {exc}") from None
    if u.ndim != 1 or v.ndim != 1:
        raise MatrixFormatError("certificate weights must be one-dimensional")
    if (u < 0).any() or (v < 0).any():
        raise MatrixFormatError("certificate weights must be nonnegative")
    return DualCertificate(u=u, v=v, upper_bound=upper, min_eigenvalue=min_eig)
