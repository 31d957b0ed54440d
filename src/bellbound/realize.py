"""Explicit observables realizing a Gram solution.

Given unit Gram vectors x_k, y_l in dimension r, the observables

    X_k = sum_a x_k[a] * g_a        Y_l = sum_a y_l[a] * g_a

built from anticommuting Hermitian involutions g_a square to the identity,
and on the maximally entangled state the correlation of X_k with the
entrywise complex conjugate of Y_l on the second site equals x_k . y_l:

    <Phi| X (x) conj(Y) |Phi>  =  Tr(X Y) / D  =  x . y

because Tr(g_a g_b) = D * delta_ab.  The conjugate-second-site convention is
the single normative convention used throughout.  r generators fit on
D = 2^floor(r/2): for odd r = 2k+1 the last one is Z^(x)k (Tsirelson, Lett.
Math. Phys. 4, 1980).

The state is always |Phi> = vec(I)/sqrt(D), so a realization stores only
its observables, and no D^2 x D^2 operator is built: every correlation is
the D x D trace Tr(X_k Y_l^H) / D, one entrywise inner product of the two
flattened observables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, SizeLimitError
from .matrices import CoefficientMatrix, _freeze
from .quantum import GramSolution

REALIZE_LIMIT = 1 << 19  # stored operator entries: (n + m) * D^2, or r * D^2 generators

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_IDENTITY = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class ObservableRealization:
    """Explicit D x D observables of both sites, on the maximally entangled state."""

    x_observables: np.ndarray
    y_observables: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, np.complex128, "x_observables", "y_observables")

    @property
    def dim(self) -> int:
        return self.x_observables.shape[1]


def _check_entries(count: int, r: int, what: str = "observables") -> int:
    """D = 2^floor(r/2), or SizeLimitError when count D x D operators would
    store more than REALIZE_LIMIT entries.  Past the limit's bit length one
    operator alone is over it, so the clamp keeps the count small for any r."""
    qubits = int(r) // 2
    entries = int(count) << 2 * min(qubits, REALIZE_LIMIT.bit_length())
    if entries > REALIZE_LIMIT:
        raise SizeLimitError(
            f"{count} {what} of dimension 2^{qubits} need at least {entries} "
            f"entries, more than the {REALIZE_LIMIT}-entry limit"
        )
    return 1 << qubits


def clifford_generators(r: int) -> np.ndarray:
    """Tensor-ladder construction of r anticommuting Hermitian involutions,
    returned as a read-only (r, D, D) array with D = 2^floor(r/2).

    Generator 2a is Z^a (x) X (x) I..., generator 2a+1 is Z^a (x) Y (x) I...,
    on q = floor(r/2) qubit factors; for odd r the last generator is Z^q,
    which anticommutes with all the others (Tsirelson 1980).  Refused before
    any array is built past r = 15, where r * D^2 exceeds REALIZE_LIMIT.
    """
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or r < 1:
        raise SizeLimitError(f"generator count must be a positive integer, got {r}")
    dim = _check_entries(r, r, "generators")
    qubits = r // 2
    gens = np.empty((r, dim, dim), dtype=np.complex128)
    for a in range(r):
        middle = _PAULI_X if a % 2 == 0 else _PAULI_Y
        op = np.eye(1, dtype=np.complex128)
        # Cut to q factors; for odd r this leaves the closing generator Z^q.
        for factor in ([_PAULI_Z] * (a // 2) + [middle] + [_IDENTITY] * qubits)[:qubits]:
            op = np.kron(op, factor)
        gens[a] = op
    gens.setflags(write=False)
    return gens


def maximally_entangled_state(dim: int) -> np.ndarray:
    """The unit D^2-vector (1/sqrt(D)) sum_i |ii>, that is vec(I) / sqrt(D)."""
    return np.eye(dim, dtype=np.complex128).reshape(-1) / np.sqrt(dim)


def realize(matrix: CoefficientMatrix, gram: GramSolution) -> ObservableRealization:
    """Observables whose correlations equal the Gram inner products.

    Raises SizeLimitError, before any array is built, when the (n + m) * D^2
    observable entries exceed REALIZE_LIMIT, which alone bounds the rank r.
    """
    r = gram.dimension
    if gram.x.shape[0] != matrix.rows or gram.y.shape[0] != matrix.cols:
        raise DimensionMismatchError(
            "gram solution does not match the coefficient matrix dimensions"
        )
    _check_entries(matrix.rows + matrix.cols, r)
    for name, vecs in (("x", gram.x), ("y", gram.y)):
        norms = np.linalg.norm(vecs, axis=1)
        if np.abs(norms - 1.0).max() > 1e-8:
            raise DomainError(f"gram {name} vectors are not unit length")

    gens = clifford_generators(r)
    x_obs = np.tensordot(gram.x, gens, axes=(1, 0))
    y_obs = np.tensordot(gram.y, gens, axes=(1, 0))
    return ObservableRealization(x_observables=x_obs, y_observables=y_obs)


def correlation_matrix(realization: ObservableRealization) -> np.ndarray:
    """All pair correlations <Phi| X_k (x) conj(Y_l) |Phi> = Tr(X_k Y_l^H) / D."""
    dim = realization.dim
    x = realization.x_observables.reshape(-1, dim * dim)
    y = realization.y_observables.reshape(-1, dim * dim)
    return (x @ y.conj().T).real / dim


def bell_value(realization: ObservableRealization, matrix: CoefficientMatrix) -> float:
    """<Phi| sum_kl A[k,l] X_k (x) conj(Y_l) |Phi>."""
    n = realization.x_observables.shape[0]
    m = realization.y_observables.shape[0]
    if (n, m) != (matrix.rows, matrix.cols):
        raise DimensionMismatchError(
            f"realization has {n}x{m} observables, matrix is "
            f"{matrix.rows}x{matrix.cols}"
        )
    return float((matrix.entries * correlation_matrix(realization)).sum())


def realization_to_json(realization: ObservableRealization) -> dict:
    """Serializable dump with complex entries as [re, im] pairs."""

    def encode(array: np.ndarray) -> list:
        stacked = np.stack([array.real, array.imag], axis=-1)
        return stacked.tolist()

    return {
        "hilbert_dimension": realization.dim,
        "sites": {
            "x": int(realization.x_observables.shape[0]),
            "y": int(realization.y_observables.shape[0]),
        },
        "x_observables": encode(realization.x_observables),
        "y_observables": encode(realization.y_observables),
        "state": encode(maximally_entangled_state(realization.dim)),
    }
