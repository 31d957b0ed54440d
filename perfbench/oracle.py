"""Independent correctness oracle for bellbound's reports.

This module uses numpy and json only and never imports bellbound.  It checks
each task's outputs against:

* a brute-force classical bound for scan sides of up to 18 rows, plus the
  first-maximizer-in-Gray-order tie-break on integer matrices;
* re-evaluation of every reported witness (s^T A t, sign rule on each side);
* closed forms: Q(tensor_power(d)) = 2^(3d/2), L = 2 and Q = 2*sqrt(2) for
  CHSH, norm estimates 2*sqrt(2) (CHSH), 4*sqrt(10) and 8 (d = 2), and a
  2x2 search ratio of at most sqrt(2);
* the sandwich L <= objective <= upper bound;
* an eigvalsh PSD check of each dual certificate.

Tolerances scale with the spectral norm ||A||_2.  The PSD check decides
whether a result is certified; a result that reports converged=True but is
not certified is *miscertified*.  Neither counts as a failure: both are
reported as fractions, so the known certificate defect stays visible.

The sandwich is split the same way.  A failure is a part that must hold for
any output: objective <= reported upper bound (Cauchy-Schwarz), and
L <= objective <= U' where U' is the certificate's bound raised by its
eigenvalue shift, which is rigorous for any certificate.  The parts that
depend on the solver reaching the optimum, L <= objective and L <= reported
upper bound on an uncertified result, are recorded as *shortfalls*: they are
printed with every run but do not fail the task.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

BRUTE_FORCE_MAX_SIDE = 18
CHUNK = 1 << 14
VALUE_RTOL = 1e-9  # computed values that must agree, relative to ||A||_2 sqrt(nm)
PSD_RTOL = 1e-9  # certificate eigenvalue slack, relative to ||A||_2
EIGENVALUE_RTOL = 1e-6  # reported against recomputed min eigenvalue
CLOSED_FORM_RTOL = 1e-7
OPERATOR_ATOL = 1e-8  # Hermitian involution and state entries
SQRT2 = math.sqrt(2.0)


@dataclass
class Verdict:
    """What the oracle found for one task."""

    problems: list = field(default_factory=list)
    shortfalls: list = field(default_factory=list)  # known solver defect, not failures
    quantum: list = field(default_factory=list)  # (converged, certified) per result
    ratio: Optional[float] = None  # the largest Q/L the task reports

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def sandwich(self, label: str, classical: float, value: float, valid_upper: float,
                 tol: float, reported_upper: float = math.inf) -> None:
        """L <= value <= valid_upper must hold; L <= value and
        L <= reported_upper are shortfalls when they do not."""
        self.expect(value <= valid_upper + tol and classical <= valid_upper + tol,
                    f"{label}: L={classical}, value={value}, valid upper bound={valid_upper}")
        if value < classical - tol or reported_upper < classical - tol:
            self.shortfalls.append(f"{label}: L={classical} exceeds value={value}"
                                   + (f" or upper bound={reported_upper}"
                                      if reported_upper < math.inf else ""))


def spectral_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, 2))


def value_tol(A: np.ndarray) -> float:
    """Absolute slack for a bilinear value; ||A||_2 sqrt(nm) bounds |Q|."""
    n, m = A.shape
    return VALUE_RTOL * max(spectral_norm(A), 1.0) * math.sqrt(n * m)


def tensor_power_order(A: np.ndarray) -> Optional[int]:
    """d when A is the d-fold Kronecker power of [[1, 1], [1, -1]]."""
    n, m = A.shape
    if n != m or n < 2 or n & (n - 1):
        return None
    d = n.bit_length() - 1
    H = np.array([[1.0]])
    for _ in range(d):
        H = np.kron(H, np.array([[1.0, 1.0], [1.0, -1.0]]))
    return d if np.array_equal(A, H) else None


def gray_rank(signs: np.ndarray) -> int:
    """Position in Gray order of a sign vector with signs[0] = +1.

    Bit j of the Gray code is set when signs[j + 1] = -1; the position is
    the inverse Gray transform of that code.
    """
    code = 0
    for j, value in enumerate(signs[1:]):
        if value < 0:
            code |= 1 << j
    rank = 0
    while code:
        rank ^= code
        code >>= 1
    return rank


def classical_brute_force(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact max of s^T A t by enumerating every sign vector of the smaller side.

    Returns the maximum, the scanned side (A or A^T), and every maximizing
    sign vector of that side with first entry +1.
    """
    side = A if A.shape[0] <= A.shape[1] else A.T
    n = side.shape[0]
    best, found = -math.inf, []
    # Sign vectors with s[0] = -1 are negations and give the same value.
    for start in range(0, 1 << (n - 1), CHUNK):
        k = np.arange(start, min(1 << (n - 1), start + CHUNK), dtype=np.int64)
        bits = (k[:, None] >> np.arange(n - 1)) & 1
        s = np.ones((k.size, n))
        s[:, 1:] = 1.0 - 2.0 * bits
        values = np.abs(s @ side).sum(axis=1)
        top = float(values.max())
        if top > best:
            best, found = top, [s[values == top]]
        elif top == best:
            found.append(s[values == top])
    return best, side, np.concatenate(found)


def check_classical(verdict: Verdict, A: np.ndarray, report: dict) -> float:
    """Check a classical report; return the best known value of L."""
    tol = value_tol(A)
    results = report["results"]
    bound = float(results["bound"])
    s = np.asarray(results["witness"]["s"], dtype=float)
    t = np.asarray(results["witness"]["t"], dtype=float)
    verdict.expect(s.shape == (A.shape[0],) and t.shape == (A.shape[1],),
                   "classical: witness has the wrong length")
    if s.shape != (A.shape[0],) or t.shape != (A.shape[1],):
        return bound
    verdict.expect(bool(np.all(np.abs(s) == 1) and np.all(np.abs(t) == 1)),
                   "classical: witness entries are not +-1")
    value = float(s @ A @ t)
    verdict.expect(abs(value - bound) <= tol,
                   f"classical: witness value {value} != bound {bound}")
    verdict.expect(abs(float(results["witness"]["value"]) - bound) <= tol,
                   "classical: reported witness value != bound")
    # Neither side can be improved with the other held fixed.
    verdict.expect(float(np.abs(s @ A).sum()) <= bound + tol,
                   "classical: t is not the best response to s")
    verdict.expect(float(np.abs(A @ t).sum()) <= bound + tol,
                   "classical: s is not the best response to t")
    if min(A.shape) > BRUTE_FORCE_MAX_SIDE:
        return bound
    exact, side, maximizers = classical_brute_force(A)
    verdict.expect(abs(exact - bound) <= tol,
                   f"classical: bound {bound} != brute force {exact}")
    if np.array_equal(A, np.round(A)):
        # Integer sums are exact, so ties are real: the witness must be the
        # first maximizer in Gray order, with t_l = +1 where the sum is zero.
        first = min(maximizers, key=gray_rank)
        scanned, other = (s, t) if side is A else (t, s)
        expected_other = np.where(first @ side >= 0.0, 1.0, -1.0)
        verdict.expect(np.array_equal(scanned, first) and np.array_equal(other, expected_other),
                       "classical: witness is not the first maximizer in Gray order")
    return exact


def certificate_min_eigenvalue(A: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Smallest eigenvalue of [[diag(u), -A], [-A^T, diag(v)]]."""
    M = np.block([[np.diag(u), -A], [-A.T, np.diag(v)]])
    return float(np.linalg.eigvalsh(M)[0])


def check_quantum(verdict: Verdict, A: np.ndarray, report: dict, cert: dict,
                  classical: float) -> tuple[float, float]:
    """Check a quantum report and its certificate file.

    Records (converged, certified) and returns the objective and a valid
    upper bound: the reported one, raised by the certificate's eigenvalue
    shift when the certificate is not PSD.  With lambda = min(0, lambda_min),
    M - lambda I is PSD, which certifies (sum u + sum v)/2 - lambda (n+m)/2.
    """
    tol = value_tol(A)
    norm = max(spectral_norm(A), 1.0)
    n, m = A.shape
    results = report["results"]
    objective = float(results["objective"])
    upper = float(results["upper_bound"])
    u = np.asarray(cert["u"], dtype=float)
    v = np.asarray(cert["v"], dtype=float)
    verdict.expect(u.shape == (n,) and v.shape == (m,), "quantum: certificate has the wrong size")
    if u.shape != (n,) or v.shape != (m,):
        return objective, math.inf
    verdict.expect(bool(np.all(u >= 0) and np.all(v >= 0)), "quantum: negative certificate weight")
    verdict.expect(abs((u.sum() + v.sum()) / 2.0 - upper) <= tol,
                   "quantum: upper bound != (sum u + sum v) / 2")
    verdict.expect(abs(float(cert["upper_bound"]) - upper) <= tol,
                   "quantum: certificate and report disagree on the upper bound")
    lam = certificate_min_eigenvalue(A, u, v)
    verdict.expect(abs(lam - float(results["min_eigenvalue"])) <= EIGENVALUE_RTOL * norm,
                   f"quantum: reported min eigenvalue {results['min_eigenvalue']} != {lam}")
    certified = lam >= -PSD_RTOL * norm
    verdict.quantum.append((bool(results["converged"]), certified))
    valid_upper = upper - min(0.0, lam) * (n + m) / 2.0
    verdict.expect(objective <= upper + tol, f"quantum: Q={objective} exceeds U={upper}")
    verdict.sandwich("quantum", classical, objective, valid_upper, tol, reported_upper=upper)
    d = tensor_power_order(A)
    if d is not None:
        exact = 2.0 ** (1.5 * d)
        verdict.expect(abs(objective - exact) <= CLOSED_FORM_RTOL * exact,
                       f"quantum: Q(tensor_power({d})) = {objective}, expected {exact}")
    return objective, valid_upper


def check_certify(verdict: Verdict, A: np.ndarray, outputs: Path) -> tuple[float, float, float]:
    """Classical, quantum and certificate checks; returns (L, Q, valid upper)."""
    classical = check_classical(verdict, A, _report(outputs, "classical"))
    if tensor_power_order(A) == 1:
        verdict.expect(classical == 2.0, f"classical: L(CHSH) = {classical}, expected 2")
    cert = json.loads((outputs / "cert.json").read_text(encoding="utf-8"))
    objective, valid_upper = check_quantum(verdict, A, _report(outputs, "quantum"), cert, classical)
    verdict.expect((outputs / "check_dual.out").is_file(), "check_dual: no verdict")
    if classical > 0:
        verdict.ratio = objective / classical
    return classical, objective, valid_upper


def _complex(array) -> np.ndarray:
    """Decode the [re, im] pair encoding of complex arrays."""
    pairs = np.asarray(array, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def check_realization(verdict: Verdict, A: np.ndarray, outputs: Path,
                      classical: float, valid_upper: float) -> None:
    report = _report(outputs, "realize")["results"]
    doc = json.loads((outputs / "realization.json").read_text(encoding="utf-8"))
    X = _complex(doc["x_observables"])
    Y = _complex(doc["y_observables"])
    D = int(doc["hilbert_dimension"])
    n, m = A.shape
    verdict.expect(X.shape == (n, D, D) and Y.shape == (m, D, D) and report["hilbert_dimension"] == D,
                   "realize: observables have the wrong shape")
    if X.shape != (n, D, D) or Y.shape != (m, D, D):
        return
    eye = np.eye(D)
    for name, ops in (("x", X), ("y", Y)):
        hermitian = np.abs(ops - ops.conj().transpose(0, 2, 1)).max()
        involution = np.abs(ops @ ops - eye).max()
        verdict.expect(hermitian <= OPERATOR_ATOL and involution <= OPERATOR_ATOL,
                       f"realize: {name} observables are not Hermitian involutions")
    # Maximally entangled state, as a density matrix or as a vector.
    state = _complex(doc["state"])
    phi = np.eye(D).reshape(-1) / math.sqrt(D)
    expected = np.outer(phi, phi) if state.ndim == 2 else phi
    verdict.expect(state.shape == expected.shape and np.abs(state - expected).max() <= OPERATOR_ATOL,
                   "realize: state is not maximally entangled")
    # <Phi| X (x) conj(Y) |Phi> = Tr(X Y) / D.
    correlations = np.einsum("kab,lba->kl", X, Y).real / D
    value = float((A * correlations).sum())
    tol = value_tol(A)
    verdict.expect(abs(value - float(report["bell_value"])) <= tol,
                   f"realize: bell value {report['bell_value']} != recomputed {value}")
    verdict.expect(abs(value - float(report["objective"])) <= tol,
                   f"realize: bell value {value} != objective {report['objective']}")
    verdict.sandwich("realize", classical, value, valid_upper, tol)


def expected_expansion(A: np.ndarray) -> dict:
    """Collected coefficients of B^2 over canonical index pairs."""
    n, m = A.shape
    I, K = np.triu_indices(n, 1)
    J, L = np.triu_indices(m, 1)
    forward = A[np.ix_(I, J)] * A[np.ix_(K, L)]
    crossed = A[np.ix_(I, L)] * A[np.ix_(K, J)]
    rows, cols = A @ A.T, A.T @ A
    return {
        "identity": float((A * A).sum()),
        "comm": 0.5 * (forward - crossed),
        "acomm": 0.5 * (forward + crossed),
        "pairs": ((I, K), (J, L)),
        "residual_x": rows[I, K],
        "residual_y": cols[J, L],
    }


def expected_norm(want: dict, commuting: bool) -> float:
    """Triangle-inequality bound sqrt(||B^2||) from the collected terms.

    Commutator and anticommutator products have norm at most 4, single-site
    anticommutators at most 2; commutators drop out for commuting sites.
    """
    total = (want["identity"] + 4.0 * np.abs(want["acomm"]).sum()
             + 2.0 * (np.abs(want["residual_x"]).sum() + np.abs(want["residual_y"]).sum()))
    if not commuting:
        total += 4.0 * np.abs(want["comm"]).sum()
    return math.sqrt(total)


def _terms_match(terms: list, coeffs: np.ndarray, pairs, label: str, verdict: Verdict) -> None:
    """The listed terms are exactly the nonzero coefficients, with their values."""
    (I, K), (J, L) = pairs
    n_index = {(int(i), int(k)): p for p, (i, k) in enumerate(zip(I, K))}
    m_index = {(int(j), int(l)): q for q, (j, l) in enumerate(zip(J, L))}
    seen = np.zeros(coeffs.shape, dtype=bool)
    for (xp, yp, c) in terms:
        p, q = n_index.get(tuple(xp)), m_index.get(tuple(yp))
        if p is None or q is None or seen[p, q] or coeffs[p, q] != c:
            verdict.problems.append(f"expand: bad {label} term {xp} {yp} {c}")
            return
        seen[p, q] = True
    verdict.expect(int(seen.sum()) == int(np.count_nonzero(coeffs)),
                   f"expand: {label} terms missing")


def check_expand(verdict: Verdict, A: np.ndarray, commuting: bool, outputs: Path) -> None:
    report = _report(outputs, "expand")["results"]
    expr = report["expression"]
    want = expected_expansion(A)
    verdict.expect(expr["identity"] == want["identity"], "expand: wrong identity coefficient")
    if commuting:
        verdict.expect(expr["commutators"] == [], "expand: commutators listed with --commuting")
    else:
        _terms_match(expr["commutators"], want["comm"], want["pairs"], "commutator", verdict)
    _terms_match(expr["anticommutators"], want["acomm"], want["pairs"], "anticommutator", verdict)
    (I, K), (J, L) = want["pairs"]
    residual = {("x", int(i), int(k)): float(c)
                for i, k, c in zip(I, K, want["residual_x"]) if c != 0.0}
    residual.update({("y", int(j), int(l)): float(c)
                     for j, l, c in zip(J, L, want["residual_y"]) if c != 0.0})
    listed = {(site, int(i), int(k)): c for site, (i, k), c in expr["residual"]}
    verdict.expect(listed == residual and len(expr["residual"]) == len(residual),
                   "expand: residual terms do not match the row and column products")
    norm = expected_norm(want, commuting)
    bound = float(report["norm_bound"])
    verdict.expect(abs(bound - norm) <= 1e-12 * norm, f"expand: norm bound {bound} != {norm}")
    closed = {(1, False): 2.0 * SQRT2, (2, False): 4.0 * math.sqrt(10.0), (2, True): 8.0}
    key = (tensor_power_order(A), commuting)
    if key in closed:
        verdict.expect(abs(bound - closed[key]) <= 1e-12 * closed[key],
                       f"expand: norm bound {bound}, closed form {closed[key]}")


def check_search(verdict: Verdict, size: tuple, outputs: Path) -> None:
    best = _report(outputs, "search")["results"]["best"]
    entries = np.asarray(best["entries"], dtype=float)
    verdict.expect(entries.shape == tuple(size), "search: best matrix has the wrong size")
    ratio = float(best["ratio"])
    verdict.expect(abs(ratio - best["quantum"] / best["classical"]) <= 1e-12 * ratio,
                   "search: ratio != quantum / classical")
    ledger = [json.loads(line) for line in
              (outputs / "ledger.jsonl").read_text(encoding="utf-8").splitlines()]
    verdict.expect(len(ledger) >= 2 and ledger[-1] == best,
                   "search: ledger does not end with the reported best record")
    improvements = [rec["ratio"] for rec in ledger[:-1]]
    verdict.expect(all(a < b for a, b in zip(improvements, improvements[1:])),
                   "search: ledger improvements are not increasing")
    if tuple(size) == (2, 2):
        verdict.expect(ratio <= SQRT2 * (1.0 + 1e-9), f"search: 2x2 ratio {ratio} exceeds sqrt(2)")
    classical, _, valid_upper = check_certify(verdict, entries, outputs)
    tol = value_tol(entries)
    verdict.expect(abs(best["classical"] - classical) <= tol,
                   f"search: classical {best['classical']} != {classical}")
    verdict.sandwich("search", classical, best["quantum"], valid_upper, tol)
    verdict.ratio = ratio


def check(task, outputs: Path) -> Verdict:
    """Check every output of one task, stored in ``outputs``."""
    verdict = Verdict()
    try:
        if task.kind == "certify":
            check_certify(verdict, task.matrix, outputs)
        elif task.kind == "explain":
            classical, _, valid_upper = check_certify(verdict, task.matrix, outputs)
            check_realization(verdict, task.matrix, outputs, classical, valid_upper)
        elif task.kind == "expand":
            check_expand(verdict, task.matrix, task.commuting, outputs)
        elif task.kind == "search":
            check_search(verdict, task.size, outputs)
        else:
            verdict.problems.append(f"unknown task kind {task.kind!r}")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        verdict.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return verdict


def _report(outputs: Path, step: str) -> dict:
    return json.loads((outputs / f"{step}.out").read_text(encoding="utf-8"))
