"""Command-line frontend with reproducible JSON reports.

Every subcommand prints one compact single-line JSON report to standard
output carrying the command name, the tool version, every parsed argument
as an input (always including the seed), the results, and, for the built-in
matrix families and estimate, the paper's numbers from REFERENCES next to
the computed ones.  Diagnostics go to standard error.

Exit codes: 0 success, 2 usage error, 3 size-guard/domain/format error,
4 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .classical import classical_bound
from .errors import BellboundError
from .matrices import (
    CoefficientMatrix,
    chsh_matrix,
    detect_family,
    load_matrix,
    save_matrix,
    tensor_power,
)
from .operators import (
    closed_form_bound,
    norm_estimate,
    normalized_violation_estimate,
    square_bell_operator,
)
from .quantum import DEFAULT_MAX_ITERS, DEFAULT_RESTARTS, DEFAULT_TOL
from .quantum import quantum_bound, save_certificate
from .realize import bell_value, correlation_matrix, realization_to_json, realize
from .search import ratio_search, record_from_json

DOMAIN_ERROR = 3
NOT_CONVERGED = 4

# Stands in for JSON text spliced into a report after encoding.  An echoed
# input may contain it, but the inputs come before the results and no user
# text comes after them, so its last occurrence is the one in the results.
_SPLICE = "@expression@"

# The paper's numbers, shown next to computed ones as (command,
# applies(d, args), label, value(d, args)) rows, in report order.  d is the
# tensor-power order of the input matrix (1 for CHSH) or estimate's --d.
# 2^(3d/2) is exact for Q, since H H^T = 2^d I, but only a Cauchy-Schwarz
# upper bound for L: L(H_8) = 20.
REFERENCES = (
    ("classical", lambda d, a: d == 1, "CHSH local bound 2", lambda d, a: 2.0),
    ("classical", lambda d, a: d >= 2,
     "Cauchy-Schwarz bound 2^(3d/2), attained for even d only",
     lambda d, a: 2.0 ** (1.5 * d)),
    ("quantum", lambda d, a: d >= 2,
     "counting-model upper estimate 2^d*sqrt(3*2^d-2)",
     lambda d, a: closed_form_bound(d, commuting_sites=False)),
    ("quantum", lambda d, a: True, "quantum maximum 2^(3d/2), as H H^T = 2^d I",
     lambda d, a: 2.0 ** (1.5 * d)),
    ("expand", lambda d, a: d == 1 and a.commuting,
     "two-observable classical limit", lambda d, a: 2.0),
    ("expand", lambda d, a: d == 1 and not a.commuting,
     "two-observable quantum maximum 2*sqrt(2)", lambda d, a: 2.0 * math.sqrt(2.0)),
    ("expand", lambda d, a: d >= 2,
     "counting-model bound for the tensor-power family",
     lambda d, a: closed_form_bound(d, commuting_sites=a.commuting)),
    ("estimate", lambda d, a: a.normalized and d == 2,
     "reported four-observable violation estimate", lambda d, a: 1.58),
    ("estimate", lambda d, a: a.normalized,
     "large-d limit sqrt(3)", lambda d, a: math.sqrt(3.0)),
    ("estimate", lambda d, a: not a.normalized and d == 2 and a.commuting,
     "four-observable commuting bound", lambda d, a: 8.0),
    ("estimate", lambda d, a: not a.normalized and d == 2 and not a.commuting,
     "four-observable operator bound 4*sqrt(10)",
     lambda d, a: 4.0 * math.sqrt(10.0)),
)


def _report(
    args, results: dict, d: Optional[int] = None, computed: float = 0.0
) -> dict:
    """The report of a parsed command: every parsed argument echoed as an
    input (the seed always), the results, and the REFERENCES rows that apply
    to order d."""
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    inputs.setdefault("seed", None)
    report = {
        "command": args.command,
        "version": __version__,
        "inputs": inputs,
        "results": results,
    }
    comparisons = []
    for command, applies, label, value in REFERENCES:
        if command == args.command and d is not None and applies(d, args):
            reference = value(d, args)
            comparisons.append({
                "label": label,
                "reference": reference,
                "computed": computed,
                "abs_difference": abs(reference - computed),
            })
    if comparisons:
        report["reference_comparison"] = comparisons
    return report


def _emit(report: dict, splice: Optional[str] = None) -> None:
    text = json.dumps(report, separators=(",", ":"))
    if splice is not None:
        # Written in pieces: the spliced text can run to megabytes.
        marker = json.dumps(_SPLICE)
        at = text.rindex(marker)
        sys.stdout.write(text[:at])
        sys.stdout.write(splice)
        text = text[at + len(marker):]
    sys.stdout.write(text + "\n")


def _load_matrix_file(path: str) -> CoefficientMatrix:
    with open(path, "rb") as handle:
        return load_matrix(handle)


def _order(matrix: CoefficientMatrix) -> Optional[int]:
    """The tensor-power order of a built-in matrix, else None."""
    family = detect_family(matrix)
    return None if family is None else family[1]


def _cmd_generate(args) -> int:
    if args.family == "chsh":
        matrix = chsh_matrix()
    else:
        matrix = tensor_power(args.d)
    with open(args.out, "wb") as handle:
        save_matrix(matrix, handle)
    results = {"rows": matrix.rows, "cols": matrix.cols, "path": args.out}
    _emit(_report(args, results))
    return 0


def _cmd_classical(args) -> int:
    matrix = _load_matrix_file(args.matrix)
    result = classical_bound(matrix)
    results = {
        "bound": result.bound,
        "witness": {
            "s": result.witness.s.tolist(),
            "t": result.witness.t.tolist(),
            "value": result.witness.value,
        },
    }
    _emit(_report(args, results, _order(matrix), result.bound))
    return 0


def _cmd_quantum(args) -> int:
    matrix = _load_matrix_file(args.matrix)
    result = quantum_bound(
        matrix,
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
    )
    if args.cert_out:
        with open(args.cert_out, "wb") as handle:
            save_certificate(result.dual, handle)
    results = {
        "objective": result.primal.objective,
        "upper_bound": result.dual.upper_bound,
        "gap": result.gap,
        "min_eigenvalue": result.dual.min_eigenvalue,
        "converged": result.converged,
        "gram_dimension": result.primal.dimension,
        "sweeps": (len(result.objective_history) - 1) // 2,
    }
    if args.cert_out:
        results["certificate_path"] = args.cert_out
    _emit(_report(args, results, _order(matrix), result.primal.objective))
    if args.strict and not result.converged:
        print("quantum bound did not converge", file=sys.stderr)
        return NOT_CONVERGED
    return 0


def _cmd_expand(args) -> int:
    matrix = _load_matrix_file(args.matrix)
    expr = square_bell_operator(matrix)
    shown = expr.assuming_commuting() if args.commuting else expr
    bound = norm_estimate(shown)
    results = {
        "expression": _SPLICE,
        "norm_bound": bound,
        "commuting_sites": args.commuting,
    }
    report = _report(args, results, _order(matrix), bound)
    _emit(report, splice=shown.to_json())
    return 0


def _cmd_estimate(args) -> int:
    if args.normalized:
        value = normalized_violation_estimate(args.d)
        results = {"d": args.d, "normalized": True, "estimate": value}
    else:
        value = closed_form_bound(args.d, commuting_sites=args.commuting)
        results = {
            "d": args.d,
            "commuting": args.commuting,
            "normalized": False,
            "bound": value,
        }
    _emit(_report(args, results, args.d, value))
    return 0


def _cmd_realize(args) -> int:
    matrix = _load_matrix_file(args.matrix)
    bound = quantum_bound(matrix, seed=args.seed)
    realization = realize(matrix, bound.primal)
    value = bell_value(realization, matrix)
    gram_products = bound.primal.x @ bound.primal.y.T
    corr_error = float(
        np.abs(correlation_matrix(realization) - gram_products).max()
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(realization_to_json(realization)))
    results = {
        "bell_value": value,
        "objective": bound.primal.objective,
        "value_error": abs(value - bound.primal.objective),
        "max_correlation_error": corr_error,
        "hilbert_dimension": realization.dim,
        "path": args.out,
    }
    _emit(_report(args, results))
    if args.strict and not bound.converged:
        print("quantum bound did not converge", file=sys.stderr)
        return NOT_CONVERGED
    return 0


def _cmd_search(args) -> int:
    sink = open(args.ledger, "a", encoding="utf-8") if args.ledger else None
    try:
        best = ratio_search(
            args.n, args.m, args.iters, seed=args.seed, record_sink=sink
        )
    finally:
        if sink is not None:
            sink.close()
    results = {"best": best.to_json_dict()}
    if args.ledger:
        results["ledger"] = args.ledger
    _emit(_report(args, results))
    return 0


def _cmd_report(args) -> int:
    records = []
    with open(args.ledger, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(record_from_json(line))
    docs = [rec.to_json_dict() for rec in records]
    best = max(docs, key=lambda doc: doc["ratio"]) if docs else None
    summary = [{k: v for k, v in doc.items() if k != "entries"} for doc in docs]
    results = {"count": len(records), "best": best, "records": summary}
    _emit(_report(args, results))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbound",
        description="Classical and quantum bounds for correlation inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a built-in coefficient matrix")
    p.add_argument("--family", choices=("chsh", "tensor"), required=True)
    p.add_argument("--d", type=int, default=1, help="tensor power order")
    p.add_argument("--out", required=True, help="output matrix file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("classical", help="exact classical bound with witness")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("quantum", help="certified quantum bound")
    p.add_argument("--matrix", required=True)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cert-out", help="write the dual certificate to a file")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when the bound does not converge")
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("expand", help="square the Bell operator symbolically")
    p.add_argument("--matrix", required=True)
    p.add_argument("--commuting", action="store_true",
                   help="drop same-site commutator terms")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("estimate", help="counting-model bounds for 2^d observables")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--commuting", action="store_true")
    p.add_argument("--normalized", action="store_true",
                   help="normalized violation estimate instead of the raw bound")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("realize", help="build explicit observables and state")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output realization file")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("search", help="search for large violation ratios")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ledger", help="append improvements to this JSON-lines file")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("report", help="summarize a search leaderboard file")
    p.add_argument("--ledger", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BellboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR

