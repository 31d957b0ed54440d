"""Command-line frontend with reproducible JSON reports.

Every subcommand prints a single JSON report to standard output carrying the
command name, the tool version, an echo of the inputs (always including the
seed), the results, and, for the built-in matrix families, a comparison
table of reference values against computed ones.  Diagnostics go to standard
error.

Exit codes: 0 success, 2 usage error, 3 size-guard/domain/format error,
4 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
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
from .quantum import quantum_bound, save_certificate
from .realize import bell_value, correlation_matrix, realization_to_json, realize
from .search import ratio_search, record_from_json

USAGE_ERROR = 2
DOMAIN_ERROR = 3
NOT_CONVERGED = 4

SQRT2 = math.sqrt(2.0)


def _comparison(label: str, reference: float, computed: float) -> dict:
    return {
        "label": label,
        "reference": reference,
        "computed": computed,
        "abs_difference": abs(reference - computed),
    }


def _report(command: str, inputs: dict, results: dict, comparisons=None) -> dict:
    inputs.setdefault("seed", None)
    report = {
        "command": command,
        "version": __version__,
        "backend": "numpy",
        "inputs": inputs,
        "results": results,
    }
    if comparisons:
        report["reference_comparison"] = comparisons
    return report


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_matrix_file(path: str) -> CoefficientMatrix:
    with open(path, "rb") as handle:
        return load_matrix(handle)


def _cmd_generate(args) -> int:
    if args.family == "chsh":
        matrix = chsh_matrix()
    else:
        matrix = tensor_power(args.d)
    with open(args.out, "wb") as handle:
        save_matrix(matrix, handle)
    results = {"rows": matrix.rows, "cols": matrix.cols, "path": args.out}
    inputs = {"family": args.family, "d": args.d, "out": args.out}
    _emit(_report("generate", inputs, results))
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
    comparisons = []
    family = detect_family(matrix)
    if family is not None:
        _, d = family
        comparisons.append(
            _comparison(
                "assumed classical maximum 2^(3d/2) in the counting model",
                2.0 ** (1.5 * d),
                result.bound,
            )
        )
    inputs = {"matrix": args.matrix}
    _emit(_report("classical", inputs, results, comparisons))
    return 0


def _cmd_quantum(args) -> int:
    matrix = _load_matrix_file(args.matrix)
    gram_dim = matrix.rows + matrix.cols if args.full_dim else None
    result = quantum_bound(
        matrix,
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
        gram_dim=gram_dim,
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
    comparisons = []
    family = detect_family(matrix)
    if family is not None:
        _, d = family
        if d == 1:
            comparisons.append(
                _comparison(
                    "two-observable quantum maximum 2*sqrt(2)",
                    2.0 * SQRT2,
                    result.primal.objective,
                )
            )
        else:
            comparisons.append(
                _comparison(
                    "counting-model upper estimate 2^d*sqrt(3*2^d-2)",
                    closed_form_bound(d, commuting_sites=False),
                    result.primal.objective,
                )
            )
    inputs = {
        "matrix": args.matrix,
        "restarts": args.restarts,
        "max_iters": args.max_iters,
        "tol": args.tol,
        "seed": args.seed,
        "full_dim": args.full_dim,
    }
    _emit(_report("quantum", inputs, results, comparisons))
    if args.strict and not result.converged:
        print("quantum bound did not converge", file=sys.stderr)
        return NOT_CONVERGED
    return 0


def _cmd_expand(args) -> int:
    matrix = _load_matrix_file(args.matrix)
    expr = square_bell_operator(matrix)
    shown = expr.assuming_commuting() if args.commuting else expr
    bound = norm_estimate(expr, commuting_sites=args.commuting)
    results = {
        "expression": shown.to_json_dict(),
        "norm_bound": bound,
        "commuting_sites": args.commuting,
    }
    comparisons = []
    family = detect_family(matrix)
    if family is not None:
        _, d = family
        if d == 1:
            reference = 2.0 if args.commuting else 2.0 * SQRT2
            label = (
                "two-observable classical limit"
                if args.commuting
                else "two-observable quantum maximum 2*sqrt(2)"
            )
            comparisons.append(_comparison(label, reference, bound))
        else:
            comparisons.append(
                _comparison(
                    "counting-model bound for the tensor-power family",
                    closed_form_bound(d, commuting_sites=args.commuting),
                    bound,
                )
            )
    inputs = {"matrix": args.matrix, "commuting": args.commuting}
    _emit(_report("expand", inputs, results, comparisons))
    return 0


def _cmd_estimate(args) -> int:
    comparisons = []
    if args.normalized:
        value = normalized_violation_estimate(args.d)
        results = {"d": args.d, "normalized": True, "estimate": value}
        if args.d == 2:
            comparisons.append(
                _comparison(
                    "reported four-observable violation estimate", 1.58, value
                )
            )
        comparisons.append(
            _comparison("large-d limit sqrt(3)", math.sqrt(3.0), value)
        )
    else:
        value = closed_form_bound(args.d, commuting_sites=args.commuting)
        results = {
            "d": args.d,
            "commuting": args.commuting,
            "normalized": False,
            "bound": value,
        }
        if args.d == 2:
            reference = 8.0 if args.commuting else 4.0 * math.sqrt(10.0)
            label = (
                "four-observable commuting bound"
                if args.commuting
                else "four-observable operator bound 4*sqrt(10)"
            )
            comparisons.append(_comparison(label, reference, value))
    inputs = {"d": args.d, "commuting": args.commuting, "normalized": args.normalized}
    _emit(_report("estimate", inputs, results, comparisons))
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
        json.dump(realization_to_json(realization), handle)
    results = {
        "bell_value": value,
        "objective": bound.primal.objective,
        "value_error": abs(value - bound.primal.objective),
        "max_correlation_error": corr_error,
        "hilbert_dimension": realization.dim,
        "path": args.out,
    }
    inputs = {"matrix": args.matrix, "seed": args.seed, "out": args.out}
    _emit(_report("realize", inputs, results))
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
    inputs = {
        "n": args.n,
        "m": args.m,
        "iters": args.iters,
        "seed": args.seed,
        "ledger": args.ledger,
    }
    _emit(_report("search", inputs, results))
    return 0


def _cmd_report(args) -> int:
    records = []
    with open(args.ledger, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(record_from_json(line))
    best: Optional[dict] = None
    if records:
        top = max(records, key=lambda rec: rec.ratio)
        best = top.to_json_dict()
    summary = [
        {
            "n": rec.matrix.rows,
            "m": rec.matrix.cols,
            "ratio": rec.ratio,
            "classical": rec.classical,
            "quantum": rec.quantum,
            "iteration_found": rec.iteration_found,
            "seed": rec.seed,
        }
        for rec in records
    ]
    results = {"count": len(records), "best": best, "records": summary}
    inputs = {"ledger": args.ledger}
    _emit(_report("report", inputs, results))
    return 0


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
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full-dim", action="store_true",
                   help="use gram dimension n+m instead of min(n,m)")
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
    except BellboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
