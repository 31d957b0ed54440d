"""In-memory span tracing of bellbound's layers, and the per-layer metrics.

The tracer replaces each traced function at every module attribute it is
called through (for example ``bellbound.cli.quantum_bound`` and
``bellbound.search.quantum_bound``) with a wrapper that records a span:
name, start, end, parent, plus counts taken from the call's arguments or
result.  ``uninstall`` puts the originals back.  A target that no longer
exists is listed in ``absent`` and the metrics that need it are left out.

The solver runs its restarts in pool threads.  A span opened in a thread
with no open span of its own takes the caller thread's innermost open span
as its parent, so sweep time is busy time summed over threads and can exceed
the span of the enclosing ``quantum_bound`` call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _candidates(args, result):
    return {"candidates": 2 ** (args[0].shape[0] - 1)}


def _sweeps(args, result):
    return {"sweeps": (len(result[0]) - 1) // 2}


def _converged(args, result):
    return {"converged": int(result.converged)}


def _dense_bytes(args, result):
    return {"dense_bytes": args[0].dim ** 4 * 16}


def _terms(args, result):
    return {"terms": len(result.comm_terms) + len(result.acomm_terms) + len(result.residual_terms)}


# (module, attribute, span name, counter).  Each function is wrapped at every
# module attribute it is called through.
TARGETS = (
    ("bellbound.cli", "run", "cli.run", None),
    ("bellbound.cli", "load_matrix", "matrices.io", None),
    ("bellbound.cli", "save_matrix", "matrices.io", None),
    ("bellbound.matrices", "load_matrix", "matrices.io", None),
    ("bellbound.cli", "classical_bound", "classical.bound", None),
    ("bellbound.search", "classical_bound", "classical.bound", None),
    ("bellbound._kernels", "gray_scan", "classical.scan", _candidates),
    ("bellbound.cli", "quantum_bound", "quantum.bound", _converged),
    ("bellbound.search", "quantum_bound", "quantum.bound", _converged),
    ("bellbound._kernels", "alternating_sweeps", "quantum.sweeps", _sweeps),
    ("bellbound._kernels", "jacobi_eigenvalues", "quantum.eig", None),
    ("bellbound.quantum", "check_dual", "quantum.check_dual", None),
    ("bellbound.cli", "realize", "realize.build", None),
    ("bellbound.cli", "bell_value", "realize.bell_value", _dense_bytes),
    ("bellbound.cli", "correlation_matrix", "realize.correlation", None),
    ("bellbound.cli", "realization_to_json", "realize.json", None),
    ("bellbound.cli", "square_bell_operator", "operators.square", _terms),
    ("bellbound.cli", "norm_estimate", "operators.norm", None),
    ("bellbound.operators", "OperatorExpression.to_json_dict", "operators.json", None),
    ("bellbound.cli", "ratio_search", "search.run", None),
    ("bellbound.search", "_evaluate", "search.evaluate", None),
)


class Tracer:
    """Records spans from the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._caller = self._stack()  # the thread that creates the tracer
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, start: float) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._caller[-1] if self._caller else None)
        span = Span(next(self._ids), name, start, parent=parent.id if parent else None)
        stack.append(span)
        return span

    def close(self, span: Span, end: float) -> None:
        span.end = end
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, time.perf_counter())
            if counter is not None:
                try:
                    span.counts = counter(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the traced API changed; its count is left out
            return result

        return traced

    def install(self) -> None:
        for module_name, attribute, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.add(f"{module_name}.{attribute}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def absent_spans(self) -> set[str]:
        """Span names whose every target is missing."""
        present = {name for m, a, name, _ in TARGETS if f"{m}.{a}" not in self.absent}
        return {name for _, _, name, _ in TARGETS} - present


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children's spans cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered, reach = 0.0, span.start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


# Per-layer metric names with their units, in report order.
LAYER_UNITS = {
    "classical.scan_s": "s",
    "classical.candidates": "count",
    "classical.candidates_per_s": "1/s",
    "quantum.sweep_s": "s",
    "quantum.sweeps": "count",
    "quantum.restarts": "count",
    "quantum.self_s": "s",
    "quantum.psd_s": "s",
    "quantum.check_dual_s": "s",
    "quantum.converged_ratio": "fraction",
    "realize.busy_s": "s",
    "realize.bell_value_s": "s",
    "realize.correlation_s": "s",
    "realize.json_s": "s",
    "realize.dense_bytes": "B",
    "operators.square_s": "s",
    "operators.terms": "count",
    "operators.norm_s": "s",
    "operators.json_s": "s",
    "search.evals": "count",
    "search.accepted": "count",
    "search.accept_ratio": "fraction",
    "search.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "matrices.io_s": "s",
    "trace.overhead_s": "s",
}

# Span names each metric is computed from; a metric is absent when one is.
NEEDS = {
    "classical.scan_s": ("classical.scan",),
    "classical.candidates": ("classical.scan",),
    "classical.candidates_per_s": ("classical.scan",),
    "quantum.sweep_s": ("quantum.sweeps",),
    "quantum.sweeps": ("quantum.sweeps",),
    "quantum.restarts": ("quantum.sweeps",),
    "quantum.self_s": ("quantum.bound",),
    "quantum.psd_s": ("quantum.eig", "quantum.bound"),
    "quantum.check_dual_s": ("quantum.check_dual",),
    "quantum.converged_ratio": ("quantum.bound",),
    "realize.busy_s": ("realize.build",),
    "realize.bell_value_s": ("realize.bell_value",),
    "realize.correlation_s": ("realize.correlation",),
    "realize.json_s": ("realize.json",),
    "realize.dense_bytes": ("realize.bell_value",),
    "operators.square_s": ("operators.square",),
    "operators.terms": ("operators.square",),
    "operators.norm_s": ("operators.norm",),
    "operators.json_s": ("operators.json",),
    "search.evals": ("search.evaluate",),
    "search.accept_ratio": ("search.evaluate",),
    "search.self_s": ("search.run",),
    "cli.self_s": ("cli.run",),
    "matrices.io_s": ("matrices.io",),
}


def layer_metrics(spans: list[Span], absent: set[str], accepted: int, bytes_out: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``accepted`` (search improvements, read from the ledgers) and
    ``bytes_out`` (CLI report bytes) are counted by the harness.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.seconds for s in named(name))

    def self_total(name):
        return sum(self_seconds(s, children.get(s.id, [])) for s in named(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    def inside(span, name):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    scan_s = total("classical.scan")
    candidates = count("classical.scan", "candidates")
    bounds = named("quantum.bound")
    evals = len(named("search.evaluate"))
    realize_layer = ("realize.build", "realize.bell_value", "realize.correlation", "realize.json")
    values = {
        "classical.scan_s": scan_s,
        "classical.candidates": candidates,
        "classical.candidates_per_s": candidates / scan_s if scan_s > 0 else 0.0,
        "quantum.sweep_s": total("quantum.sweeps"),
        "quantum.sweeps": count("quantum.sweeps", "sweeps"),
        "quantum.restarts": len(named("quantum.sweeps")),
        "quantum.self_s": self_total("quantum.bound"),
        "quantum.psd_s": sum(s.seconds for s in named("quantum.eig")
                             if inside(s, "quantum.bound")),
        "quantum.check_dual_s": total("quantum.check_dual"),
        "quantum.converged_ratio": (count("quantum.bound", "converged") / len(bounds)
                                    if bounds else 0.0),
        "realize.busy_s": sum(total(name) for name in realize_layer),
        "realize.bell_value_s": total("realize.bell_value"),
        "realize.correlation_s": total("realize.correlation"),
        "realize.json_s": total("realize.json"),
        "realize.dense_bytes": max((s.counts.get("dense_bytes", 0)
                                    for s in named("realize.bell_value")), default=0),
        "operators.square_s": total("operators.square"),
        "operators.terms": count("operators.square", "terms"),
        "operators.norm_s": total("operators.norm"),
        "operators.json_s": total("operators.json"),
        "search.evals": evals,
        "search.accepted": accepted,
        "search.accept_ratio": accepted / evals if evals else 0.0,
        "search.self_s": self_total("search.run"),
        "cli.self_s": self_total("cli.run"),
        "cli.bytes_out": bytes_out,
        "matrices.io_s": total("matrices.io"),
    }
    for metric, needed in NEEDS.items():
        if any(name in absent for name in needed):
            del values[metric]
    return values


def median_metrics(passes: list[dict]) -> dict:
    """Median of each metric over traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
