"""The benchmark's workloads: task lists generated from a seed.

This module does not import bellbound.  It builds the coefficient matrices
itself, so the library only ever receives the generated input files.

Every workload opens with the same CHSH prelude, which runs each subcommand
once on the 2x2 matrix.  It keeps the closed-form checks (L = 2, Q = 2*sqrt(2),
a 2x2 search ratio of at most sqrt(2)) in every run and touches every layer,
at about 1% of a pass.  The prelude does not depend on the seed, so it adds
nothing to the run-to-run spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

WORKLOADS = ("certify", "search", "explain")

# Task kinds and the steps the harness runs for each:
#   certify  classical, quantum --cert-out, check_dual(load_certificate(...))
#   explain  the certify steps, then realize --out
#   expand   expand, with --commuting when the task says so
#   search   search --ledger, then the certify steps on the best matrix found
KINDS = ("certify", "explain", "expand", "search")

CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])

# Search sizes with the iteration budget each gets in one pass.
SEARCH_SIZES = ((2, 200), (5, 100), (8, 60))
PRELUDE_SEARCH_ITERS = 8


@dataclass(frozen=True, eq=False)
class Task:
    """One closed-loop unit of work: its steps run back to back."""

    label: str
    kind: str
    seed: int
    matrix: Optional[np.ndarray] = None
    commuting: bool = False
    size: tuple[int, int] = (0, 0)
    iters: int = 0


def tensor_power(d: int) -> np.ndarray:
    """d-fold Kronecker power of the CHSH matrix (Sylvester-Hadamard)."""
    out = CHSH
    for _ in range(d - 1):
        out = np.kron(out, CHSH)
    return out


def _gaussian(seed: int, index: int, rows: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return rng.standard_normal((rows, cols))


def _signs(seed: int, index: int, rows: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return rng.choice(np.array([-1.0, 1.0]), size=(rows, cols))


def prelude() -> list[Task]:
    """The same smoke tasks in every run, with solver and search seed 0."""
    return [
        Task("chsh", "explain", 0, matrix=CHSH),
        Task("chsh-expand", "expand", 0, matrix=CHSH),
        Task("chsh-search", "search", 0, size=(2, 2), iters=PRELUDE_SEARCH_ITERS),
    ]


def certify_tasks(seed: int) -> list[Task]:
    tasks = [Task(f"tp{d}", "certify", seed, matrix=tensor_power(d)) for d in (2, 3, 4)]
    for index, (rows, cols) in enumerate(((12, 12), (16, 16), (20, 20), (22, 22), (21, 32))):
        tasks.append(
            Task(f"gauss{rows}x{cols}", "certify", seed,
                 matrix=_gaussian(seed, index, rows, cols))
        )
    # Integer entries: exercises the first-maximizer-in-Gray-order tie-break.
    tasks.append(Task("signs18x18", "certify", seed, matrix=_signs(seed, 100, 18, 18)))
    return tasks


def search_tasks(seed: int) -> list[Task]:
    return [
        Task(f"search{n}x{n}", "search", seed, size=(n, n), iters=iters)
        for n, iters in SEARCH_SIZES
    ]


def explain_tasks(seed: int) -> list[Task]:
    tasks = [Task(f"tp{d}", "explain", seed, matrix=tensor_power(d)) for d in (2, 3)]
    # Gram dimension 8 gives Hilbert dimension D = 16; 9 gives D = 32.
    tasks.append(Task("gauss8x8", "explain", seed, matrix=_gaussian(seed, 0, 8, 8)))
    tasks.append(Task("gauss9x9", "explain", seed, matrix=_gaussian(seed, 1, 9, 9)))
    for d in (2, 3, 4):
        for commuting in (False, True):
            suffix = "-commuting" if commuting else ""
            tasks.append(
                Task(f"expand-tp{d}{suffix}", "expand", seed,
                     matrix=tensor_power(d), commuting=commuting)
            )
    # tensor_power(5) runs once: both modes expand the same 32x32 operator.
    tasks.append(
        Task("expand-tp5-commuting", "expand", seed,
             matrix=tensor_power(5), commuting=True)
    )
    return tasks


def tasks_for(workload: str, seed: int) -> list[Task]:
    """The task list of one pass of ``workload``, generated from ``seed``."""
    task_lists = {"certify": certify_tasks, "search": search_tasks, "explain": explain_tasks}
    if workload not in task_lists:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError("the seed must be non-negative")
    return prelude() + task_lists[workload](seed)
