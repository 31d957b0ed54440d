"""Runs one task through bellbound's public entry points.

Every step is a call a user makes: ``bellbound.cli.run(argv)`` with its
standard output captured, or ``check_dual(load_certificate(...))``.  Only
those calls are timed, in wall-clock and in process CPU time; writing
inputs and hashing outputs are not.  Every
name is looked up on its module at call time, so the tracer's wrappers see
the calls.

The task's outputs (each step's standard output plus the files it wrote)
are hashed into one digest; the same inputs must give the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import bellbound.cli
import bellbound.matrices
import bellbound.quantum

from workloads import Task


@dataclass
class Outcome:
    seconds: float = 0.0
    cpu_seconds: float = 0.0  # process CPU time over all threads; excludes steal
    digest: str = ""
    bytes_out: int = 0
    accepted: int = 0  # search improvements, from the ledger
    errors: list = field(default_factory=list)  # empty when every step succeeded


def write_matrix(path: Path, entries) -> None:
    """Write a matrix in the library's JSON document format."""
    doc = {
        "rows": len(entries),
        "cols": len(entries[0]),
        "entries": [[float(v) for v in row] for row in entries],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


class TaskRunner:
    """Executes tasks in a fixed working directory.

    The paths passed to the CLI are the same on every run of a task, so its
    reports are comparable byte for byte.
    """

    def __init__(self, work: Path):
        self.work = work
        self.outcome = Outcome()

    def _cli(self, name: str, argv: list[str]) -> dict | None:
        out, err = io.StringIO(), io.StringIO()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bellbound.cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash fails the task; the benchmark goes on
            code = "exception"
            err.write(traceback.format_exc())
        self.outcome.seconds += time.perf_counter() - start
        self.outcome.cpu_seconds += time.process_time() - cpu
        text = out.getvalue()
        self.outcome.bytes_out += len(text.encode("utf-8"))
        (self.work / f"{name}.out").write_text(text, encoding="utf-8")
        if code != 0:
            self.outcome.errors.append(f"{name}: exit {code}: {err.getvalue().strip()[-500:]}")
            return None
        try:
            return json.loads(text)
        except ValueError:
            self.outcome.errors.append(f"{name}: the report is not JSON")
            return None

    def _check_dual(self, matrix_path: Path, cert_path: Path) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with open(matrix_path, "rb") as handle:
                matrix = bellbound.matrices.load_matrix(handle)
            with open(cert_path, "rb") as handle:
                cert = bellbound.quantum.load_certificate(handle)
            verdict = bellbound.quantum.check_dual(matrix, cert)
        except Exception:  # a crash fails the task; the benchmark goes on
            self.outcome.errors.append("check_dual: " + traceback.format_exc()[-500:])
            return
        finally:
            self.outcome.seconds += time.perf_counter() - start
            self.outcome.cpu_seconds += time.process_time() - cpu
        (self.work / "check_dual.out").write_text(json.dumps(bool(verdict)), encoding="utf-8")

    def _certify(self, matrix_path: Path, seed: int) -> bool:
        cert = self.work / "cert.json"
        if self._cli("classical", ["classical", "--matrix", str(matrix_path)]) is None:
            return False
        argv = ["quantum", "--matrix", str(matrix_path), "--seed", str(seed),
                "--cert-out", str(cert)]
        if self._cli("quantum", argv) is None:
            return False
        self._check_dual(matrix_path, cert)
        return not self.outcome.errors

    def run(self, task: Task) -> Outcome:
        """Run every step of ``task``; outputs land in the working directory."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.outcome = Outcome()
        matrix_path = self.work / "matrix.json"
        if task.matrix is not None:
            write_matrix(matrix_path, task.matrix)

        if task.kind == "certify":
            self._certify(matrix_path, task.seed)
        elif task.kind == "explain":
            if self._certify(matrix_path, task.seed):
                self._cli("realize", ["realize", "--matrix", str(matrix_path),
                                      "--seed", str(task.seed),
                                      "--out", str(self.work / "realization.json")])
        elif task.kind == "expand":
            argv = ["expand", "--matrix", str(matrix_path)]
            self._cli("expand", argv + (["--commuting"] if task.commuting else []))
        elif task.kind == "search":
            n, m = task.size
            report = self._cli("search", [
                "search", "--n", str(n), "--m", str(m), "--iters", str(task.iters),
                "--seed", str(task.seed), "--ledger", str(self.work / "ledger.jsonl")])
            if report is not None:
                ledger = (self.work / "ledger.jsonl").read_text(encoding="utf-8")
                # Every ledger line but the final re-verified record is an improvement.
                self.outcome.accepted = len(ledger.splitlines()) - 1
                write_matrix(matrix_path, report["results"]["best"]["entries"])
                self._certify(matrix_path, task.seed)
        else:
            raise ValueError(f"unknown task kind {task.kind!r}")

        self.outcome.digest = digest(self.work)
        return self.outcome


def digest(directory: Path) -> str:
    """SHA-256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()
