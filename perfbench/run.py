#!/usr/bin/env python3
"""bellbound's layered benchmark.

Usage (from the root of a bellbound checkout):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One caller runs the workload's tasks as a closed loop: each task starts when
the previous one has returned.  Every task goes in-process through the
public entry points (``bellbound.cli.run`` and ``check_dual``), and the pass
over the task list repeats until ``--seconds`` is used up (at least three
times).  The first pass warms up and is not timed; its outputs are checked
by the independent oracle, and every later pass must reproduce them byte
for byte.  The cold costs it skips are what ``setup_s`` measures.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and plain passes after the first and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 3  # the untimed first pass, then at least two timed ones

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
    "certified_frac": "fraction",
    "sound_frac": "fraction",
    "best_ratio": "ratio",
}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget; passes stop once it is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_library():
    """Import bellbound from this checkout's sources, never from elsewhere."""
    package = SRC / "bellbound"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a bellbound checkout")
    sys.path.insert(0, str(SRC))
    import bellbound

    if Path(bellbound.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported bellbound from {bellbound.__file__}, not {package}")
    return bellbound


def environment(bellbound) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    kernels = getattr(bellbound, "_kernels", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": kernels.backend() if hasattr(kernels, "backend") else None,
        "bellbound_env": {k: v for k, v in os.environ.items() if k.startswith("BELLBOUND_")},
    }


def measure_setup(work: Path) -> list[tuple[float, float]]:
    """Import-and-first-call (wall, CPU) seconds, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {done.stderr.strip()[-500:]}")
        wall, cpu = done.stdout.split()[-2:]
        times.append((float(wall), float(cpu)))
    return times


def run_passes(workload: str, tasks, scratch: Path, seconds: float, trace: bool):
    """Repeat the task list until the budget is used; keep pass 0's outputs.

    Pass 0 is never traced, so in a traced run the traced and plain passes
    that are compared both come after it."""
    import harness
    import tracing

    runner = harness.TaskRunner(scratch / "work")
    keep = scratch / "keep"
    keep.mkdir()
    tracer = tracing.Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install()
        began = time.perf_counter()
        try:
            outcomes = []
            for index, task in enumerate(tasks):
                outcomes.append(runner.run(task))
                if not passes:
                    shutil.move(str(runner.work), str(keep / f"{index:02d}"))
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "outcomes": outcomes,
                  "wall": sum(o.seconds for o in outcomes)}
        if traced:
            record["layers"] = tracing.layer_metrics(
                tracer.spans, tracer.absent_spans(),
                accepted=sum(o.accepted for o in outcomes),
                bytes_out=sum(o.bytes_out for o in outcomes))
            record["spans"] = tracer.spans
        passes.append(record)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - began) > seconds:
            break
    if tracer is not None:
        write_spans(workload, passes)
    return passes, (tracer.absent if tracer else set())


def write_spans(workload: str, passes) -> None:
    """Write the last traced pass's spans as JSON lines, for inspection."""
    spans = [p for p in passes if p["traced"]][-1]["spans"]
    path = SCRATCH / f"spans-{workload}-{os.getpid()}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "counts": s.counts}) + "\n")


def tally(tasks, passes, verdicts):
    """Attempted and failed task runs; a run fails on a non-zero exit, an
    oracle problem, or output bytes that differ from the first pass."""
    attempted = failed = 0
    problems = []
    for index, task in enumerate(tasks):
        first = passes[0]["outcomes"][index]
        for number, record in enumerate(passes):
            outcome = record["outcomes"][index]
            attempted += 1
            reasons = list(outcome.errors)
            if outcome.digest != first.digest:
                reasons.append("output differs from the first pass")
            reasons += verdicts[index].problems
            if reasons:
                failed += 1
                problems.append(f"pass {number} {task.label}: " + "; ".join(reasons))
    return attempted, failed, problems


def per_pass(passes, field: str) -> float:
    """Time of one timed pass: the sum over tasks of each task's median over
    the passes after the first, so a stall in one task of one pass does not
    count."""
    timed = passes[1:]
    return sum(statistics.median(getattr(p["outcomes"][i], field) for p in timed)
               for i in range(len(timed[0]["outcomes"])))


def certificates(tasks, verdicts) -> tuple[float, float]:
    """Certified and miscertified shares of the quantum results on the
    workload's input matrices.  The certificates a search task takes of its
    own best matrix are checked but not counted: which matrix a search finds
    changes with the seed, and so would these shares."""
    quantum = [q for task, v in zip(tasks, verdicts) if task.kind in ("certify", "explain")
               for q in v.quantum]
    certified = sum(1 for _, ok in quantum if ok)
    miscertified = sum(1 for converged, ok in quantum if converged and not ok)
    return certified / len(quantum), miscertified / len(quantum)


def end_to_end(tasks, passes, verdicts, setup, peak_rss_mb, attempted, failed) -> dict:
    certified, miscertified = certificates(tasks, verdicts)
    ratios = [v.ratio for v in verdicts if v.ratio is not None]
    return {
        "cpu_s": per_pass(passes, "cpu_seconds"),
        "setup_s": statistics.median(cpu for _, cpu in setup),
        "peak_rss_mb": peak_rss_mb,
        "passed_frac": 1.0 - failed / attempted,
        "certified_frac": certified,
        "sound_frac": 1.0 - miscertified,
        "best_ratio": statistics.fmean(ratios),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bellbound = import_library()
    import oracle
    import tracing
    from workloads import tasks_for

    tasks = tasks_for(args.workload, args.seed)
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH, prefix=f"{args.workload}-") as tmp:
        scratch = Path(tmp)
        setup = [] if args.trace else measure_setup(scratch)
        passes, absent = run_passes(args.workload, tasks, scratch, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = [oracle.check(task, scratch / "keep" / f"{i:02d}")
                    for i, task in enumerate(tasks)]
    attempted, failed, problems = tally(tasks, passes, verdicts)

    print(f"workload {args.workload}, seed {args.seed}, {len(tasks)} tasks, "
          f"{len(passes)} passes, trace {args.trace}")
    print("environment " + json.dumps(environment(bellbound), sort_keys=True))
    for index, task in enumerate(tasks):
        times = [p["outcomes"][index].seconds for p in passes[1:]]
        v = verdicts[index]
        print(f"  task {task.label:<22} {statistics.median(times):9.4f} s"
              f"  certified/converged {[(int(ok), int(c)) for c, ok in v.quantum]}"
              f"  ratio {v.ratio if v.ratio is None else round(v.ratio, 6)}")
    print("pass wall seconds: " + " ".join(
        f"{p['wall']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    print("pass cpu seconds: " + " ".join(
        f"{sum(o.cpu_seconds for o in p['outcomes']):.3f}" for p in passes))
    for line in problems:
        print("  FAILED " + line)
    for task, verdict in zip(tasks, verdicts):
        for line in verdict.shortfalls:
            print(f"  SHORTFALL {task.label}: {line}")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes[1:] if not p["traced"]]
        values = tracing.median_metrics([p["layers"] for p in traced])
        values["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                      - statistics.median(p["wall"] for p in plain))
        units = tracing.LAYER_UNITS
        if absent:
            print("absent trace targets: " + ", ".join(sorted(absent)))
    else:
        values = end_to_end(tasks, passes, verdicts, setup, peak_rss_mb, attempted, failed)
        units = END_TO_END_UNITS
        print(f"  wall_s {per_pass(passes, 'seconds'):.6g} s  "
              f"setup_wall_s {statistics.median(wall for wall, _ in setup):.6g} s  "
              f"failed_frac {failed / attempted:.4f} fraction  "
              f"miscertified_frac {certificates(tasks, verdicts)[1]:.4f} fraction")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
