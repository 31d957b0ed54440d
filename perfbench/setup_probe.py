"""Time to import bellbound and finish its first calls, in a fresh process.

Usage: python3 setup_probe.py SRC_DIR WORK_DIR

Prints the elapsed wall-clock and CPU seconds as the last line.  CPU time
excludes time stolen by other guests of a shared host, which wall-clock time
does not.  The first calls write the
CHSH matrix and bound it with the quantum solver, which starts the solver's
thread pool and runs its eigenvalue check once.
"""

import contextlib
import io
import sys
import time

start, cpu = time.perf_counter(), time.process_time()
sys.path.insert(0, sys.argv[1])
import bellbound.cli  # noqa: E402  (the import is what is timed)

matrix = f"{sys.argv[2]}/setup_chsh.json"
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        bellbound.cli.run(["generate", "--family", "chsh", "--out", matrix]),
        bellbound.cli.run(["quantum", "--matrix", matrix]),
    ]
elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
if any(codes):
    sys.exit(f"setup calls failed with exit codes {codes}")
print(f"{elapsed!r} {cpu!r}")
