import os

# Pin OpenBLAS to one thread before any test module loads numpy; importing
# bellbound after numpy would set this too late for the running process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")
