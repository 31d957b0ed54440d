import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark's modules, and bellbound from this checkout's sources.
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
