"""Make the benchmark's modules and the package under src/ importable for its tests."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
