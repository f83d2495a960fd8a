"""The repository's one benchmark: ``python -m bench``.

Four named workloads, one set of end-to-end metrics, and a per-layer
table whose self times add up to the op latency. ``BENCHMARK.json`` at
the repository root is the contract (names, units, directions, bounds);
``bench/README.md`` says why each workload exists and what each layer
metric is predicted to move.

The system under test lives in ``src/`` (a src layout, never installed),
so importing this package puts that directory on ``sys.path``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

_SRC = ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
