"""Self-tests of the benchmark: ``pytest benchmarks/perf/tests``.

Not collected by the repository's tier-1 suite (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]
