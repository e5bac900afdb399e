"""Benchmark session set-up.

Every ``bench_*.py`` renders one table or figure of the paper's
evaluation from its definition in ``figures.py``.  A malformed
``REPRO_BENCH_SCALE`` stops the session in one line before any bench
runs.
"""

import pytest


def pytest_collection_modifyitems(config, items):
    if not any(item.path.name.startswith("bench_") for item in items):
        return
    # imported only for a bench session: benchmarks/perf/tests runs
    # without src on the path, and figures imports repro
    from figures import bench_scale

    try:
        bench_scale()
    except ValueError as exc:
        raise pytest.UsageError(str(exc)) from None
