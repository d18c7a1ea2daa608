"""Shared fixtures of the benchmark suite.

The workload (maps + node R*-trees + page store) is built once per
session and shared by all benches; ``REPRO_SCALE`` (default 0.25)
selects the fraction of the paper's 131k/127k objects.  Every bench here
reproduces a table or figure of the paper on its paged index; the packed
in-memory backend is measured by ``python -m perf``.
"""

import pytest

from repro.bench import active_scale, get_workload


@pytest.fixture(scope="session")
def workload():
    return get_workload(active_scale())
