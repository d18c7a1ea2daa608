"""perf — the repository's benchmark, kept outside the code it measures.

``python -m perf run`` drives four paper-scale workloads (``join-full``,
``serve-mix``, ``serve-chaos``, ``shard-mix``) through the public API of
``src/repro``, verifies every answer against brute-force oracles and
prints each metric by name with its unit; ``--trace`` adds a second pass
that times the calls across each layer boundary.  ``python -m perf
compare A.json B.json`` applies the per-metric bounds.  See README.md in
this directory for the metric glossary and the measured noise floor.
"""

import sys
from pathlib import Path

# The benchmark lives outside the package it measures; make the checkout's
# own src/ importable without an install.  In a directory that holds only
# the benchmark this adds nothing, and importing a workload fails.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
