"""Project-aware static analysis: one gate, ``python -m repro.analysis``.

* :mod:`repro.analysis.lint` — an AST lint engine with a rule registry
  and ``# repro: noqa[RULE]`` suppression.  Its seven rules
  (:mod:`repro.analysis.rules`) enforce invariants the codebase relies on
  implicitly: determinism of the simulation paths, trace-event
  discipline, acquire/release pairing, fork safety, and no blocking calls
  inside the async serving engine.
* :mod:`repro.analysis.protocol` — the three protocol specs, the bounded
  model checker that proves their safety properties, and the conformance
  monitors compiled from them that ride in every traced run's checker set.

Both report through one findings model (:mod:`repro.analysis.findings`);
every finding gates.
"""

from __future__ import annotations

from .findings import Finding, Report, Severity
from .lint import run_lint

__all__ = ["Finding", "Report", "Severity", "run_lint"]
