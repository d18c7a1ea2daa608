"""The findings model both analysis passes share.

A :class:`Finding` is one diagnosed problem: which pass produced it,
which rule fired, where, and what happened.  Every finding gates: the
passes report only what must be fixed, so there is one severity and no
accepted-debt file.
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

__all__ = ["Severity", "Finding", "Report"]


class Severity(str, enum.Enum):
    """The one severity a finding has: it gates."""

    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem.

    ``tool``     — which pass produced it (``lint``, ``protocol``);
    ``rule``     — the rule identifier (``DET001``, ``PROT001``);
    ``path``     — the analyzed file;
    ``line``     — 1-based line, or 0 when the finding has no line;
    ``message``  — one human sentence;
    ``context``  — optional extra lines (a counterexample path) rendered
                   indented under the message.
    """

    tool: str
    rule: str
    path: str
    line: int
    message: str
    context: tuple[str, ...] = ()

    severity = Severity.ERROR

    def render(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        head = f"{location}: [{self.rule}] {self.message}"
        return head + "".join(f"\n    {line}" for line in self.context)

    def to_json_dict(self) -> dict:
        return {
            "tool": self.tool,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "context": list(self.context),
        }


@dataclass
class Report:
    """The combined outcome of one gate run.

    ``tool_status`` records per pass what it covered, so a pass that ran
    over nothing is visible in the report instead of silently passing.
    """

    findings: list[Finding] = field(default_factory=list)
    tool_status: dict[str, str] = field(default_factory=dict)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def sorted_findings(self) -> list[Finding]:
        return sorted(self.findings, key=lambda f: (f.path, f.line, f.rule))

    def counts(self) -> dict[str, int]:
        """Findings per rule id."""
        return dict(sorted(Counter(f.rule for f in self.findings).items()))

    @property
    def ok(self) -> bool:
        """True when the gate passes (no finding)."""
        return not self.findings

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "tools": dict(self.tool_status),
            "findings": [f.to_json_dict() for f in self.sorted_findings()],
        }

    def write_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n",
            encoding="utf-8",
        )

    def render(self, limit: int = 200) -> str:
        lines = [
            f"[{tool}] {status}" for tool, status in sorted(self.tool_status.items())
        ]
        shown = self.sorted_findings()[:limit]
        lines.extend(f.render() for f in shown)
        hidden = len(self.findings) - len(shown)
        if hidden > 0:
            lines.append(f"... and {hidden} more finding(s)")
        gate = "ok" if self.ok else f"{len(self.findings)} error(s)"
        lines.append(f"GATE: {gate}")
        return "\n".join(lines)
