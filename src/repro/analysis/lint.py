"""The AST lint engine: file walking, rule driving, suppression.

The engine is deliberately small: it parses each Python file once,
hands the tree to every registered rule (:mod:`repro.analysis.rules`),
and post-filters findings through the suppression comments.  All
project knowledge lives in the rules; all mechanism lives here.

Suppression
-----------
A finding is suppressed when its line carries::

    ...  # repro: noqa[DET002]
    ...  # repro: noqa[DET002, PAIR002]
    ...  # repro: noqa

The bare form silences every rule on that line; the bracketed form only
the named ones.  Suppressions are per-line, never per-file — a file
full of debt shows up in the report, not behind a blanket pragma.

Project index
-------------
Two rules need cross-file knowledge: the trace-event registry (which
``EventKind`` members exist) and the two homes of the invariants (which
ledger events they reconcile).  The :class:`ProjectIndex` resolves both
from the analyzed tree when present (``**/trace/events.py``; the
hand-written checkers in ``**/trace/checkers.py`` and the protocol
specs in ``**/protocol/specs.py``) and falls back to the installed
:mod:`repro` otherwise, so the engine also works on fixture
repositories and external code.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .findings import Finding

__all__ = ["LintContext", "ProjectIndex", "run_lint", "iter_python_files"]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_\-,\s]+)\])?"
)


@dataclass
class ProjectIndex:
    """Cross-file knowledge shared by all rules of one lint run."""

    #: Declared ``EventKind`` member names, or None when unresolvable.
    declared_events: Optional[frozenset[str]] = None
    #: ``EventKind`` members read by a reader of the trace (:data:`READERS`).
    checker_event_refs: Optional[frozenset[str]] = None
    #: Every ``emit(EventKind.X, ...)`` site seen: (path, line, member).
    emit_sites: list[tuple[str, int, str]] = field(default_factory=list)

    @classmethod
    def build(cls, files: Sequence[Path], rel: dict[Path, str]) -> "ProjectIndex":
        events_file = _find_special(files, "events.py")
        declared = refs = None
        if events_file is not None:
            # A tree with its own event registry brings its own readers; a
            # part of the package is read against the installed ones.
            declared = _declared_events_from_source(
                events_file.read_text(encoding="utf-8")
            )
            readers = [
                _find_special(files, f"{name}.py", parent)
                for parent, name in (m.split(".")[-2:] for m in READERS)
            ]
            sources = [r.read_text(encoding="utf-8") for r in readers if r is not None]
            if sources:
                refs = _event_refs_in_source("".join(sources))
        if declared is None:
            declared = _declared_events_installed()
        if refs is None:
            refs = _event_refs_installed()
        return cls(declared_events=declared, checker_event_refs=refs)


#: The readers of the trace as modules of the package: the checkers, the
#: protocol specs, the steal timeline and the serving metrics.  A lint
#: path finds each by its file name and parent directory.
READERS = (
    "trace.checkers",
    "analysis.protocol.specs",
    "trace.timeline",
    "service.metrics",
)


def _find_special(
    files: Sequence[Path], name: str, parent: str = "trace"
) -> Optional[Path]:
    """The file *name*, preferring one directly under *parent*."""
    candidates = [f for f in files if f.name == name]
    for candidate in candidates:
        if candidate.parent.name == parent:
            return candidate
    return candidates[0] if candidates else None


def _declared_events_from_source(source: str) -> Optional[frozenset[str]]:
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "EventKind":
            names = set()
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            return frozenset(names)
    return None


def _declared_events_installed() -> Optional[frozenset[str]]:
    try:
        from ..trace.events import EventKind
    except Exception:  # pragma: no cover - repro.trace always importable here
        return None
    return frozenset(member.name for member in EventKind)


def _event_refs_in_source(source: str) -> frozenset[str]:
    return frozenset(re.findall(r"EventKind\.([A-Z0-9_]+)", source))


def _event_refs_installed() -> Optional[frozenset[str]]:
    try:
        sources = [
            inspect.getsource(importlib.import_module(f"..{m}", __package__))
            for m in READERS
        ]
    except Exception:  # pragma: no cover
        return None
    return _event_refs_in_source("".join(sources))


@dataclass
class LintContext:
    """Everything a rule may look at for one file."""

    path: Path
    rel_path: str
    source: str
    tree: ast.AST
    lines: list[str]
    #: Path components (directories + module stem) used for rule scoping,
    #: e.g. ``{"repro", "sim", "engine"}`` for ``src/repro/sim/engine.py``.
    components: frozenset[str]
    project: ProjectIndex

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


def _suppressed(text: str, rule_id: str) -> bool:
    """Does the source line *text* carry a ``noqa`` for *rule_id*?"""
    match = _NOQA_RE.search(text)
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    return rule_id in {r.strip() for r in rules.split(",")}


def iter_python_files(paths: Iterable[Union[str, Path]]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file() and path.suffix == ".py":
            found.add(path)
    return sorted(found)


def _rel(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def run_lint(
    paths: Sequence[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
) -> tuple[list[Finding], dict]:
    """Run every registered rule over *paths*.

    Returns ``(findings, stats)``; findings are already suppression-
    filtered.  ``select`` restricts to the named rule ids (for tests).
    """
    from .rules import file_rules, project_rules  # late: avoid import cycle

    files = iter_python_files(paths)
    rel = {f: _rel(f) for f in files}
    project = ProjectIndex.build(files, rel)
    wanted = None if select is None else set(select)

    active_file_rules = [
        rule for rule in file_rules() if wanted is None or rule.id in wanted
    ]
    active_project_rules = [
        rule for rule in project_rules() if wanted is None or rule.id in wanted
    ]

    findings: list[Finding] = []
    parse_failures = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            parse_failures += 1
            findings.append(
                Finding(
                    tool="lint",
                    rule="PARSE",
                    path=rel[path],
                    line=exc.lineno or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        parts = list(Path(rel[path]).parts)
        if parts:
            parts[-1] = Path(parts[-1]).stem
        ctx = LintContext(
            path=path,
            rel_path=rel[path],
            source=source,
            tree=tree,
            lines=source.splitlines(),
            components=frozenset(parts),
            project=project,
        )
        for rule in active_file_rules:
            for line, message in rule.check(ctx):
                if _suppressed(ctx.line_text(line), rule.id):
                    continue
                findings.append(
                    Finding(
                        tool="lint",
                        rule=rule.id,
                        path=ctx.rel_path,
                        line=line,
                        message=message,
                    )
                )

    # Project rules see the accumulated index (emit sites etc.).  Their
    # findings are suppressible at the originating line like any other.
    by_rel = {rel[f]: f for f in files}
    for rule in active_project_rules:
        for rel_path, line, message in rule.finalize(project):
            path = by_rel.get(rel_path)
            if path is not None:
                text = path.read_text(encoding="utf-8").splitlines()
                if 1 <= line <= len(text) and _suppressed(text[line - 1], rule.id):
                    continue
            findings.append(
                Finding(
                    tool="lint",
                    rule=rule.id,
                    path=rel_path,
                    line=line,
                    message=message,
                )
            )

    stats = {
        "files": len(files),
        "rules": len(active_file_rules) + len(active_project_rules),
        "parse_failures": parse_failures,
    }
    return findings, stats
