"""The simulated machine is fault-free, as the paper's is.

Crash recovery has one implementation, the forked join's
(:mod:`repro.join.mp` on :mod:`repro.recovery`).  The simulators and the
simulated storage below them import nothing from the recovery or fault
layers and name none of their classes, and the page module holds the
paper's page layout only.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
FAULT_FREE = (
    "join/parallel.py",
    "join/shared_nothing.py",
    "buffer",
    "storage",
    "query/parallel.py",
)
FORBIDDEN = ("repro.recovery", "repro.faults")
RECOVERY_NAMES = re.compile(
    r"\b(LeaseTable|ResultLedger|JoinJournal|FaultInjector|PageIntegrityStore)\b"
)


def fault_free_modules():
    for entry in FAULT_FREE:
        path = SRC / entry
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def imported_modules(path):
    """Absolute names of every module *path* imports from."""
    package = path.relative_to(SRC.parent).parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            yield ".".join([*base, *([node.module] if node.module else [])])


def test_the_guard_sees_the_modules_and_resolves_relative_imports():
    names = {path.relative_to(SRC).as_posix() for path in fault_free_modules()}
    assert {"join/parallel.py", "storage/page.py", "buffer/local.py"} <= names
    # The forked join is where recovery lives: the resolver must see it.
    assert "repro.recovery.lease" in set(
        imported_modules(SRC / "join" / "mp.py")
    )


def test_simulators_import_no_recovery_or_fault_layer():
    offenders = {
        path.relative_to(SRC).as_posix(): module
        for path in fault_free_modules()
        for module in imported_modules(path)
        if any(module == f or module.startswith(f + ".") for f in FORBIDDEN)
    }
    assert offenders == {}


def test_simulators_name_no_recovery_class():
    offenders = {
        path.relative_to(SRC).as_posix(): match.group(0)
        for path in fault_free_modules()
        for match in RECOVERY_NAMES.finditer(path.read_text(encoding="utf-8"))
    }
    assert offenders == {}


def test_page_module_is_the_layout():
    tree = ast.parse((SRC / "storage" / "page.py").read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert defined - {"__all__"} == {
        "PageKind", "StorageParams", "DEFAULT_STORAGE",
    }
    from repro.storage import page

    assert sorted(page.__all__) == sorted(defined - {"__all__"})
