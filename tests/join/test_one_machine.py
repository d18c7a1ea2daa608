"""The simulated SVM machine is built in one place.

The join and the parallel window and kNN queries are workloads on one
machine (:class:`repro.join.parallel.MachineRun` with the
:class:`~repro.join.parallel.SharedMemory` page policy), so its disk
array, global buffer directory, per-processor buffer managers and page
store each have exactly one construction site under ``src/repro``.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
MACHINE_PARTS = ("DiskArray", "GlobalDirectory", "ProcessorBufferManager", "PageStore")


def construction_sites():
    """``(class name, module)`` of every call of a machine part's class."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in MACHINE_PARTS:
                yield name, path.relative_to(SRC).as_posix()


def test_each_machine_part_has_one_construction_site():
    sites = list(construction_sites())
    assert Counter(name for name, _ in sites) == Counter(MACHINE_PARTS), sites
    assert {module for _, module in sites} == {"join/parallel.py"}


def test_queries_paginate_through_the_join_set_up():
    import repro.query

    assert not hasattr(repro.query, "prepare_tree")
