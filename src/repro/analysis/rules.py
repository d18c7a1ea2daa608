"""Project-specific lint rules.

Every rule encodes an invariant the codebase already relies on
implicitly — the kind that was previously enforced by review memory and
is now enforced mechanically:

========  ====================================================================
DET001    no wall-clock reads in deterministic modules (sim/join/faults/
          buffer/storage/trace): seeded fault plans and trace replay depend
          on simulated time only
DET002    no unseeded randomness in deterministic modules: every RNG is a
          ``random.Random(seed)`` owned by the run, never the module-global
          :mod:`random`
TRC001    every ``emit(...)`` names a declared ``EventKind`` member —
          undeclared or string event names silently bypass every checker
TRC002    every emitted ``EventKind`` is read by a reader of the trace — a
          checker, a protocol spec, the steal timeline or the serving
          metrics (:data:`repro.analysis.lint.READERS`) — an unread ledger
          event is a fault class that can be silently lost, and an unread
          event that repeats a count is kept twice
PAIR002   every ``.acquire()`` has a ``try/finally`` releasing it — a
          leaked latch deadlocks the simulated machine
FORK001   no writes to fork-inherited module globals outside registered
          initializers (functions named ``*init*``/``*fork*``) — two live
          pools clobbering one registry was a real bug class; worker state
          travels as ``Process(args=...)`` (:mod:`repro.recovery.procs`),
          so no module has a parking spot left to sanction
ASYNC001  no blocking calls (``time.sleep``, ``subprocess``, ``os.system``,
          bare ``open``) inside ``async def`` in the serving layer — one
          blocked event loop stalls every in-flight request
========  ====================================================================

Rules yield ``(line, message)``; the engine turns them into findings
(every one gates) and applies suppression.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from .lint import LintContext, ProjectIndex

__all__ = ["Rule", "ProjectRule", "file_rules", "project_rules"]

#: Path components whose modules must stay deterministic (``datagen``: the
#: seeded draw stream is the data set every pinned number depends on).
DETERMINISTIC_COMPONENTS = frozenset(
    {"sim", "join", "faults", "buffer", "storage", "trace",
     "recovery", "shard", "rtree", "datagen"}
)
#: Path components of the async serving layer.
SERVICE_COMPONENTS = frozenset({"service"})

_FILE_RULES: list["Rule"] = []
_PROJECT_RULES: list["ProjectRule"] = []


class Rule:
    """One per-file rule: an id and a ``check`` generator."""

    id = "RULE000"
    description = ""

    def check(self, ctx: LintContext) -> Iterator[tuple[int, str]]:
        raise NotImplementedError


class ProjectRule:
    """A rule that needs the whole-project index; runs after all files."""

    id = "RULE000"
    description = ""

    def finalize(
        self, project: ProjectIndex
    ) -> Iterator[tuple[str, int, str]]:
        raise NotImplementedError


def _register(rule_cls):
    instance = rule_cls()
    if isinstance(instance, ProjectRule):
        _PROJECT_RULES.append(instance)
    else:
        _FILE_RULES.append(instance)
    return rule_cls


def file_rules() -> list[Rule]:
    return list(_FILE_RULES)


def project_rules() -> list[ProjectRule]:
    return list(_PROJECT_RULES)


# -- shared AST helpers --------------------------------------------------------
def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Attribute/Name chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _calls_with_attr(node: ast.AST, attr: str) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == attr
        ):
            yield sub


def _try_finalbody_references(node: ast.AST, attrs: frozenset[str]) -> bool:
    """Does any Try in *node* reference one of *attrs* in its finalbody?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Try) and sub.finalbody:
            for stmt in sub.finalbody:
                for inner in ast.walk(stmt):
                    if (
                        isinstance(inner, ast.Attribute)
                        and inner.attr in attrs
                    ):
                        return True
    return False


def _in_scope(ctx: LintContext, components: frozenset[str]) -> bool:
    return bool(ctx.components & components)


# -- determinism ---------------------------------------------------------------
_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)


@_register
class WallClockRule(Rule):
    id = "DET001"
    description = "wall-clock read in a deterministic module"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, str]]:
        if not _in_scope(ctx, DETERMINISTIC_COMPONENTS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            tail2 = ".".join(name.split(".")[-2:])
            if tail2 in _WALLCLOCK_CALLS:
                yield (
                    node.lineno,
                    f"wall-clock call {name}() in a deterministic module; "
                    f"use the simulation clock (env.now) or an injected "
                    f"clock callable",
                )


_GLOBAL_RNG_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "paretovariate",
        "getrandbits",
        "seed",
    }
)


@_register
class UnseededRandomRule(Rule):
    id = "DET002"
    description = "unseeded randomness in a deterministic module"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, str]]:
        if not _in_scope(ctx, DETERMINISTIC_COMPONENTS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            # The module-global RNG: random.random(), random.shuffle(), ...
            if (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _GLOBAL_RNG_FNS
            ):
                yield (
                    node.lineno,
                    f"{name}() uses the process-global RNG; construct a "
                    f"random.Random(seed) owned by the run so replay is "
                    f"deterministic",
                )
            # numpy's module-global RNG.
            elif (
                len(parts) >= 3
                and parts[-3] in ("numpy", "np")
                and parts[-2] == "random"
            ):
                yield (
                    node.lineno,
                    f"{name}() uses numpy's global RNG; use a seeded "
                    f"Generator (np.random.default_rng(seed))",
                )
            # random.Random() with no seed is just as nondeterministic.
            elif name in ("random.Random", "Random") and not node.args:
                yield (
                    node.lineno,
                    "random.Random() without a seed is nondeterministic; "
                    "pass an explicit seed",
                )
            elif parts[-1] == "SystemRandom":
                yield (
                    node.lineno,
                    "SystemRandom is nondeterministic by design and cannot "
                    "be replayed",
                )


# -- trace discipline ----------------------------------------------------------
def _emit_event_arg(call: ast.Call) -> Optional[ast.AST]:
    """The event argument of an ``emit``-like call, if any."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "kind":
            return keyword.value
    return None


@_register
class DeclaredEventRule(Rule):
    id = "TRC001"
    description = "emit() of an undeclared trace event"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, str]]:
        declared = ctx.project.declared_events
        for attr in ("emit", "_emit"):
            for call in _calls_with_attr(ctx.tree, attr):
                arg = _emit_event_arg(call)
                if arg is None:
                    continue
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    yield (
                        call.lineno,
                        f"emit() with string event name {arg.value!r}; "
                        f"declare and use an EventKind member so checkers "
                        f"and sinks can dispatch on it",
                    )
                    continue
                name = _dotted_name(arg)
                if name is None or "." not in name:
                    continue  # a variable; resolved dynamically
                head, member = name.rsplit(".", 1)
                if head.split(".")[-1] != "EventKind":
                    continue
                ctx.project.emit_sites.append(
                    (ctx.rel_path, call.lineno, member)
                )
                if declared is not None and member not in declared:
                    yield (
                        call.lineno,
                        f"emit() of EventKind.{member}, which is not "
                        f"declared in repro.trace.events",
                    )


@_register
class LedgerCounterpartRule(ProjectRule):
    id = "TRC002"
    description = "emitted event read by no checker, spec, timeline or metrics"

    def finalize(
        self, project: ProjectIndex
    ) -> Iterator[tuple[str, int, str]]:
        refs = project.checker_event_refs
        if refs is None:
            return
        declared = project.declared_events
        for path, line, member in project.emit_sites:
            if declared is not None and member not in declared:
                continue  # TRC001's finding
            if member not in refs:
                yield (
                    path,
                    line,
                    f"EventKind.{member} is emitted but read by no trace "
                    f"checker, protocol spec, timeline or service metrics "
                    f"— no ledger can reconcile it, and a count it repeats "
                    f"is kept twice",
                )


# -- pairing -------------------------------------------------------------------
@_register
class AcquireReleaseRule(Rule):
    id = "PAIR002"
    description = "acquire() without a releasing try/finally"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, str]]:
        for function in _functions(ctx.tree):
            acquires = list(_calls_with_attr(function, "acquire"))
            if not acquires:
                continue
            if _try_finalbody_references(function, frozenset({"release"})):
                continue
            for call in acquires:
                target = _dotted_name(call.func)
                yield (
                    call.lineno,
                    f"{target or 'resource'}() is acquired without a "
                    f"try/finally release in this function — an exception "
                    f"mid-hold leaks the lock/latch and deadlocks waiters",
                )


# -- fork safety ---------------------------------------------------------------
@_register
class ForkGlobalWriteRule(Rule):
    id = "FORK001"
    description = "write to a fork-inherited global outside an initializer"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, str]]:
        if not self._uses_fork(ctx.tree):
            return
        module_globals = self._module_level_names(ctx.tree)
        for function in _functions(ctx.tree):
            declared_global: set[str] = set()
            for node in ast.walk(function):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            if self._is_initializer(function.name):
                continue
            for node in ast.walk(function):
                target_name = self._global_write_target(
                    node, declared_global, module_globals
                )
                if target_name is None:
                    continue
                yield (
                    node.lineno,
                    f"write to fork-inherited module global "
                    f"{target_name!r} outside a registered initializer; "
                    f"pass the state to the workers as their start "
                    f"argument instead of parking it in a global",
                )

    @staticmethod
    def _uses_fork(tree: ast.AST) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(a.name == "multiprocessing" for a in node.names):
                    return True
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.startswith("multiprocessing"):
                    return True
        return False

    @staticmethod
    def _module_level_names(tree: ast.AST) -> set[str]:
        names: set[str] = set()
        for stmt in getattr(tree, "body", []):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    names.add(stmt.target.id)
        return names

    @staticmethod
    def _is_initializer(name: str) -> bool:
        lowered = name.lower()
        return "init" in lowered or "fork" in lowered

    @staticmethod
    def _global_write_target(
        node: ast.AST, declared_global: set[str], module_globals: set[str]
    ) -> Optional[str]:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                # X = ... under a `global X` declaration.
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    return target.id
                # X[...] = ... on a module-level name (no `global` needed).
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in module_globals
                ):
                    return target.value.id
        return None


# -- async discipline ----------------------------------------------------------
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
    }
)


@_register
class BlockingInAsyncRule(Rule):
    id = "ASYNC001"
    description = "blocking call inside async def in the serving layer"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, str]]:
        if not _in_scope(ctx, SERVICE_COMPONENTS):
            return
        for function in _functions(ctx.tree):
            if not isinstance(function, ast.AsyncFunctionDef):
                continue
            for node in self._own_nodes(function):
                if not isinstance(node, ast.Call):
                    continue
                name = _dotted_name(node.func)
                if name is None:
                    continue
                if name in _BLOCKING_CALLS or name.startswith("subprocess."):
                    yield (
                        node.lineno,
                        f"blocking call {name}() inside async def "
                        f"{function.name}; it stalls the event loop — use "
                        f"the async equivalent or run_in_executor",
                    )
                elif name == "open":
                    yield (
                        node.lineno,
                        f"blocking file open() inside async def "
                        f"{function.name}; file I/O on the event loop "
                        f"stalls every in-flight request — do it off-loop",
                    )

    @staticmethod
    def _own_nodes(function: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Walk the async body without descending into nested sync defs
        (those run off-loop via executors by convention)."""
        stack: list[ast.AST] = list(function.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))
