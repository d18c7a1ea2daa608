"""``python -m repro.analysis [PATH ...] [--json FILE]`` — the analysis gate.

One command, two passes: the seven lint rules over PATH (default: the
``repro`` package this module belongs to, wherever the command is run
from), then the protocol model check — every safety property of every
spec proved, every planted spec mutation caught.

Exit codes: **0** — no finding; **1** — findings (every finding gates);
**2** — the analysis itself failed: a PATH that does not exist, PATHs
that hold no ``.py`` file, or an internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .findings import Finding, Report
from .lint import run_lint
from .protocol import MUTATIONS, SPECS, check_spec, format_counterexample, get_spec

PACKAGE = Path(__file__).resolve().parents[1]
_SPECS_PATH = str(PACKAGE / "analysis" / "protocol" / "specs.py")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project lint rules, then the protocol model check.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the full JSON report to FILE",
    )
    return parser


def _run_lint_into(report: Report, paths) -> int:
    """Lint *paths* into *report*; returns the number of files read."""
    findings, stats = run_lint(paths)
    report.extend(findings)
    report.tool_status["lint"] = (
        f"ok: {stats['files']} file(s), {stats['rules']} rule(s), "
        f"{len(findings)} finding(s)"
    )
    return stats["files"]


def _protocol_finding(rule: str, message: str, context=()) -> Finding:
    return Finding("protocol", rule, _SPECS_PATH, 0, message, tuple(context))


def _run_protocol_into(report: Report) -> None:
    proved = declared = caught = 0
    for spec in SPECS:
        result = check_spec(spec)
        declared += len(result.properties)
        proved += sum(result.properties.values())
        if result.truncated:
            report.findings.append(
                _protocol_finding(
                    "PROT003",
                    f"spec {spec.name!r}: state space exceeded "
                    f"{result.states_explored} states — add a bound",
                )
            )
        for failure in result.failures:
            report.findings.append(
                _protocol_finding(
                    "PROT001",
                    f"spec {spec.name!r} violates safety property "
                    f"{failure.prop!r}: {failure.description}",
                    format_counterexample(spec, failure).splitlines(),
                )
            )
    for mutation in MUTATIONS:
        result = check_spec(mutation.apply(get_spec(mutation.spec_name)))
        if result.properties.get(mutation.expect_property, True):
            report.findings.append(
                _protocol_finding(
                    "PROT002",
                    f"planted mutation {mutation.name!r} "
                    f"({mutation.description}) produced no counterexample "
                    f"for {mutation.expect_property!r} — the model checker "
                    "is too weak to trust",
                )
            )
        else:
            caught += 1
    report.tool_status["protocol"] = (
        f"ok: {proved}/{declared} properties proved across "
        f"{len(SPECS)} spec(s), {caught}/{len(MUTATIONS)} mutations caught"
    )


def _fail(reason: str) -> int:
    print(f"analysis failed: {reason}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    paths = args.paths or [str(PACKAGE)]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        return _fail(f"no such path: {', '.join(missing)}")
    report = Report()
    try:
        if _run_lint_into(report, paths) == 0:
            return _fail(f"no .py file under {', '.join(paths)}")
        _run_protocol_into(report)
    except Exception as exc:  # noqa: BLE001 - the gate must report, not crash
        return _fail(f"{type(exc).__name__}: {exc}")
    if args.json:
        report.write_json(args.json)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
