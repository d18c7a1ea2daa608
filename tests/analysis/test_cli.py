"""End-to-end tests of the ``python -m repro.analysis`` gate.

These drive the one command in-process through ``main()`` (fast, no
subprocess) and assert the documented exit-code contract: 0 = gate
passes, 1 = findings, 2 = the analysis itself failed.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import __main__ as gate

HERE = Path(__file__).parent
BAD_REPO = str(HERE / "fixtures" / "bad_repo")
REPO_ROOT = Path(__file__).resolve().parents[2]


def _gate(tmp_path_factory, path):
    report = tmp_path_factory.mktemp("gate") / "report.json"
    code = gate.main([path, "--json", str(report)])
    return code, json.loads(report.read_text())


@pytest.fixture(scope="module")
def tree_report(tmp_path_factory):
    return _gate(tmp_path_factory, str(REPO_ROOT / "src" / "repro"))


@pytest.fixture(scope="module")
def bad_report(tmp_path_factory):
    return _gate(tmp_path_factory, BAD_REPO)


class TestExitCodes:
    def test_passes_on_the_source_tree(self, tree_report):
        code, payload = tree_report
        assert code == 0
        assert payload["ok"] is True
        assert "15/15 properties proved" in payload["tools"]["protocol"]
        assert "across 7 spec(s)" in payload["tools"]["protocol"]
        assert "12/12 mutations caught" in payload["tools"]["protocol"]

    def test_fails_on_the_planted_repo(self, bad_report):
        code, payload = bad_report
        assert code == 1
        assert payload["ok"] is False
        assert payload["counts"]["DET002"] == 2  # the planted unseeded RNG

    def test_internal_failure_exits_two(self, monkeypatch):
        def crash(paths):
            raise RuntimeError("boom")

        monkeypatch.setattr(gate, "run_lint", crash)
        assert gate.main([BAD_REPO]) == 2

    def test_missing_path_exits_two_and_names_it(self, capsys):
        assert gate.main(["no/such/dir"]) == 2
        assert "no/such/dir" in capsys.readouterr().err

    def test_directory_without_python_files_exits_two(self, tmp_path, capsys):
        assert gate.main([str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_default_path_is_the_package_not_the_cwd(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # no src/repro below the cwd
        assert gate.main([]) == 0
        package_files = len(list(gate.PACKAGE.rglob("*.py")))
        assert package_files > 50
        assert f"[lint] ok: {package_files} file(s)" in capsys.readouterr().out


class TestLintCommand:
    """The lint half of the gate, read from the report's ``lint`` status."""

    def test_lint_clean_repo_exits_zero(self, tree_report):
        code, payload = tree_report
        assert code == 0
        assert payload["tools"]["lint"].endswith("7 rule(s), 0 finding(s)")

    def test_lint_bad_repo_exits_one(self, bad_report):
        code, payload = bad_report
        assert code == 1
        # Every finding is a planted lint violation; the protocol pass is clean.
        assert {f["tool"] for f in payload["findings"]} == {"lint"}
        assert payload["tools"]["lint"].endswith(
            f"{len(payload['findings'])} finding(s)"
        )


class TestJsonReport:
    def test_report_shape(self, bad_report):
        _, payload = bad_report
        assert set(payload) == {"ok", "counts", "tools", "findings"}
        assert set(payload["tools"]) == {"lint", "protocol"}
        assert sum(payload["counts"].values()) == len(payload["findings"])
        for finding in payload["findings"]:
            assert set(finding) == {
                "tool", "rule", "path", "line", "message", "context"
            }
