"""Per-rule tests of the AST lint engine over the planted fixture repo."""

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import Severity, run_lint
from repro.analysis.lint import iter_python_files

FIXTURES = Path(__file__).parent / "fixtures"
BAD_REPO = FIXTURES / "bad_repo"

#: rule id -> (file the planted positives live in, expected count)
EXPECTED = {
    "DET001": ("sim/clock.py", 2),
    "DET002": ("sim/clock.py", 2),
    "TRC001": ("sim/emitter.py", 2),
    "TRC002": ("sim/emitter.py", 2),
    "PAIR002": ("service/handler.py", 1),
    "FORK001": ("join/mpwork.py", 2),
    "ASYNC001": ("service/handler.py", 2),
}


@pytest.fixture(scope="module")
def bad_findings():
    findings, stats = run_lint([BAD_REPO])
    assert stats["parse_failures"] == 0
    return findings


class TestPlantedPositives:
    @pytest.mark.parametrize("rule", sorted(EXPECTED))
    def test_rule_fires_expected_count(self, bad_findings, rule):
        expected_file, expected_count = EXPECTED[rule]
        hits = [f for f in bad_findings if f.rule == rule]
        assert len(hits) == expected_count, [f.render() for f in hits]
        for finding in hits:
            assert finding.path.replace("\\", "/").endswith(expected_file)
            assert finding.severity is Severity.ERROR

    def test_total_is_exactly_the_planted_set(self, bad_findings):
        counts = Counter(f.rule for f in bad_findings)
        assert counts == Counter(
            {rule: count for rule, (_, count) in EXPECTED.items()}
        )

    def test_messages_name_the_offender(self, bad_findings):
        assert "time.time" in " ".join(
            f.message for f in bad_findings if f.rule == "DET001"
        )
        assert "MISSING_EVENT" in " ".join(
            f.message for f in bad_findings if f.rule == "TRC001"
        )
        assert "UNREAD_EVENT" in " ".join(
            f.message for f in bad_findings if f.rule == "TRC002"
        )
        assert "_CURRENT" in " ".join(
            f.message for f in bad_findings if f.rule == "FORK001"
        )


class TestSuppression:
    """Every fixture file carries one suppressed twin per planted finding."""

    def test_no_finding_on_noqa_lines(self, bad_findings):
        for finding in bad_findings:
            source_file = BAD_REPO / Path(
                *Path(finding.path).parts[
                    Path(finding.path).parts.index("bad_repo") + 1 :
                ]
            )
            line = source_file.read_text().splitlines()[finding.line - 1]
            assert "repro: noqa" not in line

    def test_bare_noqa_suppresses_every_rule(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: noqa\n"
        )
        findings, _ = run_lint([tmp_path])
        assert findings == []

    def test_mismatched_noqa_does_not_suppress(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: noqa[DET002]\n"
        )
        findings, _ = run_lint([tmp_path])
        assert [f.rule for f in findings] == ["DET001"]


class TestScoping:
    def test_rules_do_not_fire_outside_their_scope(self, tmp_path):
        # The same wall-clock call in an unscoped directory is fine.
        util = tmp_path / "tools"
        util.mkdir()
        (util / "mod.py").write_text(
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )
        findings, _ = run_lint([tmp_path])
        assert findings == []

    def test_the_data_generators_are_in_the_deterministic_scope(self, tmp_path):
        (tmp_path / "datagen").mkdir()
        (tmp_path / "datagen" / "mod.py").write_text(
            "import random, time\n"
            "def f():\n"
            "    return random.random() + time.time()\n"
        )
        findings, _ = run_lint([tmp_path])
        assert sorted(f.rule for f in findings) == ["DET001", "DET002"]

    def test_syntax_error_reported_not_crashing(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        findings, stats = run_lint([tmp_path])
        assert stats["parse_failures"] == 1
        assert [f.rule for f in findings] == ["PARSE"]
        assert findings[0].severity is Severity.ERROR

    def test_iter_python_files_mixes_files_and_dirs(self):
        files = iter_python_files([BAD_REPO, BAD_REPO / "sim" / "clock.py"])
        names = {f.name for f in files}
        assert "clock.py" in names and "handler.py" in names

    def test_select_restricts_rules(self):
        findings, _ = run_lint([BAD_REPO], select=["DET001"])
        assert {f.rule for f in findings} == {"DET001"}


class TestRealSource:
    def test_src_repro_is_clean_against_the_rules(self):
        # The committed baseline is empty; the source tree must stay clean.
        repo_root = Path(__file__).resolve().parents[2]
        findings, stats = run_lint([repo_root / "src" / "repro"])
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert errors == [], [f.render() for f in errors]
        assert stats["files"] > 50

    @pytest.mark.parametrize("package", ["service", "sim", "join"])
    def test_a_part_of_the_package_is_read_against_every_reader(self, package):
        # Its emits are read by the installed checkers, specs, timeline
        # and metrics, not only by the readers that happen to lie under it.
        repo_root = Path(__file__).resolve().parents[2]
        findings, _ = run_lint([repo_root / "src" / "repro" / package])
        assert [f.render() for f in findings if f.rule == "TRC002"] == []
