"""The watchdog: a workload that does not report is a failed workload."""

from perf import runner
from perf.spec import Plan


def test_expired_budget_kills_the_group_and_reports_total_failure(monkeypatch):
    monkeypatch.setattr(runner, "budget_s", lambda plan: 0.02)
    report = runner.run_pass(Plan("join-full", scale=0.02, seconds=30.0, setups=1))
    assert "killed after" in report["notes"]["watchdog"]
    assert report["correct"] is False
    assert report["metrics"]["fail_frac"]["value"] == 1.0
    assert (report["attempted"], report["failed"]) == (1, 1)
    assert report["wall_s"] < 10.0


def test_a_crashing_child_is_reported_not_raised(monkeypatch):
    report = runner.run_pass(Plan("no-such-workload", scale=0.02, seconds=1.0, setups=1))
    assert "exited with code" in report["notes"]["crashed"]
    assert report["metrics"]["fail_frac"]["value"] == 1.0
