"""Tests for the figure drivers and the CLI runner at tiny scale."""

import pytest

from repro.bench import (
    ablation_task_order,
    figure5,
    figure7,
    figure8,
    figure9_and_10,
    get_workload,
)
from repro.bench.__main__ import main as cli_main


@pytest.fixture(scope="module")
def tiny():
    return get_workload(0.01)


class TestFigureDrivers:
    def test_figure5_rows(self, tiny):
        rows = figure5(tiny)
        # 2 processor counts x 5 buffer sizes.
        assert len(rows) == 10
        for row in rows:
            assert row["processors"] in (8, 24)
            for variant in ("lsr", "gsrr", "gd"):
                assert row[variant] > 0

    def test_figure7_rows(self, tiny):
        rows = figure7(tiny)
        assert len(rows) == 9  # 3 variants x 3 policies
        for row in rows:
            assert row["first (s)"] <= row["avg (s)"] <= row["last (s)"]
        gd_without = next(
            r for r in rows
            if r["variant"] == "gd" and r["reassignment"] == "without"
        )
        gd_root = next(
            r for r in rows
            if r["variant"] == "gd" and r["reassignment"] == "root level"
        )
        assert gd_without["last (s)"] == gd_root["last (s)"]

    def test_figure8_rows(self, tiny):
        rows = figure8(tiny)
        assert [r["variant"] for r in rows] == ["lsr", "gsrr", "gd"]
        for row in rows:
            assert row["a: max load"] > 0
            assert row["b: arbitrary"] > 0

    def test_figure9_rows(self, tiny):
        rows = figure9_and_10(tiny)
        assert len(rows) == 3 * 8  # 3 series x 8 processor counts
        for row in rows:
            if row["processors"] == 1:
                assert row["speedup"] == pytest.approx(1.0)
            assert row["response (s)"] > 0

    def test_ablation_task_order_rows(self, tiny):
        rows = ablation_task_order(tiny)
        assert len(rows) == 6
        orders = {r["task order"] for r in rows}
        assert orders == {"plane-sweep order", "shuffled"}


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table1" in out

    def test_no_args_lists(self, capsys):
        assert cli_main([]) == 0
        assert "fig9" in capsys.readouterr().out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["nonsense"])

    def test_run_table2(self, capsys):
        assert cli_main(["--scale", "0.01", "table2"]) == 0
        out = capsys.readouterr().out
        assert "main memory of other processors" in out

    def test_run_table1_tiny(self, capsys):
        assert cli_main(["--scale", "0.01", "table1"]) == 0
        out = capsys.readouterr().out
        assert "m (number of tasks)" in out

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf"])
    def test_scale_must_be_positive_and_finite(self, scale, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["--scale", scale, "table2"])
        assert exit_.value.code == 2
        assert "--scale must be a positive finite number" in capsys.readouterr().err

    def test_trace_jsonl_needs_trace(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["--trace-jsonl", str(tmp_path / "t.jsonl"), "table2"])
        assert exit_.value.code == 2
        assert "--trace-jsonl needs --trace" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
