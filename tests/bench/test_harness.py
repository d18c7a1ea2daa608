"""Tests for the benchmark harness and experiment drivers (tiny scale)."""

from repro.bench import (
    PAPER_TABLE1,
    Workload,
    ablation_tuning_techniques,
    get_workload,
    heading,
    render_table,
    run_join,
    scaled_pages,
    set_tracing,
    table1_rows,
    table2_rows,
)
from repro.join import ParallelJoinConfig
from repro.trace import TraceConfig


class TestHarness:
    def test_get_workload_cached(self):
        a = get_workload(0.005)
        b = get_workload(0.005)
        assert a is b
        assert isinstance(a, Workload)
        assert len(a.map1) > 0
        assert a.tree1.size == len(a.map1)

    def test_scaled_pages(self):
        assert scaled_pages(800, 1.0) == 800
        assert scaled_pages(800, 0.25) == 200
        assert scaled_pages(8, 0.1) == 4  # floor of 4 pages

    def test_trace_files_are_numbered_in_the_file_name(self, tmp_path):
        # A dot in a directory name is not the file's suffix.
        (tmp_path / "a.d").mkdir()
        set_tracing(TraceConfig(jsonl_path=str(tmp_path / "a.d" / "trace")))
        try:
            config = ParallelJoinConfig(processors=2, disks=2, total_buffer_pages=8)
            run_join(get_workload(0.005), config)
            run_join(get_workload(0.005), config)
        finally:
            set_tracing(None)
        assert sorted(p.name for p in (tmp_path / "a.d").iterdir()) == [
            "trace.0000", "trace.0001"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.d"]


class TestTables:
    def test_table1_rows_structure(self):
        rows = table1_rows(get_workload(0.005))
        assert [r["parameter"] for r in rows] == [
            "height",
            "number of data entries",
            "number of data pages",
            "number of directory pages",
            "m (number of tasks)",
        ]
        entries_row = rows[1]
        assert entries_row["tree1"] == len(get_workload(0.005).map1)
        assert entries_row["paper tree1"] == PAPER_TABLE1["tree1"][
            "number of data entries"
        ]

    def test_table2_rows(self):
        rows = table2_rows()
        assert len(rows) == 3
        assert rows[0]["memory"] == "cache"
        assert rows[2]["band width (MB/sec)"] == 32.0
        # Remote page copies are slower than local ones.
        assert rows[2]["4KB page copy (usec)"] > rows[1]["4KB page copy (usec)"]


class TestAblationDrivers:
    def test_tuning_ablation_rows(self):
        rows = ablation_tuning_techniques(get_workload(0.005))
        assert len(rows) == 4
        candidates = {r["candidates"] for r in rows}
        assert len(candidates) == 1


class TestRendering:
    def test_render_table_alignment(self):
        out = render_table(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}], ["a", "b"]
        )
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_render_table_empty(self):
        assert render_table([], ["a"]) == "(no rows)"

    def test_render_table_missing_cell(self):
        out = render_table([{"a": 1}], ["a", "b"])
        assert "-" in out

    def test_heading(self):
        out = heading("Title")
        assert "Title" in out and "=====" in out

    def test_float_formatting(self):
        out = render_table([{"x": 12345.6}, {"x": 0.00123}, {"x": 0.0}], ["x"])
        assert "12346" in out
        assert "0.0012" in out
