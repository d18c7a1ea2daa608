"""Benchmark harness: workload caching, experiment drivers, rendering."""

from .figures import (
    VARIANTS,
    ablation_task_order,
    ablation_tuning_techniques,
    figure5,
    figure7,
    figure8,
    figure9_and_10,
)
from .harness import (
    Workload,
    active_scale,
    get_workload,
    run_join,
    scaled_pages,
    set_tracing,
    trace_reports,
)
from .render import (
    ascii_chart,
    heading,
    render_series,
    render_table,
    report,
)
from .tables import PAPER_TABLE1, table1_rows, table2_rows

__all__ = [
    "Workload",
    "get_workload",
    "active_scale",
    "run_join",
    "scaled_pages",
    "set_tracing",
    "trace_reports",
    "table1_rows",
    "table2_rows",
    "PAPER_TABLE1",
    "figure5",
    "figure7",
    "figure8",
    "figure9_and_10",
    "ablation_task_order",
    "ablation_tuning_techniques",
    "VARIANTS",
    "render_table",
    "render_series",
    "heading",
    "report",
    "ascii_chart",
]
