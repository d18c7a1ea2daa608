"""The paper's experiments: workload caching, drivers, claims, rendering."""

from .claims import CLAIMS, EXPERIMENTS
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
    get_workload,
    run_join,
    scaled_pages,
    set_tracing,
    trace_reports,
)
from .render import heading, render_table
from .tables import PAPER_TABLE1, table1_rows, table2_rows

__all__ = [
    "Workload",
    "get_workload",
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
    "EXPERIMENTS",
    "CLAIMS",
    "render_table",
    "heading",
]
