"""Table 1 and Table 2 of the paper, regenerated from this implementation."""

from __future__ import annotations

from ..join import count_root_tasks
from ..rtree import tree_stats
from ..sim import Environment, Machine
from ..sim.machine import KSR1_CONFIG
from .harness import Workload

__all__ = ["table1_rows", "table2_rows", "PAPER_TABLE1"]

#: The paper's Table 1, for side-by-side comparison.
PAPER_TABLE1 = {
    "tree1": {
        "height": 3,
        "number of data entries": 131443,
        "number of data pages": 6968,
        "number of directory pages": 95,
    },
    "tree2": {
        "height": 3,
        "number of data entries": 127312,
        "number of data pages": 6778,
        "number of directory pages": 92,
    },
    "m (number of tasks)": 404,
}


def table1_rows(workload: Workload) -> list[dict[str, object]]:
    """Rows of Table 1: per-tree shape parameters plus m."""
    stats1 = tree_stats(workload.tree1)
    stats2 = tree_stats(workload.tree2)
    rows: list[dict[str, object]] = []
    for key in (
        "height",
        "number of data entries",
        "number of data pages",
        "number of directory pages",
    ):
        rows.append(
            {
                "parameter": key,
                "tree1": stats1.as_table1_row()[key],
                "tree2": stats2.as_table1_row()[key],
                "paper tree1": PAPER_TABLE1["tree1"][key],
                "paper tree2": PAPER_TABLE1["tree2"][key],
            }
        )
    m = count_root_tasks(workload.tree1, workload.tree2)
    rows.append(
        {
            "parameter": "m (number of tasks)",
            "tree1": m,
            "tree2": m,
            "paper tree1": PAPER_TABLE1["m (number of tasks)"],
            "paper tree2": PAPER_TABLE1["m (number of tasks)"],
        }
    )
    return rows


def _simulated_remote_copy_us() -> float:
    """One remote page copy as the simulator charges it."""
    env = Environment()
    env.process(Machine(env).remote_copy())
    return env.run() * 1e6


def table2_rows() -> list[dict[str, object]]:
    """Rows of Table 2: the memory hierarchy of the simulated KSR1, plus
    what the simulator charges for one remote page copy."""
    config = KSR1_CONFIG
    rows = []
    for level in (config.cache, config.main_memory, config.remote_memory):
        rows.append(
            {
                "memory": level.name,
                "size of address space": f"{level.size_bytes // 1024} KB"
                if level.size_bytes < 1024 * 1024
                else f"{level.size_bytes // (1024 * 1024)} MB",
                "transfer unit (bytes)": level.transfer_unit_bytes,
                "band width (MB/sec)": level.bandwidth_mb_per_s,
                "latency (usec)": level.latency_us,
                "4KB page copy (usec)": round(level.page_copy_time(4096) * 1e6, 1),
            }
        )
    rows[-1]["simulated copy (usec)"] = _simulated_remote_copy_us()
    return rows
