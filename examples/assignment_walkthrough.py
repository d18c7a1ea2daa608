#!/usr/bin/env python
"""Walkthrough of Figures 1-4: plane-sweep order and the three assignments.

A toy workload small enough to print completely: how task creation orders
the pairs of subtrees along the sweep line (Figure 1/2), and how static
range (Figure 2), static round-robin (Figure 3) and dynamic assignment
(Figure 4) distribute them over three processors.
"""

from repro import Rect, create_tasks, str_bulk_load
from repro.join import static_range_assignment, static_round_robin_assignment
from repro.join.parallel import prepare_trees


def label(task) -> str:
    # Where the sweep line stops for the pair: the smaller left MBR edge.
    xl = min(task.node_r.mbr_tuple()[0], task.node_s.mbr_tuple()[0])
    return f"(pair@x={xl:.1f})"


def main() -> None:
    # Two tiny maps along a street: clusters every ~4 units.
    items_r = [
        (i, Rect(x, 0.0, x + 1.2, 1.0))
        for i, x in enumerate(i * 0.9 for i in range(40))
    ]
    items_s = [
        (i, Rect(x + 0.3, 0.2, x + 1.6, 1.2))
        for i, x in enumerate(i * 0.9 for i in range(40))
    ]
    tree_r = str_bulk_load(items_r, dir_capacity=4, data_capacity=4)
    tree_s = str_bulk_load(items_s, dir_capacity=4, data_capacity=4)
    prepare_trees(tree_r, tree_s)

    tasks = create_tasks(tree_r, tree_s)
    print(f"task creation: m = {len(tasks)} intersecting pairs of subtrees")
    print("local plane-sweep order:")
    print("  " + "  ".join(label(t) for t in tasks))

    n = 3
    print(f"\nstatic range assignment over {n} processors (Figure 2):")
    for p, chunk in enumerate(static_range_assignment(tasks, n)):
        print(f"  P{p + 1}: " + "  ".join(label(t) for t in chunk))

    print(f"\nstatic round-robin assignment (Figure 3):")
    for p, chunk in enumerate(static_round_robin_assignment(tasks, n)):
        print(f"  P{p + 1}: " + "  ".join(label(t) for t in chunk))

    print("\ndynamic assignment (Figure 4): a shared FCFS queue —")
    print("  " + "  ".join(label(t) for t in tasks))
    print("  each processor fetches the next task when it finishes its own.")


if __name__ == "__main__":
    main()
