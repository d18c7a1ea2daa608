#!/usr/bin/env python
"""Real CPU parallelism: filter + exact refinement across OS processes.

The simulation reproduces the paper's *measurements*; this example shows
the algorithm also parallelises for real on today's hardware.  CPython's
GIL rules out thread-level speed-up, so the paper's task creation runs
once and its winning scheme — dynamic assignment: an idle processor takes
the next chunk of tasks off one shared queue — runs over forked worker
processes (:func:`repro.multiprocessing_join`): workers inherit the trees
and the exact geometry through fork — the OS-process analogue of shared
virtual memory — each worker refines the candidates it finds, exactly the
paper's distribution principle, and hands back only its answers, as two
oid columns.

The workload is two layers of detailed river-like polylines (dozens of
vertices each), so the exact intersection tests dominate — like the
refinement step dominates the paper's joins.
"""

import math
import os
import random
import time

from repro import Rect, multiprocessing_join, str_bulk_load
from repro.join.parallel import prepare_trees


def river_layer(count: int, seed: int):
    """Wiggly polylines with ~48 vertices each over a shared square."""
    rng = random.Random(seed)
    items, geometry = [], {}
    for oid in range(count):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        angle = rng.uniform(0, 2 * math.pi)
        points = [(x, y)]
        for _ in range(47):
            angle += rng.gauss(0, 0.4)
            x += 0.16 * math.cos(angle)
            y += 0.16 * math.sin(angle)
            points.append((x, y))
        geometry[oid] = tuple(points)
        items.append((oid, Rect.from_points(points)))
    return items, geometry


def main() -> None:
    items_r, geometry_r = river_layer(4000, seed=1)
    items_s, geometry_s = river_layer(4000, seed=2)
    tree_r = str_bulk_load(items_r)
    tree_s = str_bulk_load(items_s)
    prepare_trees(tree_r, tree_s)
    cpus = os.cpu_count() or 1
    print(f"two layers of {len(items_r)} dense polylines; "
          f"available CPUs: {cpus}\n")
    if cpus == 1:
        print("NOTE: this machine exposes a single CPU — worker counts "
              "beyond 1 cannot run in parallel here,\nso expect speed-ups "
              "around 1.0x (the results still verify identical).\n")

    results = {}
    for workers in (1, 2, 4, 8):
        started = time.perf_counter()
        answers = multiprocessing_join(
            tree_r, tree_s, processes=workers,
            geometry_r=geometry_r, geometry_s=geometry_s,
        )
        elapsed = time.perf_counter() - started
        results[workers] = (set(answers), elapsed)
        note = "" if workers == 1 else (
            f"   -> speed-up {results[1][1] / elapsed:.2f}x"
        )
        print(f"filter + refinement x{workers}: {elapsed:6.2f} s{note}")

    baseline = results[1][0]
    assert all(answers == baseline for answers, _ in results.values())
    print(f"\n{len(baseline)} exact answers from every worker count")


if __name__ == "__main__":
    main()
