"""``join-full``: the paper's batch job at full scale, five arms interleaved.

Each round runs, in this order, the flat sequential join, the flat forked
join on two processes, the node sequential join, the node forked join on
two processes, and the simulated KSR1 run (GD, 8 processors, 8 disks, 800
buffer pages, reassignment on all levels).  Interleaving makes machine
drift hit every arm equally; ``gc.collect()`` runs before every op and
the collector stays enabled.  Every op's answer is compared, as a pair
*set*, with one oracle join, and the oracle itself is checked against a
numpy brute force for a seeded sample of 200 map-1 objects.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

from repro import (
    GD,
    ParallelJoinConfig,
    build_tree,
    multiprocessing_join,
    paper_maps,
    parallel_spatial_join,
    prepare_trees,
    sequential_join,
)
from repro.rtree.flat import build_flat_tree

from .oracle import MapOracle, check_join_sample, pair_keys
from .spec import PROCESSES
from .stats import median

__all__ = ["run", "ARMS", "Indexes", "sim_config"]

SAMPLE_OBJECTS = 200

#: metric name -> span name, in round order.
ARMS = (
    ("join_seq_flat_ms", "join.sequential[flat]"),
    ("join_par_flat_ms", "join.multiprocessing[flat]"),
    ("join_seq_node_ms", "join.sequential[node]"),
    ("join_par_node_ms", "join.multiprocessing[node]"),
    ("sim_gd8_ms", "sim.parallel_spatial_join[gd8]"),
)


def sim_config(processors: int) -> ParallelJoinConfig:
    return ParallelJoinConfig(
        processors=processors, disks=8, total_buffer_pages=800, variant=GD
    )


class Indexes:
    """The maps and every index the join arms run over."""

    def __init__(self, plan, recorder):
        with recorder.span("datagen.paper_maps"):
            self.maps = paper_maps(scale=plan.scale, seed=plan.seed)
        map1, map2 = self.maps
        with recorder.span("rtree.build[flat]"):
            self.flat = (build_flat_tree(map1), build_flat_tree(map2))
        with recorder.span("rtree.build[node]"):
            self.node = (build_tree(map1), build_tree(map2))
        with recorder.span("join.prepare_trees"):
            self.store = prepare_trees(*self.node)

    def ops(self) -> dict:
        """metric name -> callable returning the op's full result."""
        flat, node, store = self.flat, self.node, self.store
        return {
            "join_seq_flat_ms": lambda: sequential_join(*flat),
            "join_par_flat_ms": lambda: multiprocessing_join(*flat, PROCESSES),
            "join_seq_node_ms": lambda: sequential_join(*node),
            "join_par_node_ms": lambda: multiprocessing_join(*node, PROCESSES),
            "sim_gd8_ms": lambda: parallel_spatial_join(
                *node, sim_config(8), page_store=store
            ),
        }


def run(plan, recorder, result) -> None:
    setup_times = []
    indexes = None
    for _ in range(plan.setups):
        indexes = None  # drop the previous build before timing the next
        started = time.perf_counter()
        with recorder.span("setup"):
            indexes = Indexes(plan, recorder)
        setup_times.append(time.perf_counter() - started)
    result.e2e("setup_s", median(setup_times), len(setup_times))

    with recorder.span("verify.oracle"):
        oracle = pair_keys(sequential_join(*indexes.flat))
        left = MapOracle(indexes.maps[0].items())
        right = MapOracle(indexes.maps[1].items())
        rows = random.Random(f"perf:{plan.seed}:join-sample").sample(
            range(len(left.oids)), min(SAMPLE_OBJECTS, len(left.oids))
        )
        oracle_ok = check_join_sample(oracle, left, right, rows)
    result.layer("join.pairs", len(oracle))

    ops = indexes.ops()
    times = {name: [] for name, _ in ARMS}
    answers = {}
    attempted = failed = wrong = 0
    rounds = 0
    measure_from = None
    while True:
        measured = rounds >= plan.warmup_rounds
        if measured and measure_from is None:
            measure_from = time.perf_counter()
        if (
            measured
            and rounds - plan.warmup_rounds >= plan.min_rounds
            and time.perf_counter() - measure_from >= plan.measured_seconds
        ):
            break
        for name, span_name in ARMS:
            gc.collect()
            answer = None
            started = time.perf_counter()
            try:
                with recorder.span(span_name, rid=rounds):
                    answer = ops[name]()
            except Exception as exc:  # the op failed; count it and go on
                result.notes.setdefault("raised", []).append(
                    f"{name}: {type(exc).__name__}: {exc}"
                )
            elapsed_ms = 1e3 * (time.perf_counter() - started)
            with recorder.span("verify", rid=rounds):
                good = answer is not None and np.array_equal(
                    pair_keys(answer), oracle
                )
            if recorder.enabled:
                answers[name] = answer  # the layer counters read it
            if not measured:
                continue
            attempted += 1
            if good:
                times[name].append(elapsed_ms)
            else:
                failed += 1
                wrong += answer is not None
        rounds += 1

    result.attempted = attempted
    # With a wrong oracle no comparison above means anything.
    result.failed = failed if oracle_ok else attempted
    result.correct = oracle_ok and wrong == 0
    if not oracle_ok:
        result.notes["oracle"] = "oracle join disagrees with brute force"
    for name, _ in ARMS:
        if times[name]:
            result.e2e(name, median(times[name]), len(times[name]))

    if recorder.enabled:
        from . import probes  # deferred: probes imports this module

        probes.join_layers(recorder, result, indexes, oracle, answers, times)
