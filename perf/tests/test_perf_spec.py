"""BENCHMARK.json is the driver-facing projection of perf/spec.py."""

import json
from pathlib import Path

from perf import spec
from perf.runner import contract_line

DECLARED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_and_paths():
    assert DECLARED["paths"] == ["perf"]
    # serve-chaos measures failing requests; the driver wants none
    assert spec.DRIVER_WORKLOADS == ("join-full", "serve-mix", "shard-mix")
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == {
        name: spec.WORKLOADS[name] for name in spec.DRIVER_WORKLOADS
    }
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])


def test_end_to_end_is_the_universal_subset():
    known = {m.name: m for m in spec.END_TO_END}
    names = [m["name"] for m in DECLARED["end_to_end"]]
    assert "setup_s" in names
    for metric in DECLARED["end_to_end"]:
        ours = known[metric["name"]]
        # the driver wants every end-to-end metric from every workload
        assert set(ours.workloads) == set(spec.WORKLOADS)
        assert (metric["unit"], metric["better"]) == (ours.unit, ours.better)
        # spec.py is the one source of bounds; the driver's schema holds
        # one number a metric, so it gets the loosest workload's
        assert metric["bound"] == spec.driver_bound(metric["name"])
        assert metric["bound"] == max(
            spec.bound_for(metric["name"], w)[0] for w in spec.WORKLOADS
        )
        assert 0 < metric["bound"] <= 0.25
        assert not ours.absolute
    # set-up gets the largest bound
    assert all(
        m["bound"] <= spec.driver_bound("setup_s") for m in DECLARED["end_to_end"]
    )


def test_per_layer_names_exist_and_nothing_is_declared_twice():
    known = {m.name: m for m in spec.LAYER} | {m.name: m for m in spec.END_TO_END}
    names = [m["name"] for m in DECLARED["per_layer"]]
    gated = [m["name"] for m in DECLARED["end_to_end"]]
    assert len(set(names + gated)) == len(names + gated)
    for metric in DECLARED["per_layer"]:
        ours = known[metric["name"]]
        assert (metric["unit"], metric["better"]) == (ours.unit, ours.better)
    # every metric of the spec reaches the driver, bar the nproc-gated pair
    # and what only serve-chaos measures
    missing = set(known) - set(names) - set(gated)
    assert missing == {"join.node.p4_ms", "join.flat.p4_ms"} | {
        m.name for m in spec.LAYER if m.workloads == (spec.CHAOS,)
    }


def test_contract_line_has_exactly_the_declared_metrics():
    e2e = {m["name"] for m in DECLARED["end_to_end"]}
    report = {
        "workload": "join-full", "trace": False, "correct": True,
        "attempted": 20, "failed": 0, "layers": {},
        "metrics": {
            **{name: {"value": 2.5, "unit": "any", "n": 2} for name in e2e},
            "join_seq_flat_ms": {"value": 240.0, "unit": "ms", "n": 4},
        },
    }
    line = json.loads(contract_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == e2e
    assert line["metrics"]["setup_s"] == {"value": 2.5, "unit": "s"}
    report["trace"] = True
    report["layers"] = {"join.pairs": {"value": 147862, "unit": "count", "n": None}}
    line = json.loads(contract_line(report))
    assert line["metrics"]["join.pairs"]["value"] == 147862
    assert line["metrics"]["join_seq_flat_ms"]["value"] == 240.0
    # a layer the spec does not define on this workload did no work here ...
    assert line["metrics"]["shard.router.fanout"] == {"value": 0, "unit": "ratio"}
    # ... but one it does define and the pass did not measure has no number
    assert "join.mp.fork_ms" not in line["metrics"]
    assert "sim_gd8_ms" not in line["metrics"]
    assert set(line["metrics"]) < {m["name"] for m in DECLARED["per_layer"]}
