"""Exact pins of the join simulators and the node join they run.

Fifteen simulated runs at scale 0.05, seed 42, on prepared ``build_tree``
trees: the SVM join for {lsr, gsrr, gd} x reassignment {none, root, all}
(n = d = 8) and the shared-nothing cluster for {spatial, round-robin}
placement x {range, round-robin, dynamic} assignment (n = 8).  Beside
them, ``sequential_join``'s counters and pair order and the page-id order
of ``create_tasks(min_tasks=32)``.

``PINS`` was recorded once from the simulator and is not edited: a
refactor of either simulator or of the node-pair step must reproduce
every value bit for bit.  The one tolerance is shared-nothing
``times.busy``, a sum of busy spans whose grouping (per task or per node
pair) may change its last bits; it must agree to 1e-9 relative.
"""

import hashlib

import pytest

from repro.datagen import build_tree, paper_maps
from repro.join import (
    GD,
    GSRR,
    LSR,
    AssignmentMode,
    ParallelJoinConfig,
    Placement,
    ReassignLevel,
    ReassignmentPolicy,
    SharedNothingConfig,
    create_tasks,
    parallel_spatial_join,
    prepare_trees,
    sequential_join,
    shared_nothing_join,
)

SCALE, SEED = 0.05, 42

SVM_RUNS = {
    f"svm-{variant.short_name}-{level.value}": (variant, level)
    for variant in (LSR, GSRR, GD)
    for level in ReassignLevel
}
SN_RUNS = {
    f"sn-{placement.value}-{assignment.name.lower()}": (placement, assignment)
    for placement in (Placement.SPATIAL, Placement.ROUND_ROBIN)
    for assignment in AssignmentMode
}


@pytest.fixture(scope="module")
def trees():
    m1, m2 = paper_maps(scale=SCALE, seed=SEED)
    tree_r, tree_s = build_tree(m1), build_tree(m2)
    return tree_r, tree_s, prepare_trees(tree_r, tree_s)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def observe(result) -> dict:
    return {
        "disk_accesses": result.disk_accesses,
        "candidates": result.candidates,
        "response_time": result.response_time,
        "finish": list(result.times.finish),
        "busy": list(result.times.busy),
        "tasks_by_processor": list(result.tasks_by_processor),
        "reassignments": result.reassignments,
        "metrics": result.metrics.as_dict(),
        "pairs": digest([list(pairs) for pairs in result.pairs_by_processor]),
    }


def svm_run(trees, name: str) -> dict:
    tree_r, tree_s, store = trees
    variant, level = SVM_RUNS[name]
    config = ParallelJoinConfig(
        processors=8, disks=8, total_buffer_pages=40, variant=variant,
        reassignment=ReassignmentPolicy(level=level),
    )
    result = parallel_spatial_join(tree_r, tree_s, config, page_store=store)
    return observe(result)


def sn_run(trees, name: str) -> dict:
    tree_r, tree_s, store = trees
    placement, assignment = SN_RUNS[name]
    config = SharedNothingConfig(
        processors=8, buffer_pages_per_processor=5, placement=placement,
        assignment=assignment,
    )
    result = shared_nothing_join(tree_r, tree_s, config, page_store=store)
    return observe(result)


def sequential_run(trees) -> dict:
    result = sequential_join(trees[0], trees[1])
    return {
        "node_pairs": result.node_pairs_visited,
        "tests": result.intersection_tests,
        "candidates": result.candidates,
        "pairs": digest(list(result.pairs)),
    }


def task_order(trees) -> dict:
    tasks = create_tasks(trees[0], trees[1], min_tasks=32)
    pages = [(task.node_r.page_id, task.node_s.page_id) for task in tasks]
    return {
        "count": len(pages), "level": tasks[0].level, "pages": digest(pages)
    }


@pytest.mark.parametrize("name", list(SVM_RUNS))
def test_svm_run_is_pinned(trees, name):
    assert svm_run(trees, name) == PINS[name]


@pytest.mark.parametrize("name", list(SN_RUNS))
def test_shared_nothing_run_is_pinned(trees, name):
    got = sn_run(trees, name)
    want = PINS[name]
    assert got["busy"] == pytest.approx(want["busy"], rel=1e-9, abs=0)
    assert {**got, "busy": None} == {**want, "busy": None}


def test_sequential_join_is_pinned(trees):
    assert sequential_run(trees) == PINS["sequential"]


def test_task_order_is_pinned(trees):
    assert task_order(trees) == PINS["tasks"]


PINS = {
    "svm-lsr-none": {
        "disk_accesses": 1774,
        "candidates": 5058,
        "response_time": 40.187116443796846,
        "finish": [39.6315125370249, 12.604830197420457, 40.187116443796846,
                   9.1843948143283, 1.2336961136083102, 2.556870236156932,
                   16.873766559933717, 13.309776173288645],
        "busy": [39.6315125370249, 12.604830197420457, 40.187116443796846,
                 9.1843948143283, 1.2336961136083102, 2.556870236156932,
                 16.873766559933717, 13.309776173288645],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 0,
        "metrics": {"candidates": 5058, "disk_reads": 1774,
                    "intersection_tests": 71017, "lru_hits": 272,
                    "path_hits": 916},
        "pairs": "af5b7d230bbfdda2",
    },
    "svm-lsr-root": {
        "disk_accesses": 1778,
        "candidates": 5058,
        "response_time": 38.96345635158737,
        "finish": [7.092142340803311, 13.047870803095405, 32.947258887823985,
                   9.84966769452747, 9.131207027761626, 38.96345635158737,
                   17.261169517518255, 13.670588868043023],
        "busy": [7.09014234080331, 13.047870803095405, 32.94625888782399,
                 9.84966769452747, 9.130207027761625, 38.961456351587366,
                 17.261169517518255, 13.670588868043023],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 6,
        "metrics": {"candidates": 5058, "disk_reads": 1778,
                    "intersection_tests": 71017, "lru_hits": 272,
                    "pairs_reassigned": 6, "path_hits": 912,
                    "reassignments": 6},
        "pairs": "3db56cde9be29214",
    },
    "svm-lsr-all": {
        "disk_accesses": 1800,
        "candidates": 5058,
        "response_time": 18.79637150587089,
        "finish": [18.59353075616564, 18.45776073180827, 18.521303166112506,
                   18.447450688506763, 18.405256475685423, 18.316735463437112,
                   18.36788749414422, 18.79637150587089],
        "busy": [18.59153075616564, 18.456760731808274, 18.520303166112505,
                 18.437450688506758, 18.403256475685424, 18.3047354634371,
                 18.365887494144218, 18.78837150587089],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 38,
        "metrics": {"candidates": 5058, "disk_reads": 1800,
                    "intersection_tests": 71017, "lru_hits": 269,
                    "pairs_reassigned": 452, "path_hits": 893,
                    "reassignments": 38},
        "pairs": "ca1676a5ed0900b6",
    },
    "svm-gsrr-none": {
        "disk_accesses": 1703,
        "candidates": 5058,
        "response_time": 45.443771176916094,
        "finish": [20.520057544342436, 45.443771176916094, 7.3771907504653935,
                   1.850708832838048, 3.5675656564185183, 9.051558339043039,
                   5.003859113890139, 35.73444959394266],
        "busy": [20.520057544342436, 45.443771176916094, 7.3771907504653935,
                 1.850708832838048, 3.5675656564185183, 9.051558339043039,
                 5.003859113890139, 35.73444959394266],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 0,
        "metrics": {"bus_transfers": 73, "candidates": 5058,
                    "directory_ops": 5154, "disk_reads": 1703,
                    "intersection_tests": 71017, "load_waits": 12,
                    "lru_hits": 276, "path_hits": 910, "remote_hits": 73},
        "pairs": "ba5e74ba9f274137",
    },
    "svm-gsrr-root": {
        "disk_accesses": 1742,
        "candidates": 5058,
        "response_time": 35.521215293830785,
        "finish": [14.071520448254322, 28.829048249114653, 7.650175189142895,
                   17.413361699391462, 16.082512246465708, 8.556285128625213,
                   8.407325861955329, 35.521215293830785],
        "busy": [14.070520448254321, 28.829048249114653, 7.650175189142895,
                 17.41236169939146, 16.081512246465707, 8.556285128625213,
                 8.402325861955326, 35.521215293830785],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 8,
        "metrics": {"bus_transfers": 33, "candidates": 5058,
                    "directory_ops": 5231, "disk_reads": 1742,
                    "intersection_tests": 71017, "load_waits": 12,
                    "lru_hits": 277, "pairs_reassigned": 8, "path_hits": 910,
                    "reassignments": 8, "remote_hits": 33},
        "pairs": "57705e81a54cf96a",
    },
    "svm-gsrr-all": {
        "disk_accesses": 1696,
        "candidates": 5058,
        "response_time": 18.007557822384193,
        "finish": [17.748395601273206, 17.521869740392706, 18.007557822384193,
                   17.476750135042188, 17.36583841798604, 17.90774368938945,
                   17.644191376973975, 17.477602804712266],
        "busy": [17.744395601273204, 17.521869740392706, 18.00155782238419,
                 17.466750135042183, 17.36483841798604, 17.89674368938945,
                 17.636191376973972, 17.47360280471226],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 44,
        "metrics": {"bus_transfers": 108, "candidates": 5058,
                    "directory_ops": 5174, "disk_reads": 1696,
                    "intersection_tests": 71017, "load_waits": 18,
                    "lru_hits": 267, "pairs_reassigned": 450, "path_hits": 891,
                    "reassignments": 44, "remote_hits": 108},
        "pairs": "09f65f880164ebe1",
    },
    "svm-gd-none": {
        "disk_accesses": 1742,
        "candidates": 5058,
        "response_time": 35.232071098729634,
        "finish": [6.485147509176775, 29.188474492541456, 7.934234005796051,
                   18.309093461315147, 11.140868859275928, 8.468138984251107,
                   20.395231386719516, 35.232071098729634],
        "busy": [6.485047509176775, 29.188424492541454, 7.934184005796051,
                 18.30874346131515, 11.140768859275928, 8.468088984251107,
                 20.395031386719516, 35.23202109872964],
        "tasks_by_processor": [2, 1, 1, 7, 2, 1, 4, 1],
        "reassignments": 0,
        "metrics": {"bus_transfers": 31, "candidates": 5058,
                    "directory_ops": 5229, "disk_reads": 1742,
                    "intersection_tests": 71017, "load_waits": 12,
                    "lru_hits": 274, "path_hits": 915, "queue_fetches": 19,
                    "remote_hits": 31},
        "pairs": "a305894f3e7f3dbb",
    },
    "svm-gd-root": {
        "disk_accesses": 1742,
        "candidates": 5058,
        "response_time": 35.232071098729634,
        "finish": [6.485147509176775, 29.188474492541456, 7.934234005796051,
                   18.309093461315147, 11.140868859275928, 8.468138984251107,
                   20.395231386719516, 35.232071098729634],
        "busy": [6.485047509176775, 29.188424492541454, 7.934184005796051,
                 18.30874346131515, 11.140768859275928, 8.468088984251107,
                 20.395031386719516, 35.23202109872964],
        "tasks_by_processor": [2, 1, 1, 7, 2, 1, 4, 1],
        "reassignments": 0,
        "metrics": {"bus_transfers": 31, "candidates": 5058,
                    "directory_ops": 5229, "disk_reads": 1742,
                    "intersection_tests": 71017, "load_waits": 12,
                    "lru_hits": 274, "path_hits": 915, "queue_fetches": 19,
                    "remote_hits": 31},
        "pairs": "a305894f3e7f3dbb",
    },
    "svm-gd-all": {
        "disk_accesses": 1698,
        "candidates": 5058,
        "response_time": 18.112446084099133,
        "finish": [17.803378968448783, 18.112446084099133, 17.5928117327987,
                   18.07813108209735, 17.68226775539778, 17.673302886377552,
                   17.578042794322034, 17.633425092050757],
        "busy": [17.802278968448782, 18.11239608409913, 17.580761732798695,
                 18.06178108209734, 17.68116775539778, 17.663252886377546,
                 17.57284279432203, 17.632375092050758],
        "tasks_by_processor": [2, 1, 1, 7, 2, 1, 4, 1],
        "reassignments": 46,
        "metrics": {"bus_transfers": 105, "candidates": 5058,
                    "directory_ops": 5177, "disk_reads": 1698,
                    "intersection_tests": 71017, "load_waits": 18,
                    "lru_hits": 268, "pairs_reassigned": 504, "path_hits": 891,
                    "queue_fetches": 19, "reassignments": 46,
                    "remote_hits": 105},
        "pairs": "f2f23926ffced691",
    },
    "sn-spatial-static_range": {
        "disk_accesses": 1689,
        "candidates": 5058,
        "response_time": 38.6867714470997,
        "finish": [37.21525592071405, 11.948939393846343, 38.6867714470997,
                   9.431171025826403, 1.7460126187500014, 3.7294420285047374,
                   16.703323992835013, 13.608550272586866],
        "busy": [37.21525592071405, 11.948939393846343, 38.6867714470997,
                 9.431171025826403, 1.7460126187500014, 3.7294420285047374,
                 16.703323992835013, 13.608550272586866],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 0,
        "metrics": {"candidates": 5058, "disk_reads": 1689,
                    "intersection_tests": 71017, "lru_hits": 192,
                    "owner_buffer_hits": 165, "path_hits": 916,
                    "remote_fetches": 1341},
        "pairs": "af5b7d230bbfdda2",
    },
    "sn-spatial-static_round_robin": {
        "disk_accesses": 1661,
        "candidates": 5058,
        "response_time": 46.192270348144625,
        "finish": [21.301359055914787, 46.192270348144625, 8.636161287457533,
                   3.080722908687034, 4.164194315651036, 9.855408874774525,
                   6.250079410288965, 35.327384684178035],
        "busy": [21.301359055914787, 46.192270348144625, 8.636161287457533,
                 3.080722908687034, 4.164194315651036, 9.855408874774525,
                 6.250079410288965, 35.327384684178035],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 0,
        "metrics": {"candidates": 5058, "disk_reads": 1661,
                    "intersection_tests": 71017, "lru_hits": 217,
                    "owner_buffer_hits": 174, "path_hits": 910,
                    "remote_fetches": 1531},
        "pairs": "ba5e74ba9f274137",
    },
    "sn-spatial-dynamic": {
        "disk_accesses": 1747,
        "candidates": 5058,
        "response_time": 34.4861641927227,
        "finish": [7.62978619240832, 29.48611460326245, 8.19505676899704,
                   20.009819732471914, 11.778418055074464, 9.8825531408402,
                   22.13952386512683, 34.4861641927227],
        "busy": [7.62978619240832, 29.48511460326245, 8.19405676899704,
                 20.002819732471913, 11.776418055074465, 9.8815531408402,
                 22.135523865126828, 34.4851641927227],
        "tasks_by_processor": [2, 1, 1, 7, 2, 1, 4, 1],
        "reassignments": 0,
        "metrics": {"candidates": 5058, "disk_reads": 1747,
                    "intersection_tests": 71017, "lru_hits": 197,
                    "owner_buffer_hits": 103, "path_hits": 915,
                    "queue_fetches": 19, "remote_fetches": 1378},
        "pairs": "2f244e9388380635",
    },
    "sn-round-robin-static_range": {
        "disk_accesses": 1550,
        "candidates": 5058,
        "response_time": 37.17983583645512,
        "finish": [36.386562318177816, 12.871341070271408, 37.17983583645512,
                   9.687088529609179, 1.397641278183566, 2.823638691674261,
                   15.838592330090156, 13.160271915142237],
        "busy": [36.38656231817782, 12.87134107027141, 37.17983583645512,
                 9.687088529609179, 1.397641278183566, 2.823638691674261,
                 15.838592330090158, 13.160271915142237],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 0,
        "metrics": {"candidates": 5058, "disk_reads": 1550,
                    "intersection_tests": 71017, "lru_hits": 156,
                    "owner_buffer_hits": 340, "path_hits": 916,
                    "remote_fetches": 1671},
        "pairs": "af5b7d230bbfdda2",
    },
    "sn-round-robin-static_round_robin": {
        "disk_accesses": 1392,
        "candidates": 5058,
        "response_time": 39.19561712153938,
        "finish": [18.429933781692057, 39.19561712153938, 6.752262596514939,
                   1.697445738782245, 3.5098334654811296, 9.428686164954119,
                   5.953593510167523, 33.47394914242753],
        "busy": [18.429933781692057, 39.19561712153938, 6.752262596514939,
                 1.697445738782245, 3.5098334654811296, 9.428686164954119,
                 5.953593510167523, 33.47394914242753],
        "tasks_by_processor": [3, 3, 3, 2, 2, 2, 2, 2],
        "reassignments": 0,
        "metrics": {"candidates": 5058, "disk_reads": 1392,
                    "intersection_tests": 71017, "lru_hits": 186,
                    "owner_buffer_hits": 474, "path_hits": 910,
                    "remote_fetches": 1601},
        "pairs": "ba5e74ba9f274137",
    },
    "sn-round-robin-dynamic": {
        "disk_accesses": 1613,
        "candidates": 5058,
        "response_time": 33.09548381330112,
        "finish": [7.5549288385108815, 28.682413733680313, 8.157011596265864,
                   11.295521565259454, 17.48448819098254, 9.652027865492549,
                   19.832305112020787, 33.09548381330112],
        "busy": [7.5549288385108815, 28.681413733680312, 8.156011596265865,
                 11.292521565259456, 17.47848819098254, 9.65102786549255,
                 19.828305112020786, 33.094483813301125],
        "tasks_by_processor": [2, 1, 1, 3, 6, 1, 4, 1],
        "reassignments": 0,
        "metrics": {"candidates": 5058, "disk_reads": 1613,
                    "intersection_tests": 71017, "lru_hits": 155,
                    "owner_buffer_hits": 279, "path_hits": 915,
                    "queue_fetches": 19, "remote_fetches": 1632},
        "pairs": "5e23f91e2caee398",
    },
    "sequential": {
        "node_pairs": 1482,
        "tests": 71053,
        "candidates": 5058,
        "pairs": "a6137636115d985b",
    },
    "tasks": {
        "count": 1462,
        "level": 0,
        "pages": "67db4bada6a63450",
    },
}
