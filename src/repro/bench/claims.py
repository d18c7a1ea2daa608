"""The paper's experiments by name, and the claims their rows must satisfy.

``EXPERIMENTS`` is the one list of what ``python -m repro.bench`` runs.
``CLAIMS`` is the one executable statement of every shape claim
EXPERIMENTS.md makes — the paper's (sections 4.3-4.6: who wins, by what
factor, where curves bend) and those of the ablations and extensions.  Each
claim is a predicate over one experiment's rows and the scale they were
measured at, beside the EXPERIMENTS.md sentence it proves.  A claim that
cannot hold on a small workload names the smallest scale it is checked at
and reads ``skip`` below it, never ``pass``.  No predicate reads a
wall-clock column: every number a claim sees is an exact output of the
deterministic simulator or of a counting algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .figures import (
    ablation_task_order,
    ablation_tuning_techniques,
    figure5,
    figure7,
    figure8,
    figure9_and_10,
    parallel_queries,
    second_filter,
    shared_nothing_grid,
    zorder_vs_rtree,
)
from .harness import Workload
from .tables import table1_rows, table2_rows

__all__ = ["Claim", "CLAIMS", "EXPERIMENTS", "ALIASES"]

Rows = list[dict[str, object]]

#: name -> (title, driver).
EXPERIMENTS: dict[str, tuple[str, Callable[[Workload], Rows]]] = {
    "table1": ("Table 1 — R*-tree parameters", table1_rows),
    "table2": ("Table 2 — KSR1 memory parameters", lambda _: table2_rows()),
    "fig5": ("Figure 5 — disk accesses vs buffer size", figure5),
    "fig7": ("Figure 7 — task reassignment", figure7),
    "fig8": ("Figure 8 — victim selection", figure8),
    "fig9": ("Figures 9/10 — response time, speed-up, disk accesses",
             figure9_and_10),
    "ablation-order": ("Ablation — task order", ablation_task_order),
    "ablation-tuning": ("Ablation — BKS93 tuning techniques",
                        ablation_tuning_techniques),
    "shared-nothing": ("Extension — shared-nothing join, n = 8",
                       shared_nothing_grid),
    "queries": ("Extension — parallel window / kNN queries", parallel_queries),
    "multistep": ("Extension — second filter step [BKS 94]", second_filter),
    "zorder": ("Extension — R*-tree vs z-order filter [OM 88], scale <= 0.25",
               zorder_vs_rtree),
}

#: Figure 10 is read from Figure 9's sweep, which runs once.
ALIASES = {"fig10": "fig9"}


@dataclass(frozen=True)
class Claim:
    experiment: str
    name: str
    sentence: str
    holds: Callable[[Rows, float], bool]
    min_scale: float = 0.0

    def verdict(self, rows: Rows, scale: float) -> str:
        if scale < self.min_scale:
            return "skip"
        return "pass" if self.holds(rows, scale) else "FAIL"


def _col(rows: Rows, column: str, **match: object) -> list:
    """One column of the rows that match, in row order."""
    return [r[column] for r in rows if all(r[k] == v for k, v in match.items())]


def _falls(values: list) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _trees(rows: Rows, parameter: str) -> list[tuple]:
    """Table 1: (ours, paper's) for each tree."""
    row = next(r for r in rows if r["parameter"] == parameter)
    return [(row[t], row["paper " + t]) for t in ("tree1", "tree2")]


def _fig5_curves(rows: Rows) -> list[list]:
    """Figure 5: each (processors, variant) curve in buffer order."""
    return [_col(rows, v, processors=n) for n in (8, 24) for v in ("lsr", "gsrr", "gd")]


def _fig5_lead(rows: Rows, n: int) -> list:
    """Figure 5: how many accesses gd saves against lsr, in buffer order."""
    return [a - b for a, b in zip(_col(rows, "lsr", processors=n), _col(rows, "gd", processors=n))]


def _spread(rows: Rows, variant: str) -> list:
    """Figure 7: last minus first finisher, without / root level / all levels."""
    return [r["last (s)"] - r["first (s)"] for r in rows if r["variant"] == variant]


def _cut(rows: Rows, variant: str) -> float:
    """Figure 7: relative cut of the last finisher's time, none -> all levels."""
    without, _root, all_levels = _col(rows, "last (s)", variant=variant)
    return (without - all_levels) / without


def _curve(rows: Rows, series: str, column: str) -> dict:
    """Figures 9/10: processors -> *column* for one disk series."""
    return {r["processors"]: r[column] for r in rows if r["series"] == series}


def _shuffle_cost(rows: Rows, column: str) -> dict:
    """Ablation order: variant -> shuffled / plane-sweep order."""
    pairs = {v: _col(rows, column, variant=v) for v in ("lsr", "gsrr", "gd")}
    return {v: shuffled / ordered for v, (ordered, shuffled) in pairs.items()}


def _tests(rows: Rows) -> dict:
    """Ablation tuning: (restriction, plane sweep) -> intersection tests."""
    return {(r["restriction"], r["plane sweep"]): r["intersection tests"] for r in rows}


def _window(rows: Rows) -> Rows:
    return [r for r in rows if r["query"].startswith("window")]


CLAIMS: tuple[Claim, ...] = (
    Claim("table1", "entries", "each tree holds every object of its map",
          lambda rows, scale: all(
              n == max(1, round(p * scale)) for n, p in _trees(rows, "number of data entries"))),
    Claim("table1", "height", "identical heights",
          lambda rows, _: all(n == p for n, p in _trees(rows, "height")), min_scale=0.02),
    Claim("table1", "pages", "data page counts within 1 % (STR-packed trees)",
          lambda rows, _: all(abs(n - p) <= 0.01 * p
                              for n, p in _trees(rows, "number of data pages")),
          min_scale=1.0),
    Claim("table1", "tasks", "m of the same order",
          lambda rows, _: all(p / 2 <= n <= 2 * p for n, p in _trees(rows, "m (number of tasks)")),
          min_scale=1.0),
    Claim("table2", "remote-factor",
          "Per-unit latency ratio remote/local = 7.5 — the paper's \"access "
          "to the own buffer is by a factor of about 10 times faster\"",
          lambda rows, _: 5 < rows[2]["latency (usec)"] / rows[1]["latency (usec)"] < 15),
    Claim("table2", "simulated-copy",
          "the simulator charges a remote page copy its configured 4 KB copy time",
          lambda rows, _: abs(rows[2]["simulated copy (usec)"]
                              - rows[2]["4KB page copy (usec)"]) < 0.1),
    Claim("fig5", "buffer-helps",
          "disk accesses fall monotonically with buffer size for every variant",
          lambda rows, _: all(c[-1] < c[0] and c == sorted(c, reverse=True)
                              for c in _fig5_curves(rows))),
    Claim("fig5", "lsr-gsrr-close", "lsr and gsrr \"do not differ very much\"",
          lambda rows, _: all(abs(r["lsr"] - r["gsrr"]) <= 0.06 * max(r["lsr"], r["gsrr"])
                              for r in rows),
          min_scale=1.0),
    Claim("fig5", "gd-best", "gd is the best variant at every point",
          lambda rows, _: all(r["gd"] < min(r["lsr"], r["gsrr"]) for r in rows)),
    Claim("fig5", "gd-lead-grows",
          "its lead grows with the buffer: the global buffer profits more "
          "from a larger buffer than the local ones",
          lambda rows, _: all(_fig5_lead(rows, n)[-1] > _fig5_lead(rows, n)[0] for n in (8, 24))),
    Claim("fig5", "more-processors",
          "24 processors need more accesses than 8 at the same total buffer",
          lambda rows, _: (lambda n8, n24: n24 > n8)(
              *_col(rows, "lsr", **{"buffer (paper pages)": 200}))),
    Claim("fig7", "spread-collapses", "reassignment collapses the first/last spread",
          lambda rows, _: all(_spread(rows, v)[2] <= _spread(rows, v)[0] / 2
                              for v in ("lsr", "gsrr"))),
    Claim("fig7", "last-finisher",
          "drastically cuts the response time of the last processor — "
          "largest for lsr and gsrr",
          lambda rows, _: min(_cut(rows, "lsr"), _cut(rows, "gsrr")) > max(0.0, _cut(rows, "gd"))),
    Claim("fig7", "local-buffer-cost",
          "the improvement costs a slight increase in disk accesses for local buffers",
          lambda rows, _: (lambda before, _root, after: before <= after <= 1.1 * before)(
              *_col(rows, "disk accesses", variant="lsr"))),
    Claim("fig7", "gd-root-noop", "for gd, root-level reassignment changes nothing at all",
          lambda rows, _: all(len(set(_col(rows, c, variant="gd")[:2])) == 1  # without, root
                              for c in ("first (s)", "avg (s)", "last (s)", "disk accesses"))),
    Claim("fig7", "gd-all-levels", "all-levels gives only a small further gain",
          lambda rows, _: 0 <= _cut(rows, "gd") < _cut(rows, "gsrr")),
    Claim("fig7", "gd-accesses", "with a *non-increasing* number of disk accesses",
          lambda rows, _: (lambda without, _root, after: after <= without)(
              *_col(rows, "disk accesses", variant="gd")),
          min_scale=1.0),
    Claim("fig8", "local-small-increase",
          "a small increase for the local buffer with an arbitrary victim",
          lambda rows, _: rows[0]["a: max load"] <= rows[0]["b: arbitrary"]
          <= 1.05 * rows[0]["a: max load"]),
    Claim("fig8", "global-no-difference", "no difference for the global buffer",
          lambda rows, _: all(abs(r["a: max load"] - r["b: arbitrary"]) <= 0.01 * r["a: max load"]
                              for r in rows[1:])),
    Claim("fig9", "one-disk-saturates",
          "one disk saturates: beyond ~4 processors the d=1 curve flattens",
          lambda rows, _: (lambda one, dn: one[24] < min(8, dn[24] / 2, 1.1 * one[16]))(
              _curve(rows, "d=1", "speedup"), _curve(rows, "d=n", "speedup"))),
    Claim("fig9", "d8-falls-behind", "d=8 falls behind d=n above ~10 processors",
          lambda rows, _: all(_curve(rows, "d=8", "speedup")[n] < _curve(rows, "d=n", "speedup")[n]
                              for n in (16, 20, 24))),
    Claim("fig9", "near-linear", "near-linear speed-up for d = n",
          lambda rows, _: _falls(_col(rows, "response (s)", series="d=n")) and all(
              _curve(rows, "d=n", "speedup")[n] >= 0.75 * n for n in (8, 24))),
    Claim("fig9", "accesses-fall", "disk accesses decrease with n",
          lambda rows, _: (lambda d: d[24] < min(d[1], d[2]))(
              _curve(rows, "d=n", "disk accesses"))),
    Claim("fig9", "total-work-flat", "total run time of all tasks stays almost flat",
          lambda rows, _: (lambda t: max(t.values()) <= 1.25 * t[1])(
              _curve(rows, "d=n", "total run time (s)"))),
    Claim("ablation-order", "shuffle-costs",
          "on STR-packed trees, destroying the local plane-sweep order by "
          "shuffling the task list costs every variant disk accesses",
          lambda rows, _: min(_shuffle_cost(rows, "disk accesses").values()) > 1),
    Claim("ablation-order", "gd-suffers-most", "gd suffers most (STR-packed trees)",
          lambda rows, _: (lambda cost: cost["gd"] == max(cost.values()))(
              _shuffle_cost(rows, "response (s)"))),
    Claim("ablation-tuning", "same-candidates", "all four settings find the same candidates",
          lambda rows, _: len({r["candidates"] for r in rows}) == 1),
    Claim("ablation-tuning", "sweep-cuts-tests",
          "On STR-packed trees the plane sweep cuts CPU tests more than 5× "
          "against the nested loop",
          lambda rows, _: (lambda t: 5 * max(t["on", "on"], t["off", "on"]) < t["off", "off"])(
              _tests(rows))),
    Claim("ablation-tuning", "restriction-no-gain",
          "With the sweep already on, the restriction's pre-scan does not pay "
          "for itself on this workload's STR-packed trees",
          lambda rows, _: (lambda t: t["on", "on"] >= t["off", "on"])(_tests(rows))),
    Claim("ablation-tuning", "restriction-nested-loop",
          "its win in [BKS 93] was biggest for the nested-loop formulation",
          lambda rows, _: (lambda t: 2 * t["on", "off"] < t["off", "off"])(_tests(rows))),
    Claim("shared-nothing", "spatial-placement",
          "Spatial declustering + the range assignment cuts remote page fetches "
          "to well under the spatially blind placement's",
          lambda rows, _: (lambda spatial, blind: spatial < 0.6 * blind)(
              *_col(rows, "remote fetches", assignment="static range"))),
    Claim("shared-nothing", "svm-fastest", "the SVM reference (gd + reassign-all) stays fastest",
          lambda rows, _: rows[-1]["response (s)"] < min(r["response (s)"] for r in rows[:-1])),
    Claim("shared-nothing", "dynamic-wins",
          "among shared-nothing configurations the dynamic assignment wins",
          lambda rows, _: min(rows[:-1], key=lambda r: r["response (s)"])["assignment"]
          == "dynamic"),
    Claim("queries", "window-scales",
          "On STR-packed trees a window covering half the region gets faster "
          "with every processor added",
          lambda rows, _: _falls(_col(_window(rows), "response (s)"))
          and _col(_window(rows), "speedup", processors=8)[0] > 3),
    Claim("queries", "window-same-answer", "every processor count returns the same answer",
          lambda rows, _: len({r["results"] for r in _window(rows)}) == 1),
    Claim("queries", "knn-prunes",
          "the parallel 10-NN search with the SVM-shared pruning bound finds "
          "10 neighbours in a few pages",
          lambda rows, _: rows[-1]["results"] == 10
          and rows[-1]["disk accesses"] < min(_col(_window(rows), "disk accesses"))),
    Claim("multistep", "same-answers", "the hull filter loses no answer",
          lambda rows, _: rows[1]["answers unlike 2-step"] == 0),
    Claim("multistep", "hull-saves-tests",
          "the convex-hull filter eliminates a share of the MBR candidates",
          lambda rows, _: rows[1]["exact tests"] < rows[0]["exact tests"]),
    Claim("multistep", "hull-breaks-even", "at ~1 ms per hull test it roughly breaks even there",
          lambda rows, _: (lambda two, three: abs(three - two) <= 0.05 * two)(
              *_col(rows, "est. refinement cost (s)"))),
    Claim("zorder", "same-candidates", "the z-ordering join produces the identical candidate set",
          lambda rows, _: not any(_col(rows, "pairs unlike R*-tree"))
          and len(set(_col(rows, "candidates"))) == 1),
    Claim("zorder", "more-tests",
          "but needs several times the intersection tests of the R*-tree filter",
          lambda rows, _: all(3 * rows[0]["tests"] < r["tests"] for r in rows[1:])),
    Claim("zorder", "regions-trade",
          "four regions per object trade fewer tests for duplicate hits",
          lambda rows, _: rows[2]["tests"] < rows[1]["tests"] and rows[2]["duplicates"] > 0
          and rows[2]["index entries"] > rows[1]["index entries"]),
)
