"""The claims table at small scale.

Every claim passes at scale 0.02 or, when it names a larger smallest
scale, skips; no claim reads a wall-clock column; every claim's sentence
is in EXPERIMENTS.md; and a defect planted in the experiments fails the
claim that guards against it, through the command line.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import CLAIMS, EXPERIMENTS, figures, get_workload
from repro.bench.__main__ import main as cli_main
from repro.join import GD, BufferMode, JoinVariant, ReassignLevel, ReassignmentPolicy

SCALE = 0.02
EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def results():
    workload = get_workload(SCALE)
    return {name: run(workload) for name, (_, run) in EXPERIMENTS.items()}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: f"{c.experiment}/{c.name}")
def test_claim_at_small_scale(claim, results):
    expected = "skip" if SCALE < claim.min_scale else "pass"
    assert claim.verdict(results[claim.experiment], SCALE) == expected


def test_no_claim_reads_a_wall_clock_column(results):
    timed = {
        name: [{k: v for k, v in row.items() if not k.startswith("wall")} for row in rows]
        for name, rows in results.items()
    }
    assert timed != results  # the z-order rows carry one
    for claim in CLAIMS:
        rows = results[claim.experiment]
        assert claim.verdict(timed[claim.experiment], SCALE) == claim.verdict(rows, SCALE)


def test_every_claim_is_a_sentence_of_experiments_md():
    text = " ".join(EXPERIMENTS_MD.read_text("utf-8").split())
    names = [(c.experiment, c.name) for c in CLAIMS]
    assert len(set(names)) == len(names)
    for claim in CLAIMS:
        assert claim.experiment in EXPERIMENTS
        assert claim.sentence in text, claim.name
    # Every experiment states at least one claim.
    assert {c.experiment for c in CLAIMS} == set(EXPERIMENTS)


@pytest.mark.parametrize(
    "experiment, claim, mutate",
    [
        ("fig7", "spread-collapses",
         lambda c: replace(c, reassignment=ReassignmentPolicy(level=ReassignLevel.NONE))),
        ("fig5", "gd-best",
         lambda c: replace(c, variant=JoinVariant(BufferMode.LOCAL, GD.assignment))
         if c.variant == GD else c),
        ("fig10", "near-linear", lambda c: replace(c, disks=1)),
    ],
    ids=["reassignment-off", "gd-buffer-local", "one-disk"],
)
def test_a_planted_defect_fails_its_claim(experiment, claim, mutate, monkeypatch, capsys):
    # Every simulated join of the figure drivers runs with *mutate* applied.
    run_join = figures.run_join
    monkeypatch.setattr(figures, "run_join", lambda w, c: run_join(w, mutate(c)))
    assert cli_main(["--scale", str(SCALE), experiment]) == 1
    out = capsys.readouterr().out
    assert re.search(rf"^  FAIL  fig\d+/{claim} ", out, re.MULTILINE), out
