"""compare's verdicts: bound, direction, absolute bounds, unresolved."""

import json

from perf import compare
from perf.compare import spread, verdict


def runs(value):
    """Three runs of one side, 1 % apart: a known, narrow spread."""
    return [value * 0.99, value, value * 1.01]


def test_within_worse_better_for_lower_is_better():
    assert verdict(runs(100.0), runs(105.0), "lower", 0.10, False) == "within bound"
    assert verdict(runs(100.0), runs(111.0), "lower", 0.10, False) == "worse"
    assert verdict(runs(100.0), runs(85.0), "lower", 0.10, False) == "better"


def test_direction_flips_for_higher_is_better():
    assert verdict(runs(2000.0), runs(1700.0), "higher", 0.10, False) == "worse"
    assert verdict(runs(2000.0), runs(2300.0), "higher", 0.10, False) == "better"
    assert verdict(runs(2000.0), runs(1900.0), "higher", 0.10, False) == "within bound"


def test_absolute_bound_works_from_a_zero_baseline():
    zero = [0.0, 0.0, 0.0]
    assert verdict(zero, [0.004, 0.004, 0.003], "lower", 0.005, True) == "within bound"
    assert verdict(zero, [0.02, 0.02, 0.021], "lower", 0.005, True) == "worse"
    assert verdict(runs(0.60), runs(0.64), "lower", 0.05, True) == "within bound"


def test_missing_cells():
    assert verdict(runs(100.0), [], "lower", 0.10, False) == "worse"
    assert verdict([], runs(100.0), "lower", 0.10, False) == "new"


def test_too_few_runs_to_know_the_spread_is_unresolved():
    # noise must not read as a regression, nor as a gain
    assert verdict([100.0], [130.0], "lower", 0.10, False) == "unresolved"
    assert verdict([100.0], [60.0], "lower", 0.10, False) == "unresolved"
    assert verdict([100.0, 101.0], runs(130.0), "lower", 0.10, False) == "unresolved"
    assert spread([100.0, 101.0], False) is None


def test_medians_of_several_runs_are_compared():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    b = [103.0, 104.0, 102.0, 103.5, 102.5]
    assert verdict(a, b, "lower", 0.10, False) == "within bound"
    assert verdict(a, [x + 12 for x in b], "lower", 0.10, False) == "worse"


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert spread(noisy, False) > 0.10
    assert verdict(noisy, [82.0, 101.0, 119.0, 95.0, 108.0], "lower", 0.10, False) == "unresolved"
    # ... even when the medians differ by more than the bound
    assert verdict(noisy, [95.0, 115.0, 135.0, 105.0, 125.0], "lower", 0.10, False) == "unresolved"
    # ... unless every run of B reads better than every run of A
    assert verdict(noisy, [70.0, 75.0, 60.0, 79.0, 65.0], "lower", 0.10, False) == "better"


def _rows(value, counter):
    return "".join(
        json.dumps(_row(v, counter)) + "\n" for v in runs(value)
    )


def _row(value, counter):
    cell = {
        "untraced": {"metrics": {"join_seq_flat_ms": {"value": value, "unit": "ms", "n": 10}}},
        "traced": {"layers": {
            "join.flat.tests": {"value": counter, "unit": "count", "n": None},
            "join.mp.fork_ms": {"value": value / 10, "unit": "ms", "n": 5},
        }},
    }
    return {"workloads": {"join-full": cell}}


def test_main_exits_nonzero_on_a_regression_and_lists_counters(tmp_path, capsys):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(_rows(100.0, 4304488))
    b.write_text(_rows(104.0, 4304488))
    c.write_text(_rows(130.0, 4304000))
    assert compare.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "within bound" in out and "0 regression(s)" in out
    assert compare.main([str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "1 regression(s)" in out
    assert "join.flat.tests" in out  # an exact counter that changed at all
    assert "join.mp.fork_ms" in out  # a layer metric that moved > 10 %
