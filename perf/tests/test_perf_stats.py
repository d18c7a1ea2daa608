"""The percentile rule: a tail is reported only with >= 10 samples beyond it."""

import pytest

from perf.stats import median, percentile, tail_percentile


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(12000) == 99.0
    assert tail_percentile(1000) == 99.0  # exactly ten beyond p99
    assert tail_percentile(999) == 95.0  # 9.99 beyond p99: not enough
    assert tail_percentile(200) == 95.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) is None
    assert tail_percentile(10) is None  # ten join rounds: a median only


def test_percentile_interpolates_and_rejects_empty():
    assert percentile([10.0, 20.0], 50.0) == 15.0
    assert median([5.0]) == 5.0
    assert percentile([float(i) for i in range(1, 1001)], 99.0) == pytest.approx(990.01)
    with pytest.raises(ValueError):
        percentile([], 50.0)
