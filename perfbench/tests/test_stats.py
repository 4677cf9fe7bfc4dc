import pytest

import stats


def test_p90_needs_a_hundred_samples():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    assert stats.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(1, 100)), 90)


def test_reported_percentile_leaves_ten_samples_beyond():
    for n in (100, 137, 250):
        values = [float(v) for v in range(n)]
        p90 = stats.percentile(values, 90)
        assert sum(v > p90 for v in values) >= stats.BEYOND


def test_median_needs_twenty():
    stats.percentile(list(range(20)), 50)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)
