import pytest

import stats


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(range(19), 50) is None
    assert stats.percentile(range(20), 50) == 9
    assert stats.percentile(range(99), 90) is None
    assert stats.percentile(range(100), 90) == 89
    assert stats.percentile(range(999), 99) is None
    assert stats.percentile(range(1000), 99) == 989


def test_percentile_is_nearest_rank_of_unsorted_input():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 10) == 1.0


def test_min_samples_matches_rule():
    assert stats.min_samples(50) == 20
    assert stats.min_samples(90) == 100
    assert stats.min_samples(99) == 1000


@pytest.mark.parametrize("q", [0, 100, -1, 150])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        stats.percentile(range(100), q)


def test_peak_rss_is_positive_and_children_add():
    own = stats.peak_rss_mb()
    assert own > 0
    assert stats.peak_rss_mb(include_children=True) >= own


def test_quiet_figures_pool_the_quietest_quarter_of_slices():
    latencies = [0.002] * 100 + [0.001] * 100 + [0.003] * 100 + [0.004] * 100
    slices = [(0, 100, 0.2, 100), (100, 200, 0.1, 100),
              (200, 300, 0.3, 100), (300, 400, 0.4, 100)]
    figures = stats.quiet_figures(latencies, slices)
    assert figures == {"slices": 1, "queries_per_s": 1000.0,
                       "latency_p50_ms": 1.0, "latency_p90_ms": 1.0}
    everything = stats.quiet_figures(latencies, [(0, 400, 1.0, 400)])
    assert everything["latency_p90_ms"] == 4.0
    assert stats.quiet_figures(latencies[:50], [(0, 50, 0.1, 50)])["latency_p90_ms"] is None
