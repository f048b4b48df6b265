import statistics

import pytest

from perfbench import stats


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q2 == stats.median(values) == 4.0


def test_iqr_share_is_quartile_distance_over_median():
    values = [10.0, 10.0, 11.0, 12.0, 12.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / q2)
    assert stats.iqr_share([3.0, 3.0, 3.0]) == 0.0


def test_single_sample_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        stats.median([])


@pytest.mark.parametrize("n, expected", [
    (19, None),             # p50 would leave only 9 beyond
    (20, (50.0, 10.0)),     # rank 10, samples 11..20 beyond
    (39, (50.0, 20.0)),     # p75 is rank 30: only 9 beyond
    (40, (75.0, 30.0)),
    (100, (90.0, 90.0)),    # p95 leaves 5
    (1000, (99.0, 990.0)),  # p99.9 leaves 1
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n, 0, -1)]   # 1..n, unsorted
    assert stats.tail(values) == expected


def test_describe_accepts_a_generator():
    d = stats.describe(x for x in [1.0, 2.0, 3.0])
    assert d["n"] == 3 and d["median"] == 2.0 and d["tail"] is None
