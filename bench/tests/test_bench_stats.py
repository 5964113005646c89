import statistics

import pytest
from stats import percentile, quartiles, tail_percentile


@pytest.mark.parametrize(
    "n, q",
    [
        (19, None),  # not even the median has 10 samples above it
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
        (100000, 99.99),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    values = [float(i) for i in range(n)]
    tail = tail_percentile(values)
    if q is None:
        assert tail is None
    else:
        assert tail == (q, percentile(values, q))
        assert sum(1 for v in values if v > tail[1]) >= 10


def test_percentile_interpolates_linearly():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 90) == 5.0
    assert percentile([0.0, 10.0], 90) == 9.0


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
