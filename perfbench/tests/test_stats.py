"""The tail rule: the highest percentile with at least ten samples beyond it."""

import pytest

from perfbench.common import percentile, tail


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "count, label",
    [
        (19, "max"),  # the tenth from the top would sit below the median
        (20, "p50"),
        (22, "p54.55"),
        (40, "p75"),
        (100, "p90"),
        (199, "p94.97"),
        (200, "p95"),
        (1000, "p99"),
        (2000, "p99.5"),
        (10000, "p99.9"),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(count, label):
    values = [float(v) for v in range(count)]
    value, chosen = tail(values)
    assert chosen == label
    if label == "max":
        assert value == max(values)
    else:
        assert value == values[count - 11]
        assert sum(1 for v in values if v > value) == 10
        assert value == percentile(values, 100.0 * (count - 10) / count)


def test_tail_counts_ranks_not_distinct_values():
    # 900 fast and 100 slow samples: p99 lands on the slow plateau even
    # though no sample is strictly greater than it.
    values = [1.0] * 900 + [5.0] * 100
    assert tail(values) == (5.0, "p99")


def test_tail_is_order_independent():
    values = [3.0, 1.0, 2.0] * 10
    assert tail(values) == tail(sorted(values))
