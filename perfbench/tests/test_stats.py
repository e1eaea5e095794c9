"""Percentiles as the benchmark reports them."""

import pytest

from benchlib import stats


@pytest.mark.parametrize("want, rank", [(1, 1), (30, 30), (30.5, 31), (50, 50), (90, 90)])
def test_tail_is_the_nearest_rank_percentile_below_the_limit(want, rank):
    values = [10.0 * r for r in range(100, 0, -1)]
    assert stats.tail(values, want) == (10.0 * rank, want)


def test_tail_uses_p99_when_ten_samples_lie_beyond():
    values = list(range(1, 1001))
    value, q = stats.tail(values, 99.0)
    assert (value, q) == (990, 99.0)
    assert sum(v > value for v in values) == 10


def test_tail_falls_back_to_the_highest_supported_percentile():
    values = list(range(1, 501))
    value, q = stats.tail(values, 99.0)
    assert value == 490
    assert q == pytest.approx(98.0)
    assert sum(v > value for v in values) == 10


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))
    value, q = stats.tail(list(range(1, 12)))
    assert value == 1 and sum(v > value for v in range(1, 12)) == 10


def test_describe_omits_an_unsupported_tail():
    assert "no tail percentile" in stats.describe([1.0] * 5)
    assert "p99 990.000" in stats.describe(list(range(1, 1001)))
