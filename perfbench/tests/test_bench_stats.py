"""Percentile, tail-choice, schedule and lateness math of the benchmark."""

import numpy as np
import pytest

from perfbench.stats import (
    latencies_from_due, lateness, median, percentile, poisson_schedule,
)


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = list(np.random.default_rng(3).exponential(size=57))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_of_even_sample_interpolates():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_reported_tails_have_ten_samples_beyond():
    from perfbench import serving

    assert serving.BASE_REQUESTS * (100 - 95) / 100 >= 10
    assert serving.RUNG_REQUESTS * (100 - 90) / 100 >= 10


def test_poisson_schedule_is_seeded_and_rescaled():
    a = poisson_schedule(12.0, 120, seed=5, start=100.0)
    assert a == poisson_schedule(12.0, 120, seed=5, start=100.0)
    assert a != poisson_schedule(12.0, 120, seed=6, start=100.0)
    assert a[-1] == pytest.approx(100.0 + 120 / 12.0)
    assert all(x < y for x, y in zip(a, a[1:]))
    assert a[0] > 100.0


def test_lateness_and_latency_count_from_due_time():
    due = [0.0, 0.1, 0.2]
    sent = [0.0, 0.25, 0.2]    # the second waited for a free connection
    done = [0.05, 0.30, 0.26]
    assert lateness(due, sent) == pytest.approx([0.0, 0.15, 0.0])
    # Latency includes the wait before sending, not only the exchange.
    assert latencies_from_due(due, done) == pytest.approx([0.05, 0.20, 0.06])


def test_lateness_never_negative_and_lengths_must_match():
    assert lateness([1.0], [0.999]) == [0.0]
    with pytest.raises(ValueError):
        lateness([1.0], [])
    with pytest.raises(ValueError):
        latencies_from_due([1.0, 2.0], [1.5])
