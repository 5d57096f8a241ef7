"""TimeSeries ring-buffer bound + single-sort snapshot percentiles."""

import pytest

from repro.sim.stats import TimeSeries


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TimeSeries("x", capacity=0)
    with pytest.raises(ValueError):
        TimeSeries("x", capacity=-3)
    TimeSeries("x", capacity=1)      # boundary is legal
    TimeSeries("x")                  # unbounded default


def test_ring_evicts_oldest_and_counts_drops():
    ts = TimeSeries("occ", capacity=3)
    for i in range(5):
        ts.record(float(i), float(i * 10))
    assert len(ts) == 3
    assert ts.values == [20.0, 30.0, 40.0]   # 0 and 10 evicted
    assert ts.dropped_samples == 2


def test_unbounded_series_never_drops():
    ts = TimeSeries("occ")
    for i in range(100):
        ts.record(float(i), float(i))
    assert len(ts) == 100
    assert ts.dropped_samples == 0
    assert "dropped_samples" not in ts.snapshot()


def test_snapshot_surfaces_dropped_samples():
    ts = TimeSeries("occ", capacity=2)
    for i in range(6):
        ts.record(float(i), float(i))
    snap = ts.snapshot()
    assert snap["dropped_samples"] == 4
    assert snap["count"] == 2
    assert snap["last"] == 5.0


def test_snapshot_percentiles_match_per_quantile_queries():
    ts = TimeSeries("lat")
    for i, v in enumerate([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]):
        ts.record(float(i), v)
    snap = ts.snapshot()
    # the snapshot sorts once and reads every quantile from the shared
    # sorted copy; it must agree with the one-sort-per-call API
    for key, p in (("p50", 50), ("p95", 95), ("p99", 99)):
        assert snap[key] == ts.percentile(p)
    assert snap["max"] == ts.max() == 9.0
    assert snap["mean"] == pytest.approx(ts.mean())


def test_empty_snapshot_is_count_zero():
    assert TimeSeries("empty").snapshot() == {"count": 0}
    assert TimeSeries("empty", capacity=4).snapshot() == {"count": 0}
