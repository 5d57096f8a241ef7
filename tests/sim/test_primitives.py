"""Tests for Delay/Event/Timeout primitives and the stats registry."""

import pytest

from repro.sim import TIMED_OUT, Delay, Simulator, Timeout
from repro.sim.stats import StatRegistry, TimeSeries


class TestDelay:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Delay(-0.1)

    def test_duration_stored(self):
        assert Delay(2.5).duration == 2.5


class TestTimeout:
    def test_event_first(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def prog():
            val = yield Timeout(ev, 100.0)
            got.append((sim.now, val))

        sim.spawn(prog())
        sim.schedule(5.0, ev.succeed, "early")
        sim.run()
        assert got == [(5.0, "early")]

    def test_timeout_first(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def prog():
            val = yield Timeout(ev, 10.0)
            got.append((sim.now, val))

        sim.spawn(prog())
        sim.run(check_deadlock=False)
        assert got == [(10.0, TIMED_OUT)]

    def test_no_double_resume_when_both_fire(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def prog():
            val = yield Timeout(ev, 10.0)
            got.append(val)
            yield Delay(50.0)  # survive past the stale timeout callback

        sim.spawn(prog())
        sim.schedule(10.0, ev.succeed, "same-instant")
        sim.run()
        assert len(got) == 1


class TestEventValue:
    def test_value_before_fire_raises(self):
        sim = Simulator()
        ev = sim.event("pending")
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_value_after_fire(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed({"k": 1})
        assert ev.value == {"k": 1}
        assert ev.triggered


class TestStats:
    def test_counter_accumulates(self):
        reg = StatRegistry("x.")
        reg.count("hits")
        reg.count("hits", 4)
        assert reg.get("hits") == 5

    def test_untouched_counter_reads_zero(self):
        assert StatRegistry().get("nothing") == 0

    def test_snapshot_sorted(self):
        reg = StatRegistry()
        reg.count("b")
        reg.count("a", 2)
        assert list(reg.snapshot().items()) == [("a", 2), ("b", 1)]

    def test_series(self):
        s = TimeSeries("depth")
        s.record(0.0, 1.0)
        s.record(1.0, 3.0)
        assert s.mean() == 2.0
        assert s.max() == 3.0
        assert len(s) == 2

    def test_empty_series_mean_raises(self):
        with pytest.raises(ValueError):
            TimeSeries("empty").mean()

    def test_empty_series_max_raises_named_error(self):
        with pytest.raises(ValueError, match="'w.empty' is empty"):
            TimeSeries("w.empty").max()

    def test_series_percentile(self):
        s = TimeSeries("lat")
        for i, v in enumerate([10.0, 20.0, 30.0, 40.0]):
            s.record(float(i), v)
        assert s.percentile(50) == 20.0
        assert s.percentile(100) == 40.0
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_empty_series_percentile_raises_named_error(self):
        with pytest.raises(ValueError, match="'empty' is empty"):
            TimeSeries("empty").percentile(50)

    def test_snapshot_uses_prefixed_names(self):
        reg = StatRegistry("am[0].")
        reg.count("packets", 3)
        assert reg.snapshot() == {"am[0].packets": 3}
