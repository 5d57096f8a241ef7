"""Timer contract tests: cancellable timers, a cancel racing a
same-instant entry, stale generations, and the negative-delay clamp.

Every case runs twice, under the ids ``heap`` and ``wheel``: the names of
the two schedulers these cases were first written against, kept so the
case names stay stable.  There is one scheduler now, the binary heap;
the two ids cover its two execute paths — ``heap`` drains the queue with
``run()``, ``wheel`` turns it one event at a time with ``step()``.  The
same-instant race cases also run with the ``repro.check`` scheduler
checker attached (``True``) and without it (``False``).
"""

import pytest

from repro.check import Sanitizer
from repro.sim import Simulator
from repro.sim.engine import NEGATIVE_DELAY_EPSILON
from repro.sim.errors import DeadlockError
from repro.sim.primitives import TIMED_OUT, Delay, Timeout, WaitEvent


def _run(sim):
    sim.run()


def _step(sim):
    while sim.step():
        pass


#: case id -> how the case drives the queue
_DRIVES = {"wheel": _step, "heap": _run}

by_drive = pytest.mark.parametrize(
    "drive", list(_DRIVES.values()), ids=list(_DRIVES))


# ---------------------------------------------------------------------------
# cancel racing a same-timestamp entry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("checked", [True, False])
@by_drive
class TestSameInstantCancelRace:
    @staticmethod
    def _sim(checked):
        sim = Simulator()
        if checked:
            Sanitizer().watch_sim(sim)
        return sim

    def test_cancel_of_later_same_instant_entry_never_fires(
            self, drive, checked):
        # the canceller executes at (T, seq_a); the victim timer sits at
        # (T, seq_b > seq_a), already queued behind it
        sim = self._sim(checked)
        fired = []
        h = []
        sim.schedule(5.0, lambda: h[0].cancel())
        h.append(sim.call_later(5.0, fired.append, "boom"))
        drive(sim)
        assert fired == []
        assert sim.events_executed == 1
        assert sim.stale_events_skipped == 1

    def test_cancel_then_reschedule_same_instant_fires_once(
            self, drive, checked):
        sim = self._sim(checked)
        fired = []
        h = []

        def flip():
            h[0].cancel()
            h[0] = sim.call_later(0.0, fired.append, "new")

        sim.schedule(5.0, flip)
        h.append(sim.call_later(5.0, fired.append, "old"))
        drive(sim)
        assert fired == ["new"]
        assert sim.stale_events_skipped == 1

    def test_stale_generation_fire_fails_loudly(self, drive, checked):
        sim = self._sim(checked)
        h = sim.call_later(1.0, lambda: None)
        stale_gen = h.gen
        h.cancel()
        with pytest.raises(RuntimeError):
            h._fire(stale_gen, lambda: None, ())
        drive(sim)
        assert sim.events_executed == 0
        assert sim.stale_events_skipped == 1


# ---------------------------------------------------------------------------
# cancellable timers
# ---------------------------------------------------------------------------

@by_drive
class TestTimerCancellation:
    def test_cancelled_timer_never_fires_and_is_not_counted(self, drive):
        sim = Simulator()
        fired = []
        h = sim.call_later(10.0, fired.append, "boom")
        sim.schedule(20.0, lambda: None)  # keep the queue non-empty past 10
        assert h.active
        assert h.cancel()
        assert not h.active
        assert not h.cancel()  # second cancel is a no-op
        drive(sim)
        assert fired == []
        # the tombstone was skipped, not executed: only the keep-alive
        # event counts, and the skip is visible in its own counter
        assert sim.events_executed == 1
        assert sim.stale_events_skipped == 1

    def test_cancel_after_fire_is_a_noop(self, drive):
        sim = Simulator()
        fired = []
        h = sim.call_later(5.0, fired.append, "x")
        drive(sim)
        assert fired == ["x"]
        assert not h.active
        assert not h.cancel()

    def test_generation_bumps_on_cancel_and_fire(self, drive):
        sim = Simulator()
        h1 = sim.call_later(1.0, lambda: None)
        g0 = h1.gen
        h1.cancel()
        assert h1.gen == g0 + 1
        h2 = sim.call_later(1.0, lambda: None)
        g1 = h2.gen
        drive(sim)
        assert h2.gen == g1 + 1

    def test_stale_timeout_wakeup_never_fires(self, drive):
        # A process blocks on Timeout(event, duration); the event wins the
        # race.  The loser timer must be discarded as a tombstone — it may
        # not re-resume the process, and it may not count as an event.
        sim = Simulator()
        ev = sim.event("ack")
        outcomes = []

        def waiter():
            value = yield Timeout(ev, 1_000.0)
            outcomes.append(value)
            # keep living past the stale timer's deadline: a buggy wakeup
            # would resume the generator here and append a second outcome
            yield Delay(2_000.0)

        sim.spawn(waiter(), name="waiter")
        sim.schedule(5.0, ev.succeed, "acked")
        drive(sim)
        assert outcomes == ["acked"]
        assert sim.stale_events_skipped == 1
        assert sim.now == 2_005.0

    def test_timeout_path_still_fires_without_event(self, drive):
        sim = Simulator()
        ev = sim.event("never")
        outcomes = []

        def waiter():
            value = yield Timeout(ev, 50.0)
            outcomes.append(value is TIMED_OUT)

        sim.spawn(waiter(), name="waiter")
        drive(sim)
        assert outcomes == [True]
        assert sim.now == 50.0


# ---------------------------------------------------------------------------
# negative-delay epsilon clamp (float-error regression)
# ---------------------------------------------------------------------------

@by_drive
class TestNegativeDelayClamp:
    def test_epsilon_negative_delay_clamps_to_now(self, drive):
        # Switch.inject's per-hop float sums can land an epsilon behind
        # sim.now; that must schedule "immediately", not raise
        sim = Simulator()
        fired = []
        sim.schedule(-1e-10, fired.append, "ok")
        drive(sim)
        assert fired == ["ok"]
        assert sim.now == 0.0

    def test_at_epsilon_in_the_past_clamps(self, drive):
        sim = Simulator()
        fired = []

        def late():
            # an absolute timestamp an epsilon before the current instant
            sim.at(sim.now - 1e-12, fired.append, "ok")

        sim.schedule(5.0, late)
        drive(sim)
        assert fired == ["ok"]
        assert sim.now == 5.0

    def test_real_past_scheduling_still_raises(self, drive):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        drive(sim)
        with pytest.raises(ValueError):
            sim.schedule(-1e-6, lambda: None)
        with pytest.raises(ValueError):
            sim.at(sim.now - 1.0, lambda: None)
        assert sim.live_pending_count() == 0  # nothing was queued
        assert -1e-6 < -NEGATIVE_DELAY_EPSILON  # the clamp is truly tiny


# ---------------------------------------------------------------------------
# same-instant order and deadlock detection
# ---------------------------------------------------------------------------

def test_same_time_events_run_in_insertion_order_across_window_refills():
    # events at one instant, pushed from different instants — two at
    # t=0 and one from t=200 — still run in global insertion order
    sim = Simulator()
    log = []
    sim.schedule(500.0, log.append, "first")
    sim.schedule(500.0, log.append, "second")
    sim.schedule(200.0, lambda: sim.schedule(300.0, log.append, "third"))
    sim.run()
    assert log == ["first", "second", "third"]
    assert sim.now == 500.0


def test_wheel_deadlock_detection_still_works():
    # a cancelled far-future timer is no future work: a queue holding
    # only that tombstone has drained, and the blocked process is a
    # deadlock
    sim = Simulator()

    def blocked():
        yield WaitEvent(sim.event("forever"))

    sim.spawn(blocked(), name="blocked")
    sim.call_later(1e9, lambda: None).cancel()
    with pytest.raises(DeadlockError):
        sim.run()
    assert sim.stale_events_skipped == 1
