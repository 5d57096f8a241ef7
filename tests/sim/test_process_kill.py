"""Process.kill(): termination, cleanup, and stale-wakeup safety."""

import pytest

from repro.sim import TIMED_OUT, Delay, Simulator, Timeout, WaitEvent
from repro.sim.errors import ProcessKilled


class TestKill:
    def test_kill_blocked_process(self):
        sim = Simulator()
        ev = sim.event("never")

        def stuck():
            yield WaitEvent(ev)

        p = sim.spawn(stuck())
        sim.schedule(5.0, p.kill)
        sim.run()  # no DeadlockError: the blocked process was killed
        assert p.finished

    def test_finally_blocks_run(self):
        sim = Simulator()
        cleaned = []

        def prog():
            try:
                yield Delay(100.0)
            finally:
                cleaned.append(True)

        p = sim.spawn(prog())
        sim.schedule(1.0, p.kill)
        sim.run(check_deadlock=False)
        assert cleaned == [True]
        assert p.finished

    def test_stale_delay_wakeup_after_kill_is_ignored(self):
        sim = Simulator()

        def prog():
            yield Delay(10.0)  # wakeup at t=10 becomes stale
            raise AssertionError("must not resume after kill")

        p = sim.spawn(prog())
        sim.schedule(5.0, p.kill)
        sim.run(check_deadlock=False)
        assert p.finished

    def test_process_may_catch_kill_and_finish(self):
        sim = Simulator()
        note = []

        def graceful():
            try:
                yield Delay(100.0)
            except ProcessKilled:
                note.append("shutting down")

        p = sim.spawn(graceful())
        sim.schedule(1.0, p.kill)
        sim.run(check_deadlock=False)
        assert note == ["shutting down"]
        assert p.finished

    def test_kill_finished_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield Delay(1.0)
            return "done"

        p = sim.spawn(quick())
        sim.run()
        p.kill()
        assert p.result == "done"

    def test_kill_interacts_cleanly_with_other_processes(self):
        sim = Simulator()
        trace = []

        def worker(name, period):
            while True:
                yield Delay(period)
                trace.append(name)

        a = sim.spawn(worker("a", 2.0))
        b = sim.spawn(worker("b", 3.0))
        sim.schedule(7.0, a.kill)
        sim.schedule(10.0, b.kill)
        sim.run(check_deadlock=False)
        assert trace == ["a", "b", "a", "b", "a", "b"]


class TestKillWhileBlocked:
    """A killed process leaves no waiter, timer or blocked count behind."""

    def test_kill_during_wait_event(self):
        sim = Simulator()
        ev = sim.event("later")
        resumed = []

        def stuck():
            resumed.append((yield WaitEvent(ev)))

        p = sim.spawn(stuck())
        sim.run(check_deadlock=False)
        assert sim._blocked_processes == 1
        p.kill()
        assert p.finished
        assert sim._blocked_processes == 0
        ev.succeed("late")
        sim.run()  # the stale wakeup is ignored
        assert resumed == []

    def test_kill_during_timeout_cancels_its_timer(self):
        sim = Simulator()
        ev = sim.event("never")
        resumed = []

        def sleeper():
            resumed.append((yield Timeout(ev, 400.0)))

        p = sim.spawn(sleeper())
        sim.run(until=1.0)
        assert sim._blocked_processes == 1
        assert sim.live_pending_count() == 1  # the keep-alive timer
        p.kill()
        assert sim._blocked_processes == 0
        # nothing left that will run: a quiesce predicate sees an idle sim
        assert sim.live_pending_count() == 0
        executed = sim.events_executed
        sim.run()
        assert sim.events_executed == executed
        assert resumed == []
        assert p.finished and p.error is None

    def test_timeout_accounting_across_both_outcomes(self):
        sim = Simulator()
        ev = sim.event("fires at 5")
        seen = []

        def waiter():
            seen.append((yield Timeout(ev, 2.0)) is TIMED_OUT)
            seen.append((yield Timeout(ev, 100.0)))

        p = sim.spawn(waiter())
        sim.schedule(5.0, ev.succeed, "ok")
        sim.run()
        assert seen == [True, "ok"]
        assert p.finished
        assert sim._blocked_processes == 0
        # the event won the second wait: its timer was cancelled, and
        # the first wait's stale event resume did not step the process
        assert sim.live_pending_count() == 0
