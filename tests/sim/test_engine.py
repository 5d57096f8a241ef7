"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (
    Delay,
    DeadlockError,
    Simulator,
    SimTimeoutError,
    SimulationError,
    Until,
    WaitEvent,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda: order.append("b"))
    sim.schedule(2.0, lambda: order.append("a"))
    sim.schedule(9.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(3.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(4.0, lambda: sim.at(10.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [10.0]


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append((sim.now, n))
        if n < 3:
            sim.schedule(1.5, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert hits == [(0.0, 0), (1.5, 1), (3.0, 2), (4.5, 3)]


def test_run_until_stops_before_future_events():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(5))
    sim.schedule(15.0, lambda: seen.append(15))
    sim.run(until=10.0)
    assert seen == [5]
    assert sim.now == 10.0
    sim.run()
    assert seen == [5, 15]


def test_run_until_inclusive_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, lambda: seen.append(1))
    sim.run(until=10.0)
    assert seen == [1]


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimTimeoutError):
        sim.run(max_events=100)


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 7


class TestProcesses:
    def test_delay_advances_process_clock(self):
        sim = Simulator()

        def prog():
            yield Delay(3.0)
            yield Delay(4.0)
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        assert p.finished
        assert p.result == 7.0

    def test_zero_delay_is_allowed(self):
        sim = Simulator()

        def prog():
            yield Delay(0.0)
            return "done"

        p = sim.spawn(prog())
        sim.run()
        assert p.result == "done"

    def test_two_processes_interleave(self):
        sim = Simulator()
        trace = []

        def prog(name, step):
            for _ in range(3):
                yield Delay(step)
                trace.append((sim.now, name))

        sim.spawn(prog("a", 2.0))
        sim.spawn(prog("b", 3.0))
        sim.run()
        assert trace == [
            (2.0, "a"),
            (3.0, "b"),
            (4.0, "a"),
            # at t=6 both are due; b's wakeup was scheduled first (at t=3)
            # so FIFO tie-breaking runs it first
            (6.0, "b"),
            (6.0, "a"),
            (9.0, "b"),
        ]

    def test_wait_event_blocks_until_succeed(self):
        sim = Simulator()
        ev = sim.event("go")
        got = []

        def waiter():
            val = yield WaitEvent(ev)
            got.append((sim.now, val))

        sim.spawn(waiter())
        sim.schedule(12.0, ev.succeed, "payload")
        sim.run()
        assert got == [(12.0, "payload")]

    def test_wait_on_already_fired_event_resumes_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(99)
        got = []

        def waiter():
            yield Delay(5.0)
            val = yield WaitEvent(ev)
            got.append((sim.now, val))

        sim.spawn(waiter())
        sim.run()
        assert got == [(5.0, 99)]

    def test_multiple_waiters_all_wake(self):
        sim = Simulator()
        ev = sim.event()
        woke = []

        def waiter(i):
            yield WaitEvent(ev)
            woke.append(i)

        for i in range(4):
            sim.spawn(waiter(i))
        sim.schedule(1.0, ev.succeed)
        sim.run()
        assert woke == [0, 1, 2, 3]

    def test_event_cannot_fire_twice(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_yield_from_composition(self):
        sim = Simulator()

        def inner():
            yield Delay(2.0)
            return 21

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        p = sim.spawn(outer())
        sim.run()
        assert p.result == 42
        assert sim.now == 4.0

    def test_deadlock_detection(self):
        sim = Simulator()
        ev = sim.event("never")

        def stuck():
            yield WaitEvent(ev)

        sim.spawn(stuck())
        with pytest.raises(DeadlockError):
            sim.run()

    def test_process_exception_propagates(self):
        sim = Simulator()

        def bad():
            yield Delay(1.0)
            raise ValueError("boom")

        sim.spawn(bad())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_bad_yield_finishes_the_process(self):
        sim = Simulator()

        def bad():
            yield 5

        p = sim.spawn(bad(), name="bad")
        with pytest.raises(SimulationError,
                           match="process 'bad' yielded 5; expected"):
            sim.run_until_processes_done([p])
        assert p.finished and isinstance(p.error, SimulationError)
        assert sim.now == 0.0

    def test_bad_yield_is_not_thrown_into_the_generator(self):
        # a generator that swallowed the error used to lose its next
        # yield, leaving the run to return at t=0 as if all were well
        sim = Simulator()

        def swallowing():
            try:
                yield 5
            except SimulationError:
                yield Delay(1.0)

        p = sim.spawn(swallowing(), name="swallow")
        with pytest.raises(SimulationError, match="'swallow' yielded 5"):
            sim.run()
        assert p.finished and isinstance(p.error, SimulationError)

    @pytest.mark.parametrize("when", [-1e-9, float("nan")],
                             ids=["behind", "nan"])
    def test_until_behind_the_clock_finishes_the_process(self, when):
        sim = Simulator()

        def late():
            yield Delay(2.0)
            yield Until(sim.now + when)

        p = sim.spawn(late(), name="late")
        with pytest.raises(SimulationError,
                           match="process 'late' yielded Until"):
            sim.run_until_processes_done([p])
        assert p.finished and isinstance(p.error, SimulationError)
        assert sim.now == 2.0

    def test_done_event_fires_with_return_value(self):
        sim = Simulator()

        def child():
            yield Delay(3.0)
            return "result"

        def parent():
            c = sim.spawn(child())
            val = yield WaitEvent(c.done)
            return val

        p = sim.spawn(parent())
        sim.run()
        assert p.result == "result"

    def test_run_until_processes_done(self):
        sim = Simulator()

        def background():
            while True:
                yield Delay(1.0)

        def measured():
            yield Delay(10.0)

        sim.spawn(background(), name="bg")
        m = sim.spawn(measured(), name="m")
        sim.run_until_processes_done([m], limit=100.0)
        assert m.finished
        assert sim.now == 10.0

    def test_run_until_processes_done_time_limit(self):
        sim = Simulator()

        def slow():
            yield Delay(1000.0)

        p = sim.spawn(slow())
        with pytest.raises(SimTimeoutError):
            sim.run_until_processes_done([p], limit=10.0)


class TestUntil:
    """``Until(t)`` ends a charge stretch: the charges go on a local clock
    in the order a ``Delay`` chain adds them, and the one resume lands on
    the chain's float."""

    # wide ranges: ``now + (t - now)`` differs from ``t`` mostly when t is
    # many times now, which is why Until must not round-trip through a
    # delay
    @settings(max_examples=300, deadline=None)
    @example(start=9895.35406387021,
             charges=[192.55918663304328, 685335.5662199876])
    @given(start=st.floats(0.0, 1e7), charges=st.lists(
        st.floats(0.0, 1e9), min_size=1, max_size=12))
    def test_a_stretch_ends_where_the_delay_chain_does(self, start,
                                                       charges):
        ends = []
        for fused in (False, True):
            sim = Simulator()

            def proc():
                yield Delay(start)
                if fused:
                    tl = sim.now
                    for d in charges:
                        tl += d
                    yield Until(tl)
                else:
                    for d in charges:
                        yield Delay(d)
                ends.append(sim.now)

            sim.spawn(proc())
            sim.run()
        assert ends[0] == ends[1]

    def test_until_takes_its_seq_when_it_yields(self):
        sim = Simulator()
        log = []

        def proc():
            yield Until(3.0)  # drawn after the callback's: runs after it
            log.append(("p", sim.now))
            sim.schedule(0.0, lambda: log.append(("now", sim.now)))
            yield Until(3.0)  # now itself: after what is queued at now
            log.append(("p", sim.now))
            yield Until(10.0)
            log.append(("p", sim.now))

        sim.spawn(proc())
        sim.schedule(3.0, lambda: log.append(("cb", sim.now)))
        sim.run()
        assert log == [("cb", 3.0), ("p", 3.0), ("now", 3.0), ("p", 3.0),
                       ("p", 10.0)]
        assert sim.events_executed == 6


class TestDeterminism:
    def test_identical_runs_identical_timelines(self):
        def build():
            sim = Simulator()
            trace = []

            def prog(name):
                for i in range(5):
                    yield Delay(1.0 + 0.1 * i)
                    trace.append((round(sim.now, 6), name))

            for n in ("x", "y", "z"):
                sim.spawn(prog(n))
            sim.run()
            return trace

        assert build() == build()
