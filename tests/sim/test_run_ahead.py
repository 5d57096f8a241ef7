"""The Delay run-ahead at the edges of the run loop.

A process whose ``Delay`` resume is the next event runs it inline instead
of through the heap (:meth:`Process._step`).  These cases pin the places
where the inline path must stop exactly where the heap round trip would:
a ``run(until=...)`` horizon, a ``max_events`` budget, ``step()``, an
exception inside an inline resume, a process finishing mid-event, run
loops re-entered from a callback, and the scheduler checker, which must
see every inline resume as an event (sanitized campaigns, which run it
on every event of a whole machine, are in ``tests/check``).
The differential heap-versus-model workloads are in ``test_scheduler.py``.
"""

import pytest

from repro.check import Sanitizer
from repro.sim import Delay, Simulator
from repro.sim import process as process_module
from repro.sim.errors import SimTimeoutError


def _build(sim):
    """Two ``Delay`` chains, a callback on a chain instant, a tombstone
    inside the chains' window and a far-future callback."""
    log = []

    def chain(k, step, n):
        for i in range(n):
            yield Delay(step)
            log.append((sim.now, k, i))

    procs = [sim.spawn(chain(0, 1.5, 10), name="a"),
             sim.spawn(chain(1, 4.0, 4), name="b")]
    sim.schedule(6.0, log.append, (6.0, "cb"))
    sim.call_later(2.0, log.append, "cancelled").cancel()
    sim.schedule(100.0, log.append, (100.0, "late"))
    return procs, log


def _live_queue(sim):
    return sorted((e[0], e[1], e[2].__qualname__)
                  for e in sim._queue if e[2] is not None)


def _stepped(n):
    """The reference: ``n`` events turned one at a time with ``step()``,
    which never runs ahead."""
    ref = Simulator()
    _, log = _build(ref)
    for _ in range(n):
        assert ref.step()
    return ref, log


def _count_pushes(monkeypatch):
    pushes = [0]
    push = process_module.heappush

    def counting(queue, entry):
        pushes[0] += 1
        push(queue, entry)

    monkeypatch.setattr(process_module, "heappush", counting)
    return pushes


@pytest.mark.parametrize("until", [0.0, 1.5, 4.5, 5.0, 6.0, 7.25, 15.0,
                                   50.0])
def test_until_stops_a_chain_with_the_same_queue(until):
    sim = Simulator()
    _, log = _build(sim)
    assert sim.run(until=until) == until
    ref = Simulator()
    _, ref_log = _build(ref)
    while min(_live_queue(ref))[0] <= until:
        ref.step()
    assert sim.now == until
    assert log == ref_log
    assert sim.events_executed == ref.events_executed
    assert _live_queue(sim) == _live_queue(ref)


_RUNS = {
    "run": lambda sim, procs, n: sim.run(max_events=n),
    "run_until_processes_done":
        lambda sim, procs, n: sim.run_until_processes_done(procs,
                                                           max_events=n),
}
#: events until both chains finish: first steps, resumes, the 6 us callback
_CHAIN_EVENTS = 2 + 10 + 4 + 1


@pytest.mark.parametrize("limit", range(_CHAIN_EVENTS))
@pytest.mark.parametrize("bounded", list(_RUNS))
def test_max_events_raises_at_the_same_event(bounded, limit):
    sim = Simulator()
    procs, log = _build(sim)
    with pytest.raises(SimTimeoutError, match=f"max_events={limit}"):
        _RUNS[bounded](sim, procs, limit)
    ref, ref_log = _stepped(limit)
    assert sim.events_executed == limit
    assert (sim.now, log) == (ref.now, ref_log)
    assert _live_queue(sim) == _live_queue(ref)


@pytest.mark.parametrize("bounded, clock", [("run", 100.0),
                                            ("run_until_processes_done", 16.0)])
def test_an_exact_budget_does_not_raise(bounded, clock):
    sim = Simulator()
    procs, _ = _build(sim)
    events = _CHAIN_EVENTS + (bounded == "run")
    assert _RUNS[bounded](sim, procs, events) == clock
    assert sim.events_executed == events


def test_step_retires_exactly_one_event(monkeypatch):
    pushes = _count_pushes(monkeypatch)
    sim = Simulator()
    log = []

    def chain():
        for i in range(6):
            yield Delay(0.5 * i)
            log.append(sim.now)

    sim.spawn(chain())
    clocks = [0.0, 0.0, 0.5, 1.5, 3.0, 5.0, 7.5]
    for n, clock in enumerate(clocks, start=1):
        assert sim.step()
        assert (sim.events_executed, sim.now, len(log)) == (n, clock, n - 1)
    assert not sim.step()
    assert pushes[0] == 6  # every resume went through the heap


def test_step_inside_a_run_retires_one_event():
    sim = Simulator()
    seen = []

    def chain():
        for _ in range(5):
            yield Delay(1.0)

    def nested():
        before = sim.events_executed
        assert sim.step()
        seen.append((sim.events_executed - before, sim.now))

    sim.spawn(chain())
    sim.schedule(0.0, nested)
    assert sim.run() == 5.0
    assert seen == [(1, 1.0)]


def test_run_inside_a_run_keeps_the_outer_horizon():
    """The inner run loop's bounds (no time limit worth the name) must not
    outlive it: the outer ``run(until=6.0)`` still stops the chain at 6."""
    sim = Simulator()
    log = []

    def chain():
        for _ in range(10):
            yield Delay(1.0)
            log.append(sim.now)

    def short():
        yield Delay(2.0)

    def nested():
        sim.run_until_processes_done([sim.spawn(short())])

    sim.spawn(chain())
    sim.schedule(0.5, nested)
    assert sim.run(until=6.0) == 6.0
    assert log == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert sim.run() == 10.0


def test_run_inside_a_run_keeps_the_outer_budget():
    sim = Simulator()

    def chain():
        for _ in range(10):
            yield Delay(1.0)

    def short():
        yield Delay(2.0)

    def nested():
        sim.run_until_processes_done([sim.spawn(short())])

    sim.spawn(chain())
    sim.schedule(0.5, nested)
    with pytest.raises(SimTimeoutError, match="max_events=8"):
        sim.run(max_events=8)
    assert (sim.events_executed, sim.now) == (8, 4.0)


def test_run_inside_a_run_sees_its_processes_done():
    sim = Simulator()
    seen = []

    def chain():
        for _ in range(10):
            yield Delay(1.0)

    def short():
        yield Delay(1.0)

    def nested(proc):
        before = sim.events_executed
        sim.run_until_processes_done([proc])
        seen.append(sim.events_executed - before)

    outer = sim.spawn(chain())
    sim.schedule(5.5, nested, sim.spawn(short()))
    # same (default) limit inside and out
    assert sim.run_until_processes_done([outer]) == 10.0
    assert seen == [0]


def test_a_lone_chain_runs_inline(monkeypatch):
    pushes = _count_pushes(monkeypatch)
    sim = Simulator()

    def chain():
        for _ in range(50):
            yield Delay(1.0)

    sim.spawn(chain())
    assert sim.run() == 50.0
    assert sim.events_executed == 51
    assert pushes[0] == 0


@pytest.mark.parametrize("bounded", [False, True])
def test_exception_in_an_inline_resume_keeps_the_counts(bounded,
                                                        monkeypatch):
    pushes = _count_pushes(monkeypatch)
    sim = Simulator()

    def chain():
        for _ in range(3):
            yield Delay(1.0)
        raise RuntimeError("boom")

    proc = sim.spawn(chain())
    sim.call_later(1.5, lambda: None).cancel()
    with pytest.raises(RuntimeError, match="boom"):
        if bounded:
            sim.run_until_processes_done([proc], max_events=100)
        else:
            sim.run()
    assert pushes[0] == 0  # all three resumes ran inline
    assert (sim.events_executed, sim.stale_events_skipped) == (4, 1)
    assert sim.now == 3.0
    assert isinstance(proc.error, RuntimeError)


def test_a_finish_during_the_event_stops_the_run_ahead():
    """A process that kills the watched one goes on in an endless chain:
    the call must return at the kill, not run the chain ahead."""
    sim = Simulator()

    def watched():
        yield Delay(1e6)

    def background(victim):
        yield Delay(5.0)
        victim.kill()
        while True:
            yield Delay(1.0)

    proc = sim.spawn(watched(), name="watched")
    sim.spawn(background(proc), name="background")
    assert sim.run_until_processes_done([proc], max_events=1_000) == 5.0
    assert sim.events_executed == 3


def test_scheduler_check_sees_every_inline_resume():
    sim = Simulator()
    _build(sim)
    san = Sanitizer().watch_sim(sim)  # raises on the first violation
    sim.run()
    checker = sim.check
    assert checker.last == (100.0, 5)
    assert checker.checks == (sim.events_executed + sim.stale_events_skipped
                              + checker.cancelled)
    assert san.violations == []
