"""Differential tests for the binary-heap event core.

The heap scheduler must execute exactly the events a trivially correct
model executes — a plain list whose next event is the ``min()`` over it —
at the same simulated times, in the same order, with the same executed
and stale counts, including under cancellation and timeout races.
The Delay-chain workload checks the run-ahead: on the heap a process whose
``Delay`` resume is the next event runs it inline, on the model every
resume goes through ``schedule``, and the two must not be told apart.
The timer contract itself (cancel, stale generations, the negative-delay
clamp) is tested in ``test_timer_wheel.py``; the run-ahead's edges
(``until``, ``max_events``, ``step()``, exceptions) in ``test_run_ahead.py``.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim import process as process_module
from repro.sim.engine import TimerHandle
from repro.sim.errors import ProcessKilled
from repro.sim.primitives import TIMED_OUT, Delay, Event, Timeout
from repro.sim.process import Process


# ---------------------------------------------------------------------------
# the model: a list plus min(), with schedule/call_later/cancel/run
# ---------------------------------------------------------------------------

class _Entry(list):
    """A model queue entry; ``cancel()`` tombstones it like a TimerHandle."""

    def cancel(self):
        live = self[2] is not None
        self[2] = None
        return live


class ModelScheduler:
    """Reference scheduler: the next entry is the ``min()`` of
    ``(when, seq)`` over a plain list; a cancelled entry is counted stale
    when it comes up, and never runs.  Duck-types the part of
    :class:`Simulator` that :class:`Process` and :class:`Event` use."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._entries = []
        self._blocked_processes = self._finish_stamp = 0
        self.events_executed = 0
        self.stale_events_skipped = 0

    def schedule(self, delay, fn, *args):
        self._seq += 1
        entry = _Entry([self.now + max(delay, 0.0), self._seq, fn, args])
        self._entries.append(entry)
        return entry

    call_later = schedule

    def event(self, name=""):
        return Event(self, name)

    def spawn(self, gen, name=""):
        return Process(self, gen, name)

    def run_until_processes_done(self, procs=(), limit=None):
        """Drain the list, or stop once every process in ``procs`` is done."""
        while self._entries and not (procs and all(p.finished for p in procs)):
            entry = min(self._entries, key=lambda e: (e[0], e[1]))
            self._entries.remove(entry)
            if entry[2] is None:
                self.stale_events_skipped += 1
                continue
            self.now = entry[0]
            self.events_executed += 1
            entry[2](*entry[3])
        return self.now

    run = run_until_processes_done


# ---------------------------------------------------------------------------
# differential property: heap == model over randomized schedule/cancel
# ---------------------------------------------------------------------------

# sub-microsecond, protocol-scale and far-future delays, with exact ties
_DELAY_MENU = (0.0, 0.13, 1.0, 7.5, 63.9, 64.0, 64.1, 200.0, 5_000.0)


def _run_random_workload(sim, seed, spawn_cap=2_000):
    """Self-similar random workload: callbacks schedule more callbacks
    and randomly cancel pending timers.  Decisions are drawn from a
    seeded RNG in execution order, so two schedulers draw identical
    decisions iff they execute identical event orders — any divergence
    snowballs into a log mismatch."""
    rng = random.Random(seed)
    log = []
    handles = []
    next_tag = [0]

    def cb(tag):
        log.append((sim.now, tag))
        if next_tag[0] < spawn_cap:
            for _ in range(rng.randrange(3)):
                next_tag[0] += 1
                delay = rng.choice(_DELAY_MENU) + rng.random() * 3.0
                if rng.random() < 0.3:
                    handles.append(sim.call_later(delay, cb, next_tag[0]))
                else:
                    sim.schedule(delay, cb, next_tag[0])
        if handles and rng.random() < 0.25:
            handles.pop(rng.randrange(len(handles))).cancel()

    for _ in range(20):
        next_tag[0] += 1
        sim.schedule(rng.choice(_DELAY_MENU), cb, next_tag[0])
    sim.run()
    return sim, log


def _run_random_timeout_workload(sim, seed):
    """Processes racing events against timeouts.  Every event win leaves a
    cancelled timer tombstone in the queue, and long tail delays leave
    idle gaps between survivors — the state the stale skip must cross
    without executing, reordering, or dropping anything."""
    rng = random.Random(seed)
    log = []

    def waiter(i):
        ev = sim.event(f"ev{i}")
        fire_at = rng.random() * 400.0
        timeout = 1e-9 + rng.random() * 400.0
        if rng.random() < 0.6:
            sim.schedule(fire_at, ev.succeed, i)
        value = yield Timeout(ev, timeout)
        log.append((sim.now, i, value is TIMED_OUT))
        yield Delay(rng.choice((0.0, 3.0, 750.0, 12_000.0)))
        log.append((sim.now, i, "done"))

    procs = [sim.spawn(waiter(i), name=f"w{i}") for i in range(25)]
    sim.run_until_processes_done(procs, limit=1e9)
    return sim, log


def _assert_runs_identical(a, b):
    sim_a, log_a = a
    sim_b, log_b = b
    assert log_a == log_b
    assert sim_a.now == sim_b.now
    assert sim_a.events_executed == sim_b.events_executed
    assert sim_a.stale_events_skipped == sim_b.stale_events_skipped


@pytest.mark.parametrize("seed", [1, 7, 42, 1234])
def test_heap_matches_model_on_random_schedule_cancel(seed):
    heap = _run_random_workload(Simulator(), seed)
    _assert_runs_identical(heap, _run_random_workload(ModelScheduler(), seed))
    assert heap[0].stale_events_skipped > 0


class TestHeapMatchesModel:
    """Property: heap and model are observation-identical — same
    execution log, same final clock, same executed/stale counts."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_schedule_cancel(self, seed):
        _assert_runs_identical(
            _run_random_workload(Simulator(), seed, spawn_cap=400),
            _run_random_workload(ModelScheduler(), seed, spawn_cap=400))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_timeout_races(self, seed):
        _assert_runs_identical(
            _run_random_timeout_workload(Simulator(), seed),
            _run_random_timeout_workload(ModelScheduler(), seed))


# ---------------------------------------------------------------------------
# differential property: Delay chains, where the heap runs resumes ahead
# ---------------------------------------------------------------------------

class _ObserverLaneModel(ModelScheduler):
    """The model plus the unsequenced observer lane: decreasing negative
    seqs, so a lane entry sorts before every ordinary entry of its time."""

    def __init__(self):
        super().__init__()
        self._useq = 0

    def schedule_unsequenced(self, delay, fn, *args):
        self._useq -= 1
        entry = _Entry([self.now + delay, self._useq, fn, args])
        self._entries.append(entry)
        return entry


# binary fractions: chain sums tie exactly with callbacks and each other
_CHAIN_DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0)


def _run_delay_chain_workload(sim, seed, kill=False):
    """Three processes in ``Delay`` chains that also schedule callbacks on
    the chains' own instants, arm and cancel timers (tombstones that reach
    the queue front mid-chain) and plant observer-lane entries.  With
    ``kill``, a fourth process kills chain 0 at a drawn instant and the run
    waits for chain 0 only, so it stops in the middle of the others."""
    rng = random.Random(seed)
    log = []
    timers = []

    def cb(tag):
        log.append((sim.now, tag))

    def chain(k):
        try:
            for i in range(40):
                yield Delay(rng.choice(_CHAIN_DELAYS))
                log.append((sim.now, (k, i)))
                r = rng.random()
                if r < 0.2:
                    sim.schedule(rng.choice(_CHAIN_DELAYS), cb, ("cb", k, i))
                elif r < 0.45:
                    timer = sim.call_later(rng.choice(_CHAIN_DELAYS),
                                           cb, ("timer", k, i))
                    if rng.random() < 0.5:
                        timer.cancel()  # a tombstone on the chain's path
                    else:
                        timers.append(timer)
                elif r < 0.6 and timers:
                    timers.pop(rng.randrange(len(timers))).cancel()
                elif r < 0.7:
                    sim.schedule_unsequenced(rng.choice((0.25, 1.0, 2.0)),
                                             cb, ("lane", k, i))
        except ProcessKilled:
            log.append((sim.now, ("killed", k)))
            raise

    def killer(victim):
        yield Delay(rng.choice((13.0, 19.5, 26.0)))
        victim.kill()
        log.append((sim.now, "kill"))
        for _ in range(20):
            yield Delay(rng.choice(_CHAIN_DELAYS))

    procs = [sim.spawn(chain(k), name=f"chain{k}") for k in range(3)]
    if kill:
        sim.spawn(killer(procs[0]), name="killer")
        sim.run_until_processes_done(procs[:1], limit=1e9)
    else:
        sim.run()
    return sim, log


def _count_process_heap_ops(monkeypatch):
    """Count the resumes :class:`Process` queues instead of running ahead
    (``push``) and the tombstones it discards on the way (``pop``)."""
    counts = {"push": 0, "pop": 0}
    push, pop = process_module.heappush, process_module.heappop

    def counting_push(queue, entry):
        counts["push"] += 1
        push(queue, entry)

    def counting_pop(queue):
        counts["pop"] += 1
        return pop(queue)

    monkeypatch.setattr(process_module, "heappush", counting_push)
    monkeypatch.setattr(process_module, "heappop", counting_pop)
    return counts


@pytest.mark.parametrize("kill", [False, True], ids=["drain", "kill"])
@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_heap_matches_model_on_delay_chains(seed, kill, monkeypatch):
    heap_ops = _count_process_heap_ops(monkeypatch)
    heap = _run_delay_chain_workload(Simulator(), seed, kill)
    _assert_runs_identical(
        heap, _run_delay_chain_workload(_ObserverLaneModel(), seed, kill))
    resumes = sum(isinstance(tag, tuple) and len(tag) == 2
                  for _, tag in heap[1])
    # the cases the run-ahead must get right all occurred: resumes run
    # ahead and queued, tombstones discarded inline
    assert 0 < heap_ops["push"] < resumes
    assert heap_ops["pop"] > 0


class TestDelayChainsMatchModel:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kill=st.booleans())
    def test_delay_chains(self, seed, kill):
        _assert_runs_identical(
            _run_delay_chain_workload(Simulator(), seed, kill),
            _run_delay_chain_workload(_ObserverLaneModel(), seed, kill))


def test_live_pending_count_excludes_tombstones():
    sim = Simulator()
    handles = [sim.call_later(1_000.0 * (i + 1), lambda: None)
               for i in range(5)]
    sim.schedule(10.0, lambda: None)
    assert sim.live_pending_count() == 6
    for h in handles[1:]:
        h.cancel()
    assert sim.live_pending_count() == 2
    sim.run()
    assert sim.live_pending_count() == 0
    assert sim.stale_events_skipped == 4


def test_timer_handle_is_opaque_but_reprs():
    sim = Simulator()
    h = sim.call_later(1.0, lambda: None)
    assert isinstance(h, TimerHandle)
    assert "active" in repr(h)
    h.cancel()
    assert "idle" in repr(h)


# ---------------------------------------------------------------------------
# NaN times and a backwards `until` are refused, not queued
# ---------------------------------------------------------------------------

def _noop():
    pass


@pytest.mark.parametrize("enqueue", [
    lambda sim: sim.schedule(math.nan, _noop),
    lambda sim: sim.at(math.nan, _noop),
    lambda sim: sim.schedule_unsequenced(math.nan, _noop),
    lambda sim: Delay(math.nan),
], ids=["schedule", "at", "schedule_unsequenced", "Delay"])
def test_nan_time_is_refused(enqueue):
    # NaN compares false against everything: queued, it would silently
    # break the total (time, seq) order
    sim = Simulator()
    for t in (1.0, 3.0, 5.0):
        sim.schedule(t, _noop)
    with pytest.raises(ValueError):
        enqueue(sim)
    assert sim.run() == 5.0


def test_run_until_behind_now_is_refused():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, 10.0)
    sim.schedule(20.0, seen.append, 20.0)
    sim.run(until=15.0)
    with pytest.raises(ValueError, match="until"):
        sim.run(until=5.0)
    assert sim.now == 15.0
    # the clock did not move back: a later event cannot run before 10
    sim.schedule(1.0, seen.append, 16.0)
    sim.run()
    assert seen == [10.0, 16.0, 20.0]


# ---------------------------------------------------------------------------
# run-loop arguments are checked before anything runs
# ---------------------------------------------------------------------------

def _five_delays(sim):
    def prog():
        for _ in range(5):
            yield Delay(10.0)
    return sim.spawn(prog(), name="five")


def test_nan_limit_is_refused():
    # NaN compares false against every time: as a limit it bounded nothing
    sim = Simulator()
    proc = _five_delays(sim)
    with pytest.raises(ValueError, match="limit=nan"):
        sim.run_until_processes_done([proc], limit=math.nan)
    assert (sim.now, sim.events_executed) == (0.0, 0)


def test_nan_until_is_refused():
    sim = Simulator()
    _five_delays(sim)
    with pytest.raises(ValueError, match=r"until=nan\): the horizon is NaN"):
        sim.run(until=math.nan)
    assert (sim.now, sim.events_executed) == (0.0, 0)


@pytest.mark.parametrize("run", [
    lambda sim, proc: sim.run(max_events=-3),
    lambda sim, proc: sim.run_until_processes_done([proc], max_events=-3),
], ids=["run", "run_until_processes_done"])
def test_negative_max_events_is_refused(run):
    sim = Simulator()
    proc = _five_delays(sim)
    with pytest.raises(ValueError, match="max_events=-3"):
        run(sim, proc)
    assert (sim.now, sim.events_executed) == (0.0, 0)
