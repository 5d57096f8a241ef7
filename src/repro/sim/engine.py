"""The event loop: a binary-heap event core with a simulated clock.

Time is a float measured in **microseconds** — the natural unit for this
paper, whose primitive costs range from 0.13 µs (MSMU gap) to 88 µs (MPL
round trip).  Ties are broken by insertion order so the simulation is fully
deterministic.

The paper's whole argument is that per-message *software* overhead is what
limits communication performance (§3); the simulator applies the same
creed to its own hot path.  The queue is one binary heap of
``[when, seq, callback, args]`` entries: ``schedule`` is one ``heappush``,
and each run loop is one flat ``heappop`` loop.  Events execute in strict
``(time, seq)`` order — ``seq`` is unique, so that order is total and
every run is a pure function of its inputs.

The commonest event is a process's ``Delay`` resume, and most of them are
the next event the moment they are made.  Such a resume skips the heap:
:meth:`Process._step` runs it inline (the *run-ahead*) when nothing live
is queued at or before it, it lies within the run loop's horizon, the
event budget is not spent and no process finished during the event.  It
then does what the run loop would after a push and a pop of that entry:
it discards and counts the tombstones ahead of it, moves the clock,
counts the event and reports ``[t, seq, callback, ()]`` to ``check``.
Every executed ``(time, seq, callback)``, count and clock value is
therefore the one the heap gives.  The run loop publishes its bounds in
``_horizon`` and ``_stop`` while it runs; outside it (and so under
:meth:`Simulator.step`) the horizon is :data:`NO_HORIZON` and every
resume is queued.

Timers are cancellable: :meth:`Simulator.call_later` returns a
:class:`TimerHandle` whose ``cancel()`` is O(1) — it bumps the handle's
generation and tombstones the queue entry in place; the scheduler skips
tombstoned entries on pop without executing or counting them.  This is
what keeps ``Timeout`` yields (the AM keep-alive backoff, MPL's
second-scale receive timeouts) from churning the queue with stale wakeups.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.sim.errors import DeadlockError, SimTimeoutError
from repro.sim.primitives import Event

#: absolute value (µs) below which a negative delay is treated as
#: accumulated float error and clamped to "now" rather than rejected.
#: ``Switch.inject`` sums serialization starts and wire times per hop;
#: after thousands of packets the sum can land an epsilon behind
#: ``sim.now`` even though the intent is "deliver immediately".
NEGATIVE_DELAY_EPSILON = 1e-9

_INF = float("inf")

#: the event budget of an unbounded run: a count no run reaches, and an
#: int, because the per-event ``events_executed >= stop`` compare is
#: measurably slower against a float
_NO_BUDGET = sys.maxsize

#: ``Simulator._horizon`` outside the run loop.  NaN: no time lies within
#: it (``t <= nan`` is false) and it equals no horizon, so a process that
#: finishes sets it to tell the run loop to look at its processes again.
NO_HORIZON = float("nan")


def _check_max_events(caller: str, max_events: Optional[int]) -> None:
    if max_events is not None and not max_events >= 0:  # negative or NaN
        raise ValueError(
            f"{caller}(max_events={max_events}): the event budget must be "
            "a count >= 0")


class TimerHandle:
    """A cancellable scheduled callback (returned by ``call_later``).

    Cancellation is *lazy*: ``cancel()`` bumps the handle's generation and
    tombstones the live queue entry in place (O(1), no heap surgery); the
    scheduler discards the entry when it eventually reaches the front of
    the queue, without executing it or counting it as an event.  A handle
    may be rescheduled after firing or cancelling — each new entry carries
    the next generation, so at most one entry is ever live per handle.
    """

    __slots__ = ("_sim", "_entry", "gen")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._entry: Optional[list] = None
        #: generation stamp; bumped on every cancel/fire so stale queue
        #: entries (earlier generations) can never fire this handle again
        self.gen = 0

    @property
    def active(self) -> bool:
        """Whether the timer is scheduled and will still fire."""
        e = self._entry
        return e is not None and e[2] is not None

    def cancel(self) -> bool:
        """Cancel the pending firing; returns True if one was pending.

        Safe at any instant, including from a callback executing at the
        same timestamp as this timer's entry: the run loops read the
        entry's callback slot when the entry reaches the queue front, so
        the tombstone written here is always honoured.
        """
        e = self._entry
        if e is None or e[2] is None:
            return False
        e[2] = None        # tombstone: skipped (uncounted) on pop
        e[3] = ()          # drop callback-arg references immediately
        self._entry = None
        self.gen += 1
        sim = self._sim
        sim._stale_pending += 1
        ck = sim.check
        if ck is not None:
            ck.on_cancel(e)
        return True

    def _fire(self, gen: int, fn: Callable[..., None], args: tuple) -> None:
        if gen != self.gen:
            # The generation stamped into the entry at schedule time no
            # longer matches: the handle was cancelled or rescheduled and
            # the tombstone was somehow bypassed.  Firing would run a
            # callback the owner already disowned — fail loudly instead.
            raise RuntimeError(
                f"timer entry from generation {gen} fired on a handle at "
                f"generation {self.gen} (cancelled/rescheduled timer was "
                "not tombstoned)"
            )
        # the entry just popped is this handle's live one: retire it
        self._entry = None
        self.gen += 1
        fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "idle"
        return f"TimerHandle(gen={self.gen}, {state})"


class Simulator:
    """Discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, callback, arg)          # plain event
        h = sim.call_later(400.0, on_timeout)      # cancellable timer
        h.cancel()
        proc = sim.spawn(my_generator(...))        # coroutine process
        sim.run()                                  # drain the queue
        print(sim.now)

    ``run`` drains the queue or stops at ``until``.  If the queue drains
    while spawned processes are still blocked on events, a
    :class:`DeadlockError` is raised — silent hangs in protocol code become
    loud test failures.
    """

    __slots__ = (
        "now", "_seq", "_useq", "_blocked_processes",
        "events_executed", "stale_events_skipped",
        "_stale_pending", "_queue", "check", "last_event",
        "_horizon", "_stop", "_stamp_sources",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = 0
        #: decrementing seq of *unsequenced* entries (observers such as
        #: the metrics sampler): never collides with ``_seq``, leaves every
        #: ordinary event's (when, seq) untouched, and lets digest
        #: recorders recognise observer events by ``entry[1] < 0``
        self._useq = 0
        self._blocked_processes = 0
        self.events_executed = 0
        #: tombstoned (cancelled) entries discarded at the queue front
        self.stale_events_skipped = 0
        #: cancelled entries still buried in the queue
        self._stale_pending = 0
        #: binary heap of [when, seq, callback, args] entries
        self._queue: List[list] = []
        #: event-ordering checker (repro.check), None when unchecked
        self.check = None
        #: (when, seq, callback) of the event :meth:`step` last executed
        self.last_event: Optional[tuple] = None
        #: the running run loop's bounds, which a process's run-ahead obeys
        #: (:meth:`Process._step`): events past ``_horizon`` or at
        #: ``events_executed >= _stop`` stay queued.  Outside the run loop,
        #: and from a process's finish until the run loop has looked at its
        #: processes, the horizon is ``NO_HORIZON``.
        self._horizon = NO_HORIZON
        self._stop = 0
        #: callables that each return the latest instant of something
        #: decided ahead that needs no event (a receive-FIFO slot stamped
        #: with the instant it becomes visible, which a polling host
        #: checks against its clock): a :meth:`run` that drains the queue
        #: ends there, not before it, as if each were an event.  Each is
        #: called with the run's horizon
        self._stamp_sources: List[Callable[[float], float]] = []

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` microseconds of simulated time.

        Returns the queue entry (an engine-internal list); treat it as
        opaque.  Use :meth:`call_later` when you need to cancel.
        """
        if not delay >= 0.0:  # negative or NaN
            if delay != delay:
                # NaN would silently break the total (time, seq) order
                raise ValueError("cannot schedule at a NaN time")
            if delay < -NEGATIVE_DELAY_EPSILON:
                raise ValueError(f"cannot schedule in the past (delay={delay})")
            delay = 0.0  # accumulated float error, not intent
        self._seq += 1
        entry = [self.now + delay, self._seq, fn, args]
        heappush(self._queue, entry)
        return entry

    def at(self, when: float, fn: Callable[..., None], *args: Any) -> list:
        """Run ``fn(*args)`` at absolute simulated time ``when``: the
        entry :meth:`schedule` queues for the delay ``when - now`` (so it
        runs at ``now + (when - now)``, which is not a float identity; the
        receive adapter computes an arrival with the same round trip)."""
        return self.schedule(when - self.now, fn, *args)

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> TimerHandle:
        """Schedule a cancellable timer; returns its :class:`TimerHandle`.

        The queue entry carries the handle's generation at schedule time;
        :meth:`TimerHandle._fire` refuses entries whose generation no
        longer matches, so even an entry that escapes tombstoning (an
        engine bug) cannot fire a cancelled timer.
        """
        handle = TimerHandle(self)
        handle._entry = self.schedule(delay, handle._fire, handle.gen,
                                      fn, args)
        return handle

    def schedule_unsequenced(self, delay: float, fn: Callable[..., None],
                             *args: Any) -> list:
        """Like :meth:`schedule`, but the entry draws from the separate
        negative sequence stream: it does not advance ``_seq``, so its
        presence or absence leaves every ordinary event's ``(when, seq)``
        identity — and therefore the event-order digests — untouched.
        Digest recorders skip entries with ``entry[1] < 0``.

        ``delay`` must be strictly positive: an unsequenced entry landing
        at the *current* timestamp could execute after same-instant
        ordinary events with larger (positive) seqs, breaking the
        scheduler's strict (time, seq) execution-order invariant.
        """
        if not delay > 0.0:  # zero, negative or NaN
            raise ValueError(
                f"unsequenced delay must be positive, got {delay}")
        self._useq -= 1
        entry = [self.now + delay, self._useq, fn, args]
        heappush(self._queue, entry)
        return entry

    def call_later_unsequenced(self, delay: float, fn: Callable[..., None],
                               *args: Any) -> TimerHandle:
        """Cancellable variant of :meth:`schedule_unsequenced` — the timer
        lane for observers (the metrics sampler) that must stay
        digest-neutral."""
        handle = TimerHandle(self)
        handle._entry = self.schedule_unsequenced(
            delay, handle._fire, handle.gen, fn, args)
        return handle

    def event(self, name: str = "") -> Event:
        """Create a new one-shot :class:`Event` bound to this simulator."""
        return Event(self, name)

    def live_pending_count(self) -> int:
        """Queued entries that will actually execute — tombstoned
        (cancelled) timers excluded.  Quiesce predicates must use this:
        a cancelled long keep-alive timer still occupies a queue slot
        but represents no future work."""
        return len(self._queue) - self._stale_pending

    # -- running ----------------------------------------------------------

    def spawn(self, gen, name: str = "") -> "Process":  # noqa: F821
        """Register a generator as a process starting at the current time."""
        from repro.sim.process import Process

        return Process(self, gen, name=name)

    def step(self) -> bool:
        """Execute one live event.  Returns False when the queue is empty.

        Tombstoned (cancelled) entries are discarded without executing;
        they neither count as the step nor appear in ``last_event``.
        """
        entry = self._drain(_INF, 0, None)  # the next live entry, queued
        if entry is None:
            return False
        heappop(self._queue)
        self.now = entry[0]
        self.events_executed += 1
        if self.check is not None:
            self.check.on_execute(entry)
        self.last_event = (entry[0], entry[1], entry[2])
        entry[2](*entry[3])
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = True,
    ) -> float:
        """Drain the event queue, then move the clock on to the latest
        instant a stamp source reports (``_stamp_sources``).

        :param until: stop once simulated time would pass this point; events
            at exactly ``until`` still execute.  Must not lie behind
            ``now``: the clock never moves backwards.
        :param max_events: safety valve against runaway protocol loops.
        :param check_deadlock: raise :class:`DeadlockError` if the queue
            drains while processes remain blocked on events.
        :returns: the final simulated time.
        """
        if until is not None and not until >= self.now:
            if until != until:
                raise ValueError("run(until=nan): the horizon is NaN")
            raise ValueError(
                f"run(until={until}) lies behind now={self.now}: "
                "the clock cannot move backwards")
        _check_max_events("run", max_events)
        entry = self._drain(_INF if until is None else until, max_events,
                            None)
        if entry is not None:
            if until is not None and entry[0] > until:
                self.now = until
                return until
            raise SimTimeoutError(
                f"exceeded max_events={max_events} at t={self.now:.3f}us")
        last = self.now
        for latest in self._stamp_sources:
            t = latest(_INF if until is None else until)
            if t > last:
                last = t
        if until is not None and last > until:
            self.now = until
            return until
        self.now = last
        if check_deadlock and self._blocked_processes > 0:
            raise DeadlockError(
                f"event queue drained at t={self.now:.3f}us with "
                f"{self._blocked_processes} process(es) still blocked"
            )
        return self.now

    def run_until_processes_done(
        self, procs, limit: float = 1e12, max_events: Optional[int] = None,
    ) -> float:
        """Run until every process in ``procs`` has finished.

        Convenience for benchmarks: background processes (e.g. adapter
        service loops) may still have pending events when the measured
        programs complete.  ``limit`` bounds *live* simulated work — a
        cancelled timer beyond the limit is discarded, not misreported
        as a timeout.
        """
        if limit != limit:
            raise ValueError(
                "run_until_processes_done(limit=nan): the limit is NaN")
        _check_max_events("run_until_processes_done", max_events)
        entry = self._drain(limit, max_events, procs)
        if entry is not None:
            if entry[0] > limit:
                raise SimTimeoutError(
                    f"simulated time limit {limit}us exceeded; "
                    f"{sum(not p.finished for p in procs)} "
                    "process(es) unfinished"
                )
            raise SimTimeoutError(f"exceeded max_events={max_events}")
        unfinished = [p for p in procs if not p.finished]
        if unfinished:
            raise DeadlockError(
                f"queue drained at t={self.now:.3f}us; unfinished: "
                + ", ".join(p.name or "<anon>" for p in unfinished)
            )
        return self.now

    def _drain(self, horizon: float, max_events: Optional[int],
               procs) -> Optional[list]:
        """The one run loop, behind :meth:`step`, :meth:`run` and
        :meth:`run_until_processes_done`: execute live entries in
        ``(time, seq)`` order.  Returns, still queued, the first live entry
        past ``horizon`` or past ``max_events`` executed events; None once
        the queue is empty or every process in ``procs`` has finished.

        It is also the one stale-entry skip: tombstones at the queue front
        are counted in ``stale_events_skipped``, reported to the checker
        and never executed — before the ``horizon``/``max_events`` gates,
        so a cancelled far-future timer can neither stop a bounded run
        early nor trip its time limit.

        While it runs, ``_horizon`` and ``_stop`` hold its bounds, and a
        process it resumes may execute its own next resume inline (the
        run-ahead, see :meth:`Process._step`).  Events are counted straight
        into ``events_executed``, so inline resumes share the
        ``max_events`` budget and the count is exact on every exit,
        exceptions included.  A finishing process sets the horizon to
        ``NO_HORIZON``, which ends any run-ahead until the loop has looked
        at ``procs`` and put its horizon back.  On exit the horizon is
        ``NO_HORIZON`` again, so :meth:`step`, which executes its event
        after a zero-budget pass, queues every resume.
        """
        queue = self._queue
        check = self.check
        stop = (_NO_BUDGET if max_events is None
                else self.events_executed + max_events)
        # makes the first pass look at ``procs`` even when a callback
        # re-entered the run loop with the outer loop's horizon
        self._horizon = NO_HORIZON
        try:
            while queue:
                # true on the first pass and after a process finished (or a
                # nested run loop returned): only then can "all done?" have
                # changed, so one float compare per event replaces a scan
                if self._horizon != horizon:
                    self._horizon = horizon
                    self._stop = stop
                    if procs is not None and all(p.finished for p in procs):
                        return None
                entry = heappop(queue)
                fn = entry[2]
                if fn is None:
                    self.stale_events_skipped += 1
                    self._stale_pending -= 1
                    if check is not None:
                        check.on_stale(entry)
                    continue
                if entry[0] > horizon or self.events_executed >= stop:
                    heappush(queue, entry)  # still queued for the caller
                    return entry
                self.now = entry[0]
                self.events_executed += 1
                if check is not None:
                    check.on_execute(entry)
                fn(*entry[3])
        finally:
            # nothing runs ahead outside the run loop; a run loop that a
            # callback re-entered takes its bounds back on its next pass
            self._horizon = NO_HORIZON
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(t={self.now:.3f}us, queued={len(self._queue)} "
            f"({self.live_pending_count()} live), "
            f"blocked={self._blocked_processes})"
        )
