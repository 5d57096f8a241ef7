"""Coroutine processes: node software running on simulated time.

A *process* wraps a generator.  The generator yields instructions
(:class:`~repro.sim.primitives.Delay`, ``Until``, ``WaitEvent``,
``Timeout``) and the process object drives it from engine callbacks.  Sub-procedures compose
with ``yield from``, so protocol layers stack naturally::

    def app(node):
        yield Delay(2.0)                      # compute for 2 us
        value = yield from node.am.request_1(dst, h, 42)   # AM call
        ...

When the generator returns, the process's :attr:`done` event fires with the
return value (``StopIteration.value``).

A ``Delay`` or ``Until`` whose resume would be the run loop's next event
anyway is run in place, without a heap round trip (see :meth:`Process._step`): the
process keeps running until another event comes first, and every event
digest stays what the heap gives.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Optional

from repro.sim.errors import ProcessKilled, SimulationError
from repro.sim.engine import NO_HORIZON
from repro.sim.primitives import (TIMED_OUT, Delay, Event, Timeout, Until,
                                  WaitEvent)


class Process:
    """A generator registered with a :class:`~repro.sim.engine.Simulator`."""

    __slots__ = ("sim", "gen", "name", "done", "finished", "result", "error",
                 "_waiting", "_timer", "_send", "_resume", "_queue")

    def __init__(self, sim, gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done: Event = sim.event(name=f"{name}.done")
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._waiting = False
        #: the keep-alive timer of the ``Timeout`` this process is blocked
        #: in (None otherwise); its identity also tells a live resume from
        #: a stale one
        self._timer = None
        # bound once: _step runs per event, and every schedule/add_waiter
        # callback would otherwise rebuild the bound method
        self._send = gen.send
        self._resume = self._step
        #: the simulator's heap, which a ``Delay`` resume goes straight
        #: into; None on a scheduler without one (it gets ``schedule``)
        self._queue = getattr(sim, "_queue", None)
        # first step at the current instant, after already-queued events
        sim.schedule(0.0, self._resume)

    # -- engine-facing ----------------------------------------------------

    def _step(self, send_value: Any = None) -> None:
        """Resume the generator and act on what it yields.

        A ``Delay`` resume at ``t = now + duration``, or an ``Until`` resume
        at its absolute ``t``, normally becomes the heap entry
        ``[t, seq, _resume, ()]``; ``seq`` is drawn when the process
        yields.  When the run loop would pop
        that very entry next — nothing live is queued at or before ``t``,
        ``t`` is within its horizon (``sim._horizon``) and its event budget
        (``sim._stop``) is not spent — the resume runs here instead (the
        *run-ahead*): front tombstones up to ``t`` are discarded and
        counted as the run loop would, then the clock moves to ``t``, the
        event is counted and reported to ``sim.check`` under the same
        ``(t, seq)``, and the generator is resumed again in this loop.
        Every executed ``(time, seq, callback)``, count and clock value is
        the one the heap round trip would give, so event digests and
        simulated times do not move.  Outside the run loop (``step()``
        included) and from a process's finish until the run loop has looked
        at its processes, the horizon is ``NO_HORIZON``; then, and on a
        scheduler without a heap, the entry is always queued.
        """
        if self.finished:
            return  # stale wakeup after kill()
        sim = self.sim
        queue = self._queue
        if self._waiting:
            self._waiting = False
            sim._blocked_processes -= 1
        while True:
            try:
                instr = self._send(send_value)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except Exception as exc:  # propagate with context, fail loudly
                self._finish(None, exc)
                raise
            # dispatch, most frequent instruction first
            cls = instr.__class__
            if cls is Delay:
                if queue is None:
                    sim.schedule(instr.duration, self._resume)
                    return
                t = sim.now + instr.duration
            elif cls is Until:
                t = instr.time
                if not t >= sim.now:  # behind the clock, or NaN
                    exc = SimulationError(
                        f"process {self.name!r} yielded {instr!r} at "
                        f"now={sim.now}: the clock cannot move backwards")
                    self._finish(None, exc)
                    raise exc
                if queue is None:
                    sim.schedule(t - sim.now, self._resume)
                    return
            elif cls is WaitEvent:
                self._waiting = True
                sim._blocked_processes += 1
                instr.event.add_waiter(self._resume)
                return
            elif cls is Timeout:
                self._wait_with_timeout(instr)
                return
            else:
                # a bad yield ends the process with the error, like an
                # exception out of its generator
                exc = SimulationError(
                    f"process {self.name!r} yielded {instr!r}; expected "
                    "Delay, Until, WaitEvent, or Timeout"
                )
                self._finish(None, exc)
                raise exc
            # a timed resume at t: the run-ahead, or the heap
            sim._seq = seq = sim._seq + 1
            # everything queued at or before t comes before (t, seq)
            while queue and queue[0][0] <= t:
                if queue[0][2] is not None or not t <= sim._horizon:
                    break  # a live entry comes first: queue the resume
                # a tombstone: discard it, as the run loop would next
                entry = heappop(queue)
                sim.stale_events_skipped += 1
                sim._stale_pending -= 1
                if sim.check is not None:
                    sim.check.on_stale(entry)
            else:
                # (t, seq) is the next event: run it here if the run
                # loop's horizon and event budget allow
                if t <= sim._horizon and sim.events_executed < sim._stop:
                    sim.now = t
                    sim.events_executed += 1
                    if sim.check is not None:
                        sim.check.on_execute([t, seq, self._resume, ()])
                    send_value = None
                    continue
            # no args: a timed resume sends None, and skipping the (None,)
            # pack/unpack matters at one resume per event
            heappush(queue, [t, seq, self._resume, ()])
            return

    def _wait_with_timeout(self, instr: Timeout) -> None:
        sim = self.sim
        self._waiting = True
        sim._blocked_processes += 1

        # The name matters: event digests hash this closure's qualname
        # (``Process._wait_with_timeout.<locals>.resume``).
        def resume(value: Any) -> None:
            # whichever of event and timer comes second finds another
            # handle (or none) on the process and is ignored
            if self._timer is not handle:
                return
            self._timer = None
            if value is not TIMED_OUT:
                # event won the race: the timer must never fire
                handle.cancel()
            self._step(value)

        instr.event.add_waiter(resume)
        handle = self._timer = sim.call_later(instr.duration, resume,
                                              TIMED_OUT)

    def kill(self) -> None:
        """Terminate the process: ``ProcessKilled`` is raised inside the
        generator (cleanup ``finally`` blocks run); a process may also
        catch it to shut down gracefully.  No-op if already finished."""
        if self.finished:
            return
        if self._waiting:
            self._waiting = False
            self.sim._blocked_processes -= 1
        if self._timer is not None:
            # a killed process's keep-alive timer must neither count as
            # pending work nor fire into the dead generator
            self._timer.cancel()
            self._timer = None
        try:
            self.gen.throw(ProcessKilled(f"process {self.name!r} killed"))
        except (ProcessKilled, StopIteration):
            pass
        finally:
            if not self.finished:
                self._finish(None, None)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self.finished = True
        self.result = result
        self.error = error
        # the run loop must look at its processes before anything else
        # runs, and nothing runs ahead until it has
        self.sim._horizon = NO_HORIZON
        if error is None:
            self.done.succeed(result)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else ("blocked" if self._waiting else "ready")
        return f"Process({self.name!r}, {state})"
