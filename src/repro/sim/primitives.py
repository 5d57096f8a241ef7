"""Yield instructions and signalling primitives for simulation processes.

A process is a generator.  It communicates with the engine by yielding
instances of the classes below:

* ``Delay(t)`` — suspend for ``t`` microseconds of simulated time.  ``t``
  may be zero (yield the CPU at the current instant; other events scheduled
  at the same time run first).
* ``Until(t)`` — suspend until absolute simulated time ``t`` (``t >=
  now``): the one yield that ends a stretch of fused host charges.
* ``WaitEvent(ev)`` — suspend until ``ev.succeed(...)`` is called.  The
  value passed to ``succeed`` becomes the value of the ``yield`` expression.

``Event`` is a one-shot signal.  Once succeeded it stays succeeded;
processes that wait on an already-succeeded event resume immediately (at
the current simulated instant) with the stored value.  This matches the
semantics needed for completion flags ("this store has been acked") where
the waiter may arrive before or after the signal.
"""

from __future__ import annotations

from typing import Any, Callable, List


class Delay:
    """Advance the yielding process's clock by ``duration`` microseconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if not duration >= 0:  # negative or NaN
            if duration != duration:
                raise ValueError("NaN delay")
            raise ValueError(f"negative delay: {duration}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Delay({self.duration})"


class Until:
    """Resume the yielding process at absolute simulated time ``time``.

    The end of a *charge stretch*: a process that owes several host
    charges in a row, with nothing in between that another component can
    observe, adds them to a local clock (``tl += d``, in the order the
    ``Delay`` chain would have) and yields once.  The resume lands on the
    very float the chain would have reached.  A ``time`` behind the clock,
    or NaN, ends the process with a :class:`SimulationError`.
    """

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Until({self.time})"


class Event:
    """A one-shot signal with an optional payload.

    Hardware models call :meth:`succeed` from plain event callbacks;
    software processes block on the event with ``yield WaitEvent(ev)``.
    Multiple processes may wait on the same event; all are resumed at the
    instant the event fires, in wait order.
    """

    __slots__ = ("sim", "_value", "_ok", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):  # noqa: F821
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._ok = False
        self._waiters: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._ok:
            raise RuntimeError(f"event {self.name!r} has not fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the event, waking every waiter at the current sim time."""
        if self._ok:
            raise RuntimeError(f"event {self.name!r} fired twice")
        self._ok = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            # Wake at the current instant; scheduling through the queue
            # keeps resumption ordering deterministic.
            self.sim.schedule(0.0, resume, value)

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        """Register a resume callback (engine-internal)."""
        if self._ok:
            self.sim.schedule(0.0, resume, self._value)
        else:
            self._waiters.append(resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "ok" if self._ok else f"{len(self._waiters)} waiting"
        return f"Event({self.name!r}, {state})"


class WaitEvent:
    """Yield instruction: block the process until ``event`` fires."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WaitEvent({self.event!r})"


class Timeout:
    """Yield instruction: block until ``event`` fires OR ``duration`` passes.

    The yield expression evaluates to the event's value if it fired first,
    or to the ``TIMED_OUT`` sentinel otherwise.
    """

    __slots__ = ("event", "duration")

    def __init__(self, event: Event, duration: float):
        self.event = event
        self.duration = duration


TIMED_OUT = object()



def wait_for_arrival(device, timeout_us: float, name: str, node_id: int):
    """The idle wait of a polling transport other than SP AM.

    ``device`` is an adapter or NIC with ``host_recv_available()`` and
    ``arrival_event()``.  If it holds nothing, sleep until its next
    arrival; if none comes within ``timeout_us``, raise ``RuntimeError``
    naming the transport ``name`` and ``node_id``.
    """
    if device.host_recv_available() == 0:
        res = yield Timeout(device.arrival_event(), timeout_us)
        if res is TIMED_OUT:
            raise RuntimeError(
                f"{name} on node {node_id} stalled {timeout_us / 1e6:g} s "
                "with no arrivals")
