"""Handler registration and invocation rules (§1.1).

Handlers are registered identically on every node (SPMD style): the table
is shared per machine, so a handler id names the same function everywhere.

Request handlers receive a :class:`ReplyToken`-like object as their first
argument and may send **at most one reply** through it — and nothing else:
Active Messages forbids handlers from blocking, polling, or issuing new
requests (that restriction is what makes the request/reply discipline
deadlock-free, and it is why the MPI layer's rendez-vous protocol must
defer its store to the main thread, §4.1).  The table enforces this.

A handler may be a plain function (bookkeeping only) or a generator
(when it needs to charge CPU time or send a reply); the poll loop drives
generators with ``yield from``.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional


class HandlerRestrictionError(RuntimeError):
    """A handler tried to do something the AM model forbids."""


class HandlerTable:
    """Machine-wide handler-id -> function mapping."""

    def __init__(self) -> None:
        self._handlers: List[Callable] = []
        self._ids: Dict[Callable, int] = {}

    def register(self, fn: Callable) -> int:
        """Register ``fn`` and return its handler id (idempotent)."""
        hid = self._ids.get(fn)
        if hid is None:
            hid = self._ids[fn] = len(self._handlers)
            self._handlers.append(fn)
        return hid

    def lookup(self, hid: int) -> Callable:
        try:
            return self._handlers[hid]
        except IndexError:
            raise KeyError(f"no handler registered with id {hid}") from None

    def __len__(self) -> int:
        return len(self._handlers)


def run_handler(fn: Callable, *args: Any):
    """Drive a handler that may be a plain function or a generator.

    This is itself a generator: the poll loop invokes it with
    ``yield from``.  Returns the handler's return value.
    """
    result = fn(*args)
    if type(result) is GeneratorType:
        result = yield from result
    return result
