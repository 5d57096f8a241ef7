"""Handlers and the Generic Active Messages 1.1 front end (§1.1, Table 1).

Handlers are registered identically on every node (SPMD style): the table
is shared per machine, so a handler id names the same function everywhere.

:class:`ActiveMessages` is Table 1 written once: ``register``,
``request_1..4``, the blocking ``store`` / ``get`` / ``wait_op``, and the
rules every implementation enforces.  SP AM, the LogP peers' AM and the
AM-over-MPL shim derive from it and supply only their transport.

Request handlers receive a :class:`ReplyToken` as their first argument and
may send **at most one reply** through it — and nothing else: Active
Messages forbids handlers from blocking, polling, or issuing new requests
(that restriction is what makes the request/reply discipline
deadlock-free, and it is why the MPI layer's rendez-vous protocol must
defer its store to the main thread, §4.1).

A handler may be a plain function (bookkeeping only) or a generator
(when it needs to charge CPU time or send a reply); the poll loop drives
generators with ``yield from``.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple


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


_NO_REQUESTS = "handlers may not issue requests; reply via the token"


class ReplyToken:
    """Handed to request/store handlers; allows at most one reply."""

    __slots__ = ("am", "src", "_used")

    def __init__(self, am: "ActiveMessages", src: int):
        self.am = am
        self.src = src
        self._used = False

    def reply_1(self, handler: Callable, a0: int):
        """Send the handler's one 1-word reply back to the requester."""
        return self._reply(handler, (a0,))

    def reply_2(self, handler: Callable, a0: int, a1: int):
        """Send the handler's one 2-word reply back to the requester."""
        return self._reply(handler, (a0, a1))

    def reply_3(self, handler: Callable, a0: int, a1: int, a2: int):
        """Send the handler's one 3-word reply back to the requester."""
        return self._reply(handler, (a0, a1, a2))

    def reply_4(self, handler: Callable, a0: int, a1: int, a2: int, a3: int):
        """Send the handler's one 4-word reply back to the requester."""
        return self._reply(handler, (a0, a1, a2, a3))

    def _reply(self, handler: Callable, args: Tuple[int, ...]):
        if self._used:
            raise HandlerRestrictionError("handler already sent its one reply")
        self._used = True
        return self.am._send_reply(self.src, handler, args)


class OpHandle:
    """An asynchronous bulk operation; ``done`` fires when it completes."""

    __slots__ = ("done",)

    def __init__(self, done):
        self.done = done


class ActiveMessages:
    """The GAM 1.1 API on one node (installs itself as ``node.am``).

    Every operation is a generator (``yield from am.request_2(...)``).  A
    transport subclass supplies:

    * ``_request(dst, handler, args)`` and ``_send_reply(dst, handler,
      args)`` — move one short message;
    * ``store_async`` / ``get_async`` — start a bulk transfer (after
      :meth:`_check_transfer`); return a handle with a ``done`` event /
      the completion event;
    * ``poll()`` — am_poll, running handlers through
      :meth:`_run_handler`;
    * ``_wait_progress()`` — the blocking wait: service the network,
      sleeping until something arrives when idle.
    """

    def __init__(self, node, handlers: HandlerTable):
        self.node = node
        self.handlers = handlers
        self.sim = node.sim
        self._in_handler = False
        self._next_token = 1
        node.am = self

    def register(self, fn: Callable) -> int:
        """Register an AM handler; same id on every node of the machine."""
        return self.handlers.register(fn)

    def request_1(self, dst, handler, a0):
        """Send a 1-word request; ``handler`` runs on ``dst`` (Table 1)."""
        if self._in_handler:
            raise HandlerRestrictionError(_NO_REQUESTS)
        return self._request(dst, handler, (a0,))

    def request_2(self, dst, handler, a0, a1):
        """Send a 2-word request; ``handler`` runs on ``dst`` (Table 1)."""
        if self._in_handler:
            raise HandlerRestrictionError(_NO_REQUESTS)
        return self._request(dst, handler, (a0, a1))

    def request_3(self, dst, handler, a0, a1, a2):
        """Send a 3-word request; ``handler`` runs on ``dst`` (Table 1)."""
        if self._in_handler:
            raise HandlerRestrictionError(_NO_REQUESTS)
        return self._request(dst, handler, (a0, a1, a2))

    def request_4(self, dst, handler, a0, a1, a2, a3):
        """Send a 4-word request; ``handler`` runs on ``dst`` (Table 1)."""
        if self._in_handler:
            raise HandlerRestrictionError(_NO_REQUESTS)
        return self._request(dst, handler, (a0, a1, a2, a3))

    def store(self, dst: int, local_addr: int, remote_addr: int, nbytes: int,
              handler: Optional[Callable] = None, arg: int = 0):
        """Blocking bulk store: returns the op handle once the receiver has
        acknowledged the data ("the sender blocks after every transfer
        waiting for an acknowledgement", §2.4)."""
        op = yield from self.store_async(dst, local_addr, remote_addr,
                                         nbytes, handler, arg)
        yield from self.wait_op(op)
        return op

    def get(self, dst: int, remote_addr: int, local_addr: int, nbytes: int,
            handler: Optional[Callable] = None, arg: int = 0):
        """Blocking bulk get: fetch ``nbytes`` from ``dst``'s memory;
        returns the completion event's value."""
        done = yield from self.get_async(dst, remote_addr, local_addr,
                                         nbytes, handler, arg)
        while not done.triggered:
            yield from self._wait_progress()
        return done.value

    def wait_op(self, op):
        """Block until an async bulk op's ``done`` event fires."""
        while not op.done.triggered:
            yield from self._wait_progress()

    def _check_transfer(self, what: str, nbytes: int, least: int) -> None:
        """What every ``store_async`` / ``get_async`` checks first."""
        if self._in_handler:
            raise HandlerRestrictionError(f"handlers may not start {what}s")
        if nbytes < least:
            raise ValueError(
                f"{what} size must be at least {least} bytes, got {nbytes}")

    def _take_token(self) -> int:
        t = self._next_token
        self._next_token += 1
        return t

    def _run_handler(self, fn: Callable, src: int, *args):
        """Run handler ``fn`` for a message from ``src`` with a fresh
        :class:`ReplyToken`; requests, transfers and polls raise
        :class:`HandlerRestrictionError` until it returns."""
        self._in_handler = True
        try:
            result = fn(ReplyToken(self, src), *args)
            if type(result) is GeneratorType:
                yield from result
        finally:
            self._in_handler = False
