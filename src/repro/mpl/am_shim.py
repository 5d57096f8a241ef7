"""Active Messages emulated over MPL — the "Split-C over MPL" stack (§3).

The paper compares Split-C over SP AM with David Bader's Split-C port over
MPL.  That port funnels the Split-C runtime's communication through MPL
send/receive, so every fine-grain operation pays MPL's per-message
software overhead — the very effect Table 5 and Figure 4 quantify.

This shim is an :class:`~repro.am.handler.ActiveMessages` transport (the
same request_M / reply via token / store / store_async / get / get_async /
poll / wait_op surface as SP AM), implemented with MPL messages:

* requests/replies: one small MPL message carrying (handler, args);
* stores: one MPL message with a 16-byte header + payload; the receiver
  writes it at the addressed location and returns a tiny ack message;
* gets: a get-request message answered with the data.

Handlers, tokens, and restrictions behave identically, so the Split-C
runtime runs unmodified on top.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional

from repro.am.handler import (
    ActiveMessages,
    HandlerRestrictionError,
    HandlerTable,
    OpHandle,
)
from repro.mpl.api import MPL
from repro.sim.primitives import TIMED_OUT, Timeout
from repro.sim.stats import StatRegistry

#: MPL tags reserved for the AM emulation
TAG_REQUEST = 0x5C01
TAG_REPLY = 0x5C02
TAG_STORE = 0x5C03
TAG_GET_REQ = 0x5C04
TAG_GET_DATA = 0x5C05
TAG_STORE_ACK = 0x5C06
TAG_REQ_ACK = 0x5C07

_HDR = struct.Struct("<qqqq")  # handler/addr/len/token — 32-byte header


class MPLAM(ActiveMessages):
    """The AM-over-MPL shim on one node (installs itself as ``node.am``)."""

    def __init__(self, node, handlers: HandlerTable):
        if node.mpl is None:
            raise ValueError("attach MPL before the AM-over-MPL shim")
        super().__init__(node, handlers)
        self.mpl: MPL = node.mpl
        self.engine = node.mpl.engine
        self.stats = StatRegistry(f"mplam[{node.id}].")
        self._store_waiters: Dict[int, Any] = {}
        self._get_waiters: Dict[int, Any] = {}
        self._req_ack_waiters: Dict[int, Any] = {}

    # -- small messages ------------------------------------------------------

    def _request(self, dst, handler, args):
        """Emulated requests are acknowledged at the MPL level: the port
        cannot let unexpected messages accumulate unboundedly in MPL's
        matching queues, so each request round-trips before the next —
        the dominant cost of Split-C-over-MPL's fine-grain traffic (§3).
        """
        token = self._take_token()
        ack = self.sim.event(f"mplam[{self.node.id}].reqack")
        self._req_ack_waiters[token] = ack
        yield from self._send_am(dst, TAG_REQUEST, handler, args, token)
        self.stats.count("requests_sent")
        yield from self.poll()
        while not ack.triggered:
            yield from self._wait_progress()

    def _send_reply(self, dst, handler, args):
        """Emulated reply: one MPL message."""
        return self._send_am(dst, TAG_REPLY, handler, args)

    def _send_am(self, dst, tag, handler, args, token=0):
        hid = self.handlers.register(handler)
        payload = struct.pack("<qq", hid, token) + struct.pack(
            f"<{len(args)}q", *args)
        yield from self.engine.send_message(dst, payload, tag)

    # -- bulk ----------------------------------------------------------------

    def store_async(self, dst, local_addr, remote_addr, nbytes,
                    handler: Callable = None, arg: int = 0,
                    completion_fn: Optional[Callable] = None):
        """Non-blocking bulk store over MPL; handle completes on the ack."""
        self._check_transfer("store", nbytes, 0)
        hid = self.handlers.register(handler) if handler is not None else -1
        token = self._take_token()
        done = self.sim.event(f"mplam[{self.node.id}].store")
        handle = OpHandle(done)
        if completion_fn is not None:
            done.add_waiter(lambda _v: completion_fn(handle))
        if nbytes == 0:
            done.succeed(None)
            return handle
        self._store_waiters[token] = done
        data = self.node.memory.read(local_addr, nbytes)
        msg = _HDR.pack(hid, remote_addr, nbytes, token) + data
        yield from self.engine.send_message(dst, msg, TAG_STORE)
        self.stats.count("stores_sent")
        return handle

    def get_async(self, dst, remote_addr, local_addr, nbytes,
                  handler: Callable = None, arg: int = 0):
        """Non-blocking get over MPL; returns the completion event."""
        self._check_transfer("get", nbytes, 1)
        hid = self.handlers.register(handler) if handler is not None else -1
        token = self._take_token()
        done = self.sim.event(f"mplam[{self.node.id}].get")
        self._get_waiters[token] = (done, local_addr, hid, arg)
        msg = _HDR.pack(hid, remote_addr, nbytes, token) + struct.pack(
            "<q", local_addr)
        yield from self.engine.send_message(dst, msg, TAG_GET_REQ)
        self.stats.count("gets_sent")
        return done

    # -- progress ---------------------------------------------------------------

    def poll(self):
        """Service MPL traffic and dispatch emulated AM handlers."""
        if self._in_handler:
            raise HandlerRestrictionError("am_poll may not be called from a handler")
        yield from self.engine.poll()
        handled = 0
        while (yield from self._dispatch_one()):
            handled += 1
        return handled

    def _dispatch_one(self):
        for tag in (TAG_REQ_ACK, TAG_REPLY, TAG_STORE_ACK, TAG_STORE,
                    TAG_GET_DATA, TAG_GET_REQ, TAG_REQUEST):
            hit = None
            for i, (src, mtag, data) in enumerate(self.engine._unexpected):
                if mtag == tag:
                    hit = (i, src, data)
                    break
            if hit is None:
                continue
            i, src, data = hit
            del self.engine._unexpected[i]
            # every emulated AM is an MPL message: pay the receive-side
            # matching + descriptor hand-off on delivery
            yield from self.node.compute(self.mpl.costs.recv_fixed * 0.5
                                         + self.mpl.costs.match_cost)
            yield from self._handle(tag, src, data)
            return True
        return False

    def _handle(self, tag, src, data):
        if tag in (TAG_REQUEST, TAG_REPLY):
            hid, req_token = struct.unpack_from("<qq", data)
            nargs = (len(data) - 16) // 8
            args = struct.unpack_from(f"<{nargs}q", data, 16)
            if tag == TAG_REQUEST:
                yield from self.engine.send_message(
                    src, struct.pack("<q", req_token), TAG_REQ_ACK)
            fn = self.handlers.lookup(hid)
            yield from self._run_handler(fn, src, *args)
            self.stats.count("handlers_run")
        elif tag == TAG_REQ_ACK:
            req_token = struct.unpack("<q", data)[0]
            waiter = self._req_ack_waiters.pop(req_token, None)
            if waiter is not None:
                waiter.succeed(None)
        elif tag == TAG_STORE:
            hid, addr, nbytes, token_id = _HDR.unpack_from(data)
            self.node.memory.write(addr, data[_HDR.size:])
            yield from self.engine.send_message(
                src, struct.pack("<q", token_id), TAG_STORE_ACK)
            if hid >= 0:
                fn = self.handlers.lookup(hid)
                yield from self._run_handler(fn, src, addr, nbytes, 0)
        elif tag == TAG_STORE_ACK:
            token_id = struct.unpack("<q", data)[0]
            waiter = self._store_waiters.pop(token_id, None)
            if waiter is not None:
                waiter.succeed(None)
        elif tag == TAG_GET_REQ:
            hid, addr, nbytes, token_id = _HDR.unpack_from(data)
            local_addr = struct.unpack_from("<q", data, _HDR.size)[0]
            payload = self.node.memory.read(addr, nbytes)
            msg = _HDR.pack(hid, local_addr, nbytes, token_id) + payload
            yield from self.engine.send_message(src, msg, TAG_GET_DATA)
        elif tag == TAG_GET_DATA:
            hid, addr, nbytes, token_id = _HDR.unpack_from(data)
            entry = self._get_waiters.pop(token_id, None)
            self.node.memory.write(addr, data[_HDR.size:])
            if entry is not None:
                done, _local, hid2, arg = entry
                if hid2 >= 0:
                    fn = self.handlers.lookup(hid2)
                    yield from self._run_handler(fn, src, addr, nbytes, arg)
                done.succeed(None)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(hex(tag))

    def _wait_progress(self):
        if self.node.adapter.host_recv_available() == 0:
            ev = self.node.adapter.arrival_event()
            # long guard: peers may be deep in a charged compute phase
            # (a 128x128 dgemm costs ~100 ms of simulated time)
            res = yield Timeout(ev, 5_000_000.0)
            if res is TIMED_OUT:
                raise RuntimeError(
                    f"AM-over-MPL on node {self.node.id} stalled 5 s"
                )
        yield from self.poll()


def attach_mpl_am(machine) -> List[MPLAM]:
    """Install MPL + the AM shim on every node of an SP machine."""
    from repro.mpl.api import attach_mpl

    if any(node.mpl is None for node in machine.nodes):
        attach_mpl(machine)
    table = HandlerTable()
    return [MPLAM(node, table) for node in machine.nodes]
