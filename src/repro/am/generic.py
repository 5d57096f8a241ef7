"""Generic Active Messages on the Table-4 peer machines.

The CM-5, Meiko CS-2, and U-Net/ATM AM ports are characterized in the
paper purely by their LogP numbers (per-message overhead, latency,
bandwidth).  This implementation is an
:class:`~repro.am.handler.ActiveMessages` transport with those costs and
a reliable, ordered fabric underneath — the right level of detail for
the Split-C cross-machine comparison (Table 5 / Figure 4), which depends
on message counts, overheads, and bandwidths rather than on the
SP-specific flow-control machinery.

Bulk transfers fragment at 1 KB: large enough that these machines' bulk
bandwidth is wire-limited (as measured in their AM papers), small enough
that per-fragment overhead shows up for medium messages.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.am.handler import (
    ActiveMessages,
    HandlerRestrictionError,
    HandlerTable,
    OpHandle,
)
from repro.hardware.packet import PACKET_HEADER_BYTES
from repro.sim.primitives import TIMED_OUT, Timeout
from repro.sim.stats import StatRegistry


class _Fragment:
    """A bulk fragment on a generic fabric: arbitrary payload length."""

    __slots__ = ("src", "dst", "kind", "handler", "args", "payload", "addr",
                 "offset", "total_len", "op_token", "wire_bytes", "seq",
                 "ack_req", "ack_rep", "channel", "chunk_packets", "trace_id")

    def __init__(self, src, dst, kind, handler, args, payload, addr,
                 offset, total_len, op_token):
        self.trace_id = 0
        self.src = src
        self.dst = dst
        self.kind = kind  # "store", "get_data"
        self.handler = handler
        self.args = args
        self.payload = payload
        self.addr = addr
        self.offset = offset
        self.total_len = total_len
        self.op_token = op_token
        self.wire_bytes = PACKET_HEADER_BYTES + len(payload)


class _Request:
    __slots__ = ("src", "dst", "kind", "handler", "args", "addr",
                 "total_len", "op_token", "wire_bytes", "trace_id")

    def __init__(self, src, dst, kind, handler, args, addr=0,
                 total_len=0, op_token=0, nwords=1):
        self.trace_id = 0
        self.src = src
        self.dst = dst
        self.kind = kind  # "request", "reply", "get_request"
        self.handler = handler
        self.args = args
        self.addr = addr
        self.total_len = total_len
        self.op_token = op_token
        self.wire_bytes = PACKET_HEADER_BYTES + 4 * nwords


class GenericAM(ActiveMessages):
    """Active Messages with LogP costs on a generic machine."""

    FRAGMENT_BYTES = 1024

    def __init__(self, node, handlers: HandlerTable):
        if node.nic is None:
            raise ValueError("GenericAM needs a node with a GenericNIC")
        super().__init__(node, handlers)
        self.nic = node.nic
        self.host = node.host
        self.params = node.nic.params
        self.stats = StatRegistry(f"gam[{node.id}].")
        self._bulk_recv: Dict[Tuple[int, int], list] = {}
        self._store_waiters: Dict[Tuple[int, int], Any] = {}
        self._get_waiters: Dict[Tuple[int, int], Any] = {}
        self.net_time_accum = 0.0

    # -- small messages -----------------------------------------------

    def _request(self, dst, handler, args):
        hid = self.handlers.register(handler)
        msg = _Request(self.node.id, dst, "request", hid, args,
                       nwords=len(args))
        if self.nic.obs is not None:
            self.nic.obs.begin_message(msg, self.sim.now)
        yield from self.node.compute(self.params.o_send)
        self.nic.host_send(msg)
        self.stats.count("requests_sent")
        yield from self.poll()

    def _send_reply(self, dst, handler, args):
        hid = self.handlers.register(handler)
        msg = _Request(self.node.id, dst, "reply", hid, args,
                       nwords=len(args))
        if self.nic.obs is not None:
            self.nic.obs.begin_message(msg, self.sim.now)
        yield from self.node.compute(self.params.o_send)
        self.nic.host_send(msg)
        self.stats.count("replies_sent")

    # -- bulk ------------------------------------------------------------

    def store_async(self, dst, local_addr, remote_addr, nbytes,
                    handler: Callable = None, arg: int = 0,
                    completion_fn: Optional[Callable] = None):
        """Non-blocking bulk store; returns a handle with a .done event."""
        self._check_transfer("store", nbytes, 0)
        hid = self.handlers.register(handler) if handler is not None else -1
        token = self._take_token()
        data = self.node.memory.read(local_addr, nbytes)
        done = self.sim.event(f"gam[{self.node.id}].store")
        handle = OpHandle(done)
        if completion_fn is not None:
            done.add_waiter(lambda _v: completion_fn(handle))
        if nbytes == 0:
            done.succeed(None)
            return handle
        # completion is signalled by the receiver's store_ack (mirroring
        # SP AM, whose blocking stores wait for the chunk acknowledgement)
        self._store_waiters[(dst, token)] = done
        handler_args = arg if isinstance(arg, tuple) else (arg,)
        yield from self._inject_fragments(dst, "store", data, remote_addr,
                                          hid, handler_args, token)
        self.stats.count("stores_started")
        return handle

    def get_async(self, dst, remote_addr, local_addr, nbytes,
                  handler: Callable = None, arg: int = 0):
        """Non-blocking get; returns the completion event."""
        self._check_transfer("get", nbytes, 1)
        hid = self.handlers.register(handler) if handler is not None else -1
        token = self._take_token()
        done = self.sim.event(f"gam[{self.node.id}].get")
        self._get_waiters[(dst, token)] = done
        yield from self.node.compute(self.params.o_send)
        self.nic.host_send(_Request(self.node.id, dst, "get_request", hid,
                                    (remote_addr, arg), addr=local_addr,
                                    total_len=nbytes, op_token=token,
                                    nwords=4))
        self.stats.count("gets_started")
        return done

    def _inject_fragments(self, dst, kind, data, remote_addr, hid, args, token):
        frag = self.FRAGMENT_BYTES
        for off in range(0, len(data), frag):
            payload = data[off: off + frag]
            yield from self.node.compute(self.params.o_send)
            self.nic.host_send(_Fragment(self.node.id, dst, kind, hid, args,
                                         payload, remote_addr, off,
                                         len(data), token))

    # -- polling -----------------------------------------------------------

    def poll(self):
        """am_poll: drain arrivals, dispatching handlers."""
        if self._in_handler:
            raise HandlerRestrictionError("am_poll may not be called from a handler")
        yield from self.node.compute(self.host.poll_empty)
        handled = 0
        while self.nic.host_recv_available() > 0:
            msg = self.nic.host_recv_consume()
            yield from self.node.compute(self.params.o_recv)
            yield from self._process(msg)
            handled += 1
        return handled

    def _process(self, msg):
        if isinstance(msg, _Request):
            if msg.kind in ("request", "reply"):
                fn = self.handlers.lookup(msg.handler)
                obs = self.nic.obs
                t0 = self.sim.now
                if obs is not None:
                    obs.mark_packet(msg, "handler_start", t0)
                yield from self._run_handler(fn, msg.src, *msg.args)
                if obs is not None:
                    obs.mark_packet(msg, "handler_end", self.sim.now)
                    obs.hist("am.handler_us").observe(self.sim.now - t0)
                self.stats.count("handlers_run")
            elif msg.kind == "get_request":
                data = self.node.memory.read(msg.args[0], msg.total_len)
                yield from self._inject_fragments(
                    msg.src, "get_data", data, msg.addr, msg.handler,
                    (msg.args[1],), msg.op_token)
                self.stats.count("gets_served")
            elif msg.kind == "store_ack":
                waiter = self._store_waiters.pop((msg.src, msg.op_token), None)
                if waiter is not None:
                    waiter.succeed(None)
            else:  # pragma: no cover - exhaustive
                raise AssertionError(msg.kind)
        elif isinstance(msg, _Fragment):
            yield from self.node.compute(len(msg.payload) / self.host.copy_rate)
            self.node.memory.write(msg.addr + msg.offset, msg.payload)
            key = (msg.src, msg.op_token)
            got = self._bulk_recv.get(key, 0) + len(msg.payload)
            if got >= msg.total_len:
                self._bulk_recv.pop(key, None)
                if msg.kind == "get_data":
                    waiter = self._get_waiters.pop(key, None)
                    if waiter is not None:
                        waiter.succeed(None)
                elif msg.kind == "store":
                    yield from self.node.compute(self.params.o_send)
                    self.nic.host_send(_Request(self.node.id, msg.src,
                                                "store_ack", -1, (),
                                                op_token=msg.op_token))
                if msg.handler >= 0:
                    fn = self.handlers.lookup(msg.handler)
                    yield from self._run_handler(fn, msg.src, msg.addr,
                                                 msg.total_len, *msg.args)
                self.stats.count("bulk_recv_completed")
            else:
                self._bulk_recv[key] = got
        else:  # pragma: no cover - exhaustive
            raise AssertionError(type(msg))

    def _wait_progress(self):
        if self.nic.host_recv_available() == 0:
            ev = self.nic.arrival_event()
            # generous guard: peers may sit in near-second compute phases
            # (a CM-5 128x128 dgemm costs ~0.8 s of simulated time) and
            # bulk-store acks trail their data; a true hang is caught by
            # the simulator's deadlock detection anyway
            res = yield Timeout(ev, 5_000_000.0)
            if res is TIMED_OUT:
                raise RuntimeError(
                    f"generic AM on node {self.node.id} stalled 5 s with "
                    "no arrivals (reliable fabric should never stall)"
                )
        yield from self.poll()
