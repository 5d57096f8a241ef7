"""MPI-F: IBM's native MPI, as a comparison model (§4.3, Figs 8–11).

MPI-F was built from scratch on the same user-space transport family as
MPL (EUI); the paper treats it as a measured black box.  We model it as an
MPI implementation over our MPL transport engine with *native-tuned*
software costs and MPI-F's published protocol shape:

* eager protocol up to a threshold — **4 KB on wide nodes** ("the switch
  from a buffered to a rendez-vous protocol occurs at a message size of
  4K bytes"), 8 KB on thin;
* rendez-vous above, paying an extra round trip — which produces the §4.2
  bandwidth discontinuity ("the bandwidth achieved using messages of
  8 Kbytes is actually lower than with 4 Kbyte messages");
* tuned for wide nodes: lower fixed overheads there ("Evidently MPI-F was
  optimized for the wide nodes while MPI-AM was developed on thin ones").

The public API matches :class:`repro.mpi.mpi.MPI`, so the NAS kernels run
unchanged on either.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.hardware.machine import Machine
from repro.mpi.collectives import MPICollectives
from repro.mpi.comm import Communicator
from repro.mpi.p2p import MPIPoint2Point
from repro.mpi.request import Request
from repro.mpi.status import matches
from repro.mpl.api import MPLCosts
from repro.mpl.engine import MPLEngine
from repro.sim.primitives import TIMED_OUT, Timeout
from repro.sim.stats import StatRegistry

#: MPL-tag space for MPI-F's own protocol traffic
TAG_F_EAGER = 0x6F01
TAG_F_RTS = 0x6F02
TAG_F_OK = 0x6F03
TAG_F_DATA = 0x6F04

_ENV = struct.Struct("<qqqq")  # tag, context, total_len, token


def thin_node_costs() -> MPLCosts:
    """MPI-F transport costs on thin nodes."""
    return MPLCosts(send_fixed=9.5, recv_fixed=5.5, per_packet=4.2,
                    per_packet_recv=2.2, match_cost=1.2,
                    eager_bytes=0, poll_cost=1.4, credit_cost=1.0)


def wide_node_costs() -> MPLCosts:
    """MPI-F is tuned for wide nodes: very low fixed costs, but a heavier
    per-packet path (it loses to MPI-AM above ~100-300 bytes, §4.3)."""
    return MPLCosts(send_fixed=3.2, recv_fixed=2.0, per_packet=6.0,
                    per_packet_recv=4.0, match_cost=0.9,
                    eager_bytes=0, poll_cost=1.2, credit_cost=1.0)


class _UnexpectedF:
    __slots__ = ("src", "tag", "context", "total_len", "data", "op_token",
                 "is_rts")

    def __init__(self, src, tag, context, total_len, data=None,
                 op_token=0, is_rts=False):
        self.src = src
        self.tag = tag
        self.context = context
        self.total_len = total_len
        self.data = data
        self.op_token = op_token
        self.is_rts = is_rts


class MPIFDevice:
    """MPI-F's device layer: eager/rendez-vous over the MPL engine."""

    #: protocol-processing cost on top of the transport, per message
    PROTO_SEND = 2.0
    PROTO_RECV = 1.6

    def __init__(self, node, nprocs: int, eager_max: int, costs: MPLCosts):
        self.node = node
        self.rank = node.id
        self.nprocs = nprocs
        self.eager_max = eager_max
        self.engine = MPLEngine(node, costs)
        self.stats = StatRegistry(f"mpif[{node.id}].")
        self.posted: List[Request] = []
        self.unexpected: List[_UnexpectedF] = []
        self._send_waiters: Dict[int, Request] = {}
        self._send_data: Dict[int, bytes] = {}
        self._pending_data_reqs: Dict[Tuple[int, int], Request] = {}
        self._next_token = 1
        #: request-lifecycle checker (repro.check), None when unchecked
        self.check = None

    # -- send ------------------------------------------------------------------

    def start_send(self, dst_world, data_addr, nbytes, tag, context, request):
        yield from self.node.compute(self.PROTO_SEND)
        data = (self.node.memory.read(data_addr, nbytes) if nbytes else b"")
        token = self._next_token
        self._next_token += 1
        env = _ENV.pack(tag, context, nbytes, token)
        if nbytes <= self.eager_max:
            yield from self.engine.send_message(dst_world, env + data,
                                                TAG_F_EAGER)
            request.complete()
            self.stats.count("eager_sends")
        else:
            self._send_waiters[token] = request
            self._send_data[token] = data
            yield from self.engine.send_message(dst_world, env, TAG_F_RTS)
            self.stats.count("rendezvous_sends")

    # -- receive ------------------------------------------------------------------

    def post_recv(self, request: Request):
        yield from self.node.compute(self.PROTO_RECV)
        ck = self.check
        if ck is not None:
            ck.on_posted(request)
        for i, entry in enumerate(self.unexpected):
            if entry.context == request.comm.context and matches(
                    request.peer, request.tag, entry.src, entry.tag):
                del self.unexpected[i]
                if ck is not None:
                    ck.on_matched(request)
                if entry.is_rts:
                    yield from self._accept_rts(entry, request)
                else:
                    self._deliver(request, entry)
                return
        self.posted.append(request)

    def _deliver(self, request: Request, entry: _UnexpectedF):
        if request.recv_addr is not None and entry.data:
            self.node.memory.write(request.recv_addr, entry.data)
        request.complete(entry.data, source=entry.src, tag=entry.tag)

    def _accept_rts(self, entry: _UnexpectedF, request: Request):
        request.nbytes = entry.total_len
        # pending completion arrives as TAG_F_DATA carrying the token
        self._pending_data_reqs[(entry.src, entry.op_token)] = request
        ok = _ENV.pack(entry.tag, entry.context, entry.total_len,
                       entry.op_token)
        yield from self.engine.send_message(entry.src, ok, TAG_F_OK)

    # -- progress -----------------------------------------------------------------

    def progress(self):
        yield from self.engine.poll()
        yield from self._drain()

    def _drain(self):
        moved = True
        while moved:
            moved = False
            for i, (src, mtag, data) in enumerate(self.engine._unexpected):
                if mtag in (TAG_F_EAGER, TAG_F_RTS, TAG_F_OK, TAG_F_DATA):
                    del self.engine._unexpected[i]
                    yield from self._handle(src, mtag, data)
                    moved = True
                    break

    def _handle(self, src, mtag, data):
        yield from self.node.compute(self.PROTO_RECV)
        tag, context, total_len, token = _ENV.unpack_from(data)
        payload = data[_ENV.size:]
        if mtag == TAG_F_EAGER:
            req = self._find_posted(src, tag, context)
            if req is None:
                self.unexpected.append(_UnexpectedF(
                    src, tag, context, total_len, data=payload))
            else:
                self._deliver(req, _UnexpectedF(src, tag, context,
                                                total_len, data=payload))
        elif mtag == TAG_F_RTS:
            req = self._find_posted(src, tag, context)
            entry = _UnexpectedF(src, tag, context, total_len,
                                 op_token=token, is_rts=True)
            if req is None:
                self.unexpected.append(entry)
            else:
                yield from self._accept_rts(entry, req)
        elif mtag == TAG_F_OK:
            sreq = self._send_waiters.pop(token)
            sdata = self._send_data.pop(token)
            env = _ENV.pack(tag, context, total_len, token)
            yield from self.engine.send_message(src, env + sdata, TAG_F_DATA)
            sreq.complete()
        elif mtag == TAG_F_DATA:
            req = self._pending_data_reqs.pop((src, token))
            if req.recv_addr is not None and payload:
                self.node.memory.write(req.recv_addr, payload)
            req.complete(payload, source=src, tag=tag)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(hex(mtag))

    def _find_posted(self, src, tag, context):
        for i, req in enumerate(self.posted):
            if req.comm.context == context and matches(
                    req.peer, req.tag, src, tag):
                req = self.posted.pop(i)
                if self.check is not None:
                    self.check.on_matched(req)
                return req
        return None

    def _wait_progress(self):
        if self.node.adapter.host_recv_available() == 0:
            ev = self.node.adapter.arrival_event()
            res = yield Timeout(ev, 1_000_000.0)
            if res is TIMED_OUT:
                raise RuntimeError(
                    f"MPI-F on node {self.node.id} stalled 1 s")
        yield from self.progress()


class MPIF(MPIPoint2Point, MPICollectives):
    """MPI-F on one node (same public API as MPI-AM)."""

    def __init__(self, node, nprocs: int, eager_max: int, costs: MPLCosts):
        self.node = node
        self.rank = node.id
        self.nprocs = nprocs
        self.comm_world = Communicator(list(range(nprocs)), node.id,
                                       context=1)
        self.adi = MPIFDevice(node, nprocs, eager_max, costs)
        self._loopback: List[Tuple[int, int, bytes]] = []
        self._coll_seq: Dict[int, int] = {}
        self._requests_made = 0
        node.mpi = self


def attach_mpif(machine: Machine,
                eager_max: Optional[int] = None) -> List[MPIF]:
    """Install MPI-F on an SP machine (no AM layer needed — it has its
    own transport).  Eager/rendez-vous switch: 4 KB on wide nodes, 8 KB
    on thin, unless overridden."""
    if not machine.is_sp:
        raise ValueError("MPI-F exists only on the SP")
    wide = machine.params.host.kind == "wide"
    costs = wide_node_costs() if wide else thin_node_costs()
    if eager_max is None:
        eager_max = 4096
    return [MPIF(node, machine.nprocs, eager_max, costs)
            for node in machine.nodes]
