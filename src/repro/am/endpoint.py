"""The SP Active Messages endpoint: one per node, over the TB2 adapter (§2).

:class:`SPAM` takes the GAM 1.1 API (``register``, ``request_M``, the
blocking ``store`` / ``get`` / ``wait_op``, the reply token and the handler
rules) from :class:`~repro.am.handler.ActiveMessages` and supplies the
transport under it: ``_request``, ``_send_reply``, ``store_async``,
``get_async``, ``poll`` and ``_wait_progress``.  They are generators that
charge the calibrated host costs of Table 2, move real packets through
the simulated adapter/switch, and implement §2.2's reliability machinery:

* per-peer, per-channel sliding windows (72 request / 76 reply packets),
* piggybacked cumulative acks on every sequenced packet,
* explicit acks at a quarter window and one ack per bulk chunk,
* NACK-triggered go-back-N retransmission of saved packets,
* keep-alive probes when acks stop arriving (emulating the paper's
  unsuccessful-poll timeout),
* pipelined chunk protocol for stores and gets (Figure 2).

Handlers run inside :meth:`SPAM.poll`; the request/reply hot loop in
:meth:`SPAM._drain` drives them inline rather than through
``_run_handler``.
"""

from __future__ import annotations

from collections import deque
from types import GeneratorType
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.am.bulk import BulkRecvState, BulkSendOp, packets_in_chunk
from repro.am.constants import (
    ACK_FRACTION,
    AMCosts,
    PACKET_PAYLOAD_BYTES,
    REPLY_CHANNEL,
    REPLY_WINDOW,
    REQUEST_CHANNEL,
    REQUEST_WINDOW,
)
from repro.am.handler import (
    ActiveMessages,
    HandlerRestrictionError,
    HandlerTable,
    ReplyToken,
)
from repro.am.window import RecvWindow, SendWindow
from repro.hardware.cache import copy_cost, flush_cost
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.params import PACKET_HEADER_BYTES
from repro.sim.primitives import (TIMED_OUT, Delay, Event, Timeout, Until,
                                  WaitEvent)
from repro.sim.stats import StatRegistry

# PacketKind members as module constants: the receive path compares the
# kind of every arriving packet, and an identity check against a cached
# global skips the enum attribute lookup per compare
_REQUEST = PacketKind.REQUEST
_REPLY = PacketKind.REPLY
_STORE_DATA = PacketKind.STORE_DATA
_GET_DATA = PacketKind.GET_DATA
_GET_REQUEST = PacketKind.GET_REQUEST
_ACK = PacketKind.ACK
_NACK = PacketKind.NACK
_KEEPALIVE = PacketKind.KEEPALIVE

#: send-FIFO backpressure retry: the adapter drains an entry every ~6.5 us
_FIFO_BACKOFF = Delay(3.3)


class _CostCache(dict):
    """One host charge per size: ``cache[n]`` is ``cost(n)``, computed on
    first use.  A hit is a plain dict subscript, not a Python call; the
    cost tables are frozen, so an entry never goes stale."""

    __slots__ = ("_cost",)

    def __init__(self, cost: Callable[[int], float]):
        super().__init__()
        self._cost = cost

    def __missing__(self, n: int) -> float:
        c = self[n] = self._cost(n)
        return c


class _DelayCache(_CostCache):
    """One shared :class:`Delay` per size: ``cache[n]`` is
    ``Delay(cost(n))``, built on first use.

    The per-message host charges are yielded from these instead of a
    fresh ``Delay`` each: the engine only reads ``duration``.  A charge
    stretch adds plain costs to its local clock and takes them from a
    :class:`_CostCache` instead.
    """

    __slots__ = ()

    def __missing__(self, n: int) -> Delay:
        d = self[n] = Delay(self._cost(n))
        return d


class _PeerState:
    """Everything one endpoint tracks about one remote node."""

    __slots__ = ("send", "recv", "pending_units")

    def __init__(self, duty: set) -> None:
        self.send = (SendWindow(REQUEST_WINDOW), SendWindow(REPLY_WINDOW))
        self.recv = (
            RecvWindow(REQUEST_WINDOW, REQUEST_WINDOW // ACK_FRACTION, duty),
            RecvWindow(REPLY_WINDOW, REPLY_WINDOW // ACK_FRACTION, duty),
        )
        #: per channel: sorted list of (end_seq, op, chunk_idx) pending acks
        self.pending_units: Tuple[list, list] = ([], [])


class SPAM(ActiveMessages):
    """SP Active Messages on one node.  Access as ``node.am``."""

    def __init__(self, node, handlers: HandlerTable,
                 costs: Optional[AMCosts] = None):
        entries = node.adapter.send_fifo.entries
        if entries < self.ARM_BATCH:
            # bulk sends stage a whole arm batch before arming it, and the
            # adapter drains only armed entries: a smaller FIFO fills with
            # unarmed packets and every bulk send backs off forever
            raise ValueError(
                f"send_fifo_entries={entries} is smaller than "
                f"SPAM.ARM_BATCH={self.ARM_BATCH}")
        super().__init__(node, handlers)
        self.adapter = node.adapter
        self.costs = costs if costs is not None else AMCosts()
        self.host = node.host
        self.stats = StatRegistry(f"am[{node.id}].")
        self._peers: Dict[int, _PeerState] = {}
        #: receive windows that may owe an explicit ack or a stall check
        #: (see ``RecvWindow.duty``); pruned at the end of each duty pass
        self._rx_duty: set = set()
        #: replies that found the reply window or send FIFO full; drained
        #: by subsequent polls
        self._deferred_replies: Deque[Tuple[int, int, Tuple[int, ...]]] = deque()
        #: bulk receive reassembly, keyed by (src, op_token)
        self._bulk_recv: Dict[Tuple[int, int], BulkRecvState] = {}
        #: bulk send ops with chunks still to transmit
        self._active_sends: List[BulkSendOp] = []
        #: blocking-get completion events, keyed like _bulk_recv
        self._get_waiters: Dict[Tuple[int, int], Any] = {}
        self._sendable_ops_dirty = False
        #: keep-alive backoff: doubles while probes go unanswered (peers
        #: deep in compute phases), resets on any ack progress
        self._keepalive_backoff = 1.0
        #: network time attributed by the Split-C profiler
        self.net_time_accum = 0.0
        #: invariant sanitizer (repro.check), None when unchecked; set by
        #: Sanitizer.attach so freshly created peer windows get checkers
        self.check = None
        # hot-path caches: the two fixed poll charges are yielded as shared
        # Delay instances (the engine only reads ``duration``), and the
        # per-message counters are resolved to Counter objects once instead
        # of going through the registry dict on every packet
        self._poll_empty_delay = Delay(self.host.poll_empty)
        self._poll_pkt_delay = Delay(self.host.poll_per_packet)
        self._save_retx_delay = Delay(self.costs.save_retransmit)
        # the bulk path's per-packet charges: build + flush one send-FIFO
        # entry of n wire bytes; copy one received n-byte payload into the
        # user buffer
        costs, host = self.costs, self.host
        self._stage_costs = _CostCache(
            lambda n: costs.store_per_packet + flush_cost(n, host))
        self._copy_costs = _CostCache(
            lambda n: costs.bulk_recv_fixed + copy_cost(n, host))
        # the small-message charges, keyed by word-argument count: build +
        # flush a request entry + its length PIO; a reply's handler-side
        # build; flush + length PIO of a reply entry.  A request or reply
        # entry is the header plus four bytes per word.
        self._req_delays = _DelayCache(
            lambda n: (costs.req_fixed + costs.per_word * (n - 1)
                       + flush_cost(PACKET_HEADER_BYTES + 4 * n, host)
                       + host.mc_pio))
        self._rep_build_delays = _DelayCache(
            lambda n: costs.rep_fixed + costs.per_word * (n - 1))
        self._rep_emit_delays = _DelayCache(
            lambda n: flush_cost(PACKET_HEADER_BYTES + 4 * n, host)
            + host.mc_pio)
        # returning n consumed receive-FIFO entries: one PIO plus the
        # flush of the n 256-byte slots before their reuse
        self._pop_delays = _DelayCache(
            lambda n: host.mc_pio + flush_cost(n * 256, host))
        # bound on first use, not here: a counter that exists reads 0 in
        # every snapshot, report and sampler layout
        self._c_idle_pop_flushes = None
        self._idle_wait = Timeout(None, 0.0)
        self._idle_block = WaitEvent(None)
        self._c_requests_sent = self.stats.counter("requests_sent")
        self._c_replies_sent = self.stats.counter("replies_sent")
        self._c_handlers_run = self.stats.counter("handlers_run")
        # observability objects resolved once per hub (the hub is attached
        # before traffic starts and never swapped mid-run)
        self._occ_hist = None
        self._handler_hist = None

    # ------------------------------------------------------------------
    # the transport under the GAM 1.1 API — all generators
    # ------------------------------------------------------------------

    def store_async(self, dst: int, local_addr: int, remote_addr: int,
                    nbytes: int, handler: Callable = None, arg: int = 0,
                    completion_fn: Optional[Callable] = None):
        """Non-blocking bulk store: returns a :class:`BulkSendOp` handle
        immediately after injecting what the chunk pipeline allows;
        ``completion_fn(op)`` runs (inside a later poll) when done."""
        self._check_transfer("store", nbytes, 0)
        c = self.costs
        yield from self.node.compute(c.store_fixed)
        hid = self.handlers.register(handler) if handler is not None else -1
        data = self.node.memory.read(local_addr, nbytes)
        done = self.sim.event(f"am[{self.node.id}].store")
        # `arg` may be a single word or a tuple of up to four words; the
        # completion handler receives them after (addr, nbytes) — this is
        # how MPI's buffered protocol ships its envelope (§4.1)
        handler_args = arg if isinstance(arg, tuple) else (arg,)
        op = BulkSendOp(self._take_token(), dst, REQUEST_CHANNEL, data,
                        remote_addr, hid, handler_args, done, completion_fn)
        self.stats.count("stores_started")
        if op.total_chunks == 0:
            done.succeed(op)
            if completion_fn is not None:
                completion_fn(op)
            return op
        self._active_sends.append(op)
        yield from self._pump_send(op)
        return op

    def get_async(self, dst: int, remote_addr: int, local_addr: int,
                  nbytes: int, handler: Callable = None, arg: int = 0):
        """Non-blocking get; completion signalled via the returned event
        (and ``handler`` runs locally when the data has landed)."""
        self._check_transfer("get", nbytes, 1)
        op_done = self.sim.event(f"am[{self.node.id}].get")
        c = self.costs
        peer = self._peer(dst)
        win = peer.send[REQUEST_CHANNEL]
        while not (win.can_send(1) and self.adapter.host_can_stage()):
            yield from self._wait_progress()
        hid = self.handlers.register(handler) if handler is not None else -1
        token = self._take_token()
        get_key = (dst, token)
        pkt = Packet(src=self.node.id, dst=dst, kind=PacketKind.GET_REQUEST,
                     channel=REQUEST_CHANNEL, handler=hid,
                     args=(remote_addr, arg), addr=local_addr,
                     total_len=nbytes, op_token=token)
        obs = self.adapter.obs
        if obs is not None:
            obs.begin_message(pkt, self.sim.now)
        yield from self.node.compute(
            c.get_fixed + flush_cost(pkt.wire_bytes, self.host) + self.host.mc_pio
        )
        seq = self._stage_small(pkt, peer, win)
        yield from self.node.compute(c.save_retransmit)
        win.save(seq, [pkt])
        # local completion bookkeeping: data arrives as GET_DATA
        self._bulk_recv[get_key] = BulkRecvState(
            src=dst, token=token, addr=local_addr, total_len=nbytes,
            handler=hid, handler_args=(arg,))
        self._get_waiters[get_key] = op_done
        self.stats.count("gets_started")
        return op_done

    def poll(self):
        """am_poll: drain arrived packets, dispatching handlers (§1.1).

        Charges the paper's 1.3 us empty-poll cost plus 1.8 us per
        received message (§2.5).  Returns the number of messages handled.
        """
        if self._in_handler:
            raise HandlerRestrictionError("am_poll may not be called from a handler")
        # inlined node.compute(poll_empty): no generator frame per poll
        self.node.cpu_busy_us += self._poll_empty_delay.duration
        yield self._poll_empty_delay
        slots = self.adapter.recv_fifo.slots
        # a pending packet may have arrived: the drain settles it
        if ((slots and slots[0][0] <= self.sim.now) or self.adapter.pending
                or self._duties_pending()):
            return (yield from self._drain(self.sim.now))
        return 0  # an empty drain: skip its generator

    # ------------------------------------------------------------------
    # request / reply internals
    # ------------------------------------------------------------------

    def _peer(self, dst: int) -> _PeerState:
        st = self._peers.get(dst)
        if st is None:
            st = self._peers[dst] = _PeerState(self._rx_duty)
            if self.check is not None:
                self.check.adopt_peer(self, dst, st)
        return st

    def _note_occupancy(self, win: "SendWindow") -> None:
        """Sample sliding-window occupancy into the observability layer's
        histogram.  Callers test ``adapter.obs`` first."""
        h = self._occ_hist
        if h is None:
            h = self._occ_hist = self.adapter.obs.hist("am.window_occupancy")
        h.observe(win.in_flight)

    def _request(self, dst: int, handler: Callable, args: Tuple[int, ...]):
        node = self.node
        if dst == node.id:
            raise ValueError("AM requests must address a remote node")
        peer = self._peers.get(dst)  # inlined _peer fast path
        if peer is None:
            peer = self._peer(dst)
        win = peer.send[REQUEST_CHANNEL]
        adapter = self.adapter
        fifo = adapter.send_fifo
        # credit + FIFO space (can_send / host_can_stage, open-coded):
        # am_request services the network while blocked
        while (win.next_seq - win.base >= win.window
               or fifo.occupied >= fifo.entries):
            yield from self._wait_progress()
        hid = self.handlers.register(handler)
        pkt = Packet(src=node.id, dst=dst, kind=_REQUEST,
                     channel=REQUEST_CHANNEL, handler=hid, args=args)
        if adapter.obs is not None:
            adapter.obs.begin_message(pkt, self.sim.now)
        # build + flush the FIFO entry, then the length-array PIO
        # (inlined node.compute: one generator frame less per request)
        d = self._req_delays[len(args)]
        node.cpu_busy_us += d.duration
        yield d
        seq = self._stage_small(pkt, peer, win)
        d = self._save_retx_delay
        node.cpu_busy_us += d.duration
        yield d
        win.save(seq, [pkt])
        self._c_requests_sent.value += 1
        # "each call to am_request checks the network" (§1.1): poll(),
        # inlined; with nothing arrived and no duty owed its drain would
        # be a no-op, so the generator is not even created
        d = self._poll_empty_delay
        node.cpu_busy_us += d.duration
        yield d
        slots = adapter.recv_fifo.slots
        if ((slots and slots[0][0] <= self.sim.now) or adapter.pending
                or self._duties_pending()):
            yield from self._drain(self.sim.now)

    def _send_reply(self, dst: int, handler: Callable, args: Tuple[int, ...]):
        """Reply path — runs inside a handler."""
        t_begin = self.sim.now
        hid = self.handlers.register(handler)
        # inlined node.compute
        node = self.node
        d = self._rep_build_delays[len(args)]
        node.cpu_busy_us += d.duration
        yield d
        peer = self._peers.get(dst)  # inlined _peer fast path
        if peer is None:
            peer = self._peer(dst)
        win = peer.send[REPLY_CHANNEL]
        fifo = self.adapter.send_fifo
        if (win.next_seq - win.base >= win.window
                or fifo.occupied >= fifo.entries):
            # handlers cannot block: defer; a later poll sends it
            self._deferred_replies.append((dst, hid, args))
            self.stats.count("replies_deferred")
            return
        yield from self._emit_reply(dst, hid, args, t_begin)

    def _emit_reply(self, dst: int, hid: int, args: Tuple[int, ...],
                    t_begin: Optional[float] = None):
        peer = self._peers.get(dst)  # inlined _peer fast path
        if peer is None:
            peer = self._peer(dst)
        win = peer.send[REPLY_CHANNEL]
        node = self.node
        pkt = Packet(src=node.id, dst=dst, kind=_REPLY,
                     channel=REPLY_CHANNEL, handler=hid, args=args)
        obs = self.adapter.obs
        if obs is not None:
            # the reply's life starts when its handler began building it
            # (deferred replies: when the draining poll emits them)
            obs.begin_message(
                pkt, self.sim.now if t_begin is None else t_begin)
        # inlined node.compute (hot reply path)
        d = self._rep_emit_delays[len(args)]
        node.cpu_busy_us += d.duration
        yield d
        seq = self._stage_small(pkt, peer, win)
        d = self._save_retx_delay
        node.cpu_busy_us += d.duration
        yield d
        win.save(seq, [pkt])
        self._c_replies_sent.value += 1

    def _stage_small(self, pkt: Packet, peer: _PeerState,
                     win: SendWindow) -> int:
        """Sequence one single-packet message, piggyback both cumulative
        acks on it (§2.2) and stage + arm it; returns its sequence number.

        A plain function, not a generator: the send paths yield their
        charges around it, so it adds no frame to their resumes.
        ``win.allocate(1)`` and both ``ack_value()`` calls are open-coded.
        """
        seq = win.next_seq
        if seq - win.base >= win.window:
            raise RuntimeError(
                f"window overflow: {seq - win.base}+1 > {win.window}")
        win.next_seq = seq + 1
        if win.check is not None:
            win.check.on_allocate(win, seq, 1)
        adapter = self.adapter
        if adapter.obs is not None:
            self._note_occupancy(win)
        pkt.seq = seq
        r_req, r_rep = peer.recv
        r_req.unacked_count = 0
        pkt.ack_req = r_req.expected
        r_rep.unacked_count = 0
        pkt.ack_rep = r_rep.expected
        adapter.host_stage(pkt)
        adapter.host_arm()
        return seq

    def _stamp_acks(self, pkt: Packet, peer: _PeerState) -> None:
        """Piggyback cumulative acks for both channels (§2.2)."""
        pkt.ack_req = peer.recv[REQUEST_CHANNEL].ack_value()
        pkt.ack_rep = peer.recv[REPLY_CHANNEL].ack_value()

    # ------------------------------------------------------------------
    # bulk transfer internals
    # ------------------------------------------------------------------

    def _pump_send(self, op: BulkSendOp):
        """Transmit every chunk the pipeline and window currently allow."""
        peer = self._peer(op.dst)
        win = peer.send[op.channel]
        while op.sendable_now():
            npk = packets_in_chunk(op.chunks[op.next_chunk][1])
            if not win.can_send(npk):
                break
            idx, off, length = op.take_chunk()
            yield from self._send_chunk(op, peer, win, idx, off, length, npk)

    #: packets armed per length-array PIO during bulk transfers ("writing
    #: the lengths of several packets at a time", §2.1) — small enough
    #: that the wire starts while later packets are still being staged
    ARM_BATCH = 4

    def _send_chunk(self, op, peer, win, idx, off, length, npk):
        """Stage one chunk's packets, arming in ARM_BATCH sub-batches so
        injection overlaps transmission on the wire.

        The packets are built in one pass before the first yield, so both
        piggybacked acks are read once for the whole chunk (nothing can
        move them in between).  The staging charges are one charge
        stretch: each goes on the local clock ``tl`` in the order a chain
        of ``Delay`` yields would have added it, and the process yields
        (``Until(tl)``) only where another component can observe the
        instant — before each arm, which starts the adapter's TX service;
        before a FIFO-full backoff; and, under an Observatory, which
        numbers packets in staging order across nodes, before each
        staging.  A packet is staged at its own ``tl``, unseen by the
        adapter, which takes armed packets only.  Until the next arm only
        the adapter's takes move the send FIFO, so its occupancy now
        bounds the one at ``tl`` from above: "not full" now means not
        full then, and "full" now is re-checked at ``tl``.
        """
        seq = win.allocate(npk)
        if self.adapter.obs is not None:
            self._note_occupancy(win)
        channel = op.channel
        kind = _STORE_DATA if channel == REQUEST_CHANNEL else _GET_DATA
        ack_req = peer.recv[REQUEST_CHANNEL].ack_value()
        ack_rep = peer.recv[REPLY_CHANNEL].ack_value()
        src = self.node.id
        dst, data, handler, args = op.dst, op.data, op.handler, op.handler_args
        addr, token, total_len = op.remote_addr, op.token, len(data)
        end = off + length
        step = PACKET_PAYLOAD_BYTES
        packets = [
            Packet(src=src, dst=dst, kind=kind, seq=seq, ack_req=ack_req,
                   ack_rep=ack_rep, channel=channel, handler=handler,
                   args=args, payload=data[poff:min(poff + step, end)],
                   addr=addr, offset=poff, total_len=total_len,
                   chunk_packets=npk, op_token=token)
            for poff in range(off, end, step)
        ]
        staged = 0
        node = self.node
        adapter = self.adapter
        fifo = adapter.send_fifo
        obs = adapter.obs
        c_staged = adapter._c_tx_staged
        mc_pio = self.host.mc_pio
        arm_batch = self.ARM_BATCH
        stage_costs = self._stage_costs
        sim = self.sim
        tl = sim.now
        for p in packets:
            d = stage_costs[p.wire_bytes]
            node.cpu_busy_us += d
            tl += d
            if obs is not None or fifo.occupied >= fifo.entries:
                # sync: an Observatory numbers packets in staging order
                # across nodes; and on send-FIFO backpressure, wait from
                # tl for the adapter to drain one entry (it transmits
                # every ~6.5 us)
                yield Until(tl)
                while fifo.occupied >= fifo.entries:
                    yield _FIFO_BACKOFF
                tl = sim.now
            # adapter.host_stage(p), open-coded at the local clock
            fifo.stage(p)
            c_staged.value += 1
            if obs is not None:
                obs.packet_staged(p, tl)
            staged += 1
            if staged % arm_batch == 0:
                node.cpu_busy_us += mc_pio
                tl += mc_pio
                yield Until(tl)
                adapter.host_arm()
        if staged % arm_batch:
            node.cpu_busy_us += mc_pio
            tl += mc_pio
            yield Until(tl)
            adapter.host_arm()
        win.save(seq, packets)
        peer.pending_units[op.channel].append((seq + npk, op, idx))
        self.stats.count("chunks_sent")
        self.stats.count("bulk_packets_sent", npk)

    # ------------------------------------------------------------------
    # the poll loop
    # ------------------------------------------------------------------

    def _drain(self, tl: float):
        """Consume arrived packets + perform flow-control duties, from
        the local clock ``tl``: now, or now plus an empty-poll charge not
        yet yielded.

        Requests, replies and eager bulk data (STORE_DATA / GET_DATA, 36
        packets per chunk) are handled in this loop rather than in
        :meth:`_process`: a handler is driven and the copy charge yielded
        from this frame, so resuming after them crosses one nested
        generator fewer.  Only the rare completion handler, NACK and chunk
        ack drop into one.

        Consecutive data packets are one charge stretch: their poll and
        copy charges go on the local clock ``tl``, which stands for
        ``sim.now`` inside it, and a slot is visible when its stamp is at
        or before ``tl``.  The stretch syncs (``Until(tl)``) only where
        another component can observe the instant: before a lazy pop;
        before a chunk completion or a chunk ack; before applying
        piggybacked acks that advance a send window, which can complete an
        op and fire its event; on a ``duplicate`` or ``nack`` verdict;
        before a non-data packet; under an Observatory, before every
        consume; and when no slot is visible at ``tl``.  A packet settled
        after the stretch began joins the FIFO behind every slot already
        queued, so the stretch can miss one only when it sees nothing
        visible: it then syncs, settles what has arrived and looks again.
        The stretch relies on one process polling the endpoint.
        """
        handled = 0
        sim = self.sim
        node = self.node
        memory = node.memory
        adapter = self.adapter
        obs = adapter.obs
        fifo = adapter.recv_fifo
        slots = fifo.slots
        pkt_delay = self._poll_pkt_delay
        poll_us = pkt_delay.duration
        copy_costs = self._copy_costs
        peers = self._peers
        bulk_recv = self._bulk_recv
        while True:
            if not slots or slots[0][0] > tl:
                if tl != sim.now:
                    # nothing visible at the local clock: sync, look again
                    yield Until(tl)
                if not slots and adapter.pending:
                    adapter.settle(tl)
                if not slots or slots[0][0] > tl:
                    break
            if obs is None:
                pkt = fifo.consume()
            else:
                if tl != sim.now:
                    yield Until(tl)
                pkt = adapter.host_recv_consume()
            node.cpu_busy_us += poll_us
            kind = pkt.kind
            if kind is _STORE_DATA or kind is _GET_DATA:
                tl += poll_us
                src = pkt.src
                peer = peers.get(src)  # inlined _peer fast path
                if peer is None:
                    peer = self._peer(src)
                s_req, s_rep = peer.send
                synced = pkt.ack_req > s_req.base or pkt.ack_rep > s_rep.base
                if synced:
                    yield Until(tl)
                    self._apply_acks(pkt)
                rwin = peer.recv[pkt.channel]
                verdict = rwin.accept(pkt)[0]
                if verdict == "partial" or verdict == "deliver":
                    if verdict == "partial":
                        # feed the stalled-assembly watchdog (§2.2
                        # gap-less loss)
                        rwin.assembly_progress_t = tl
                    # copy payload out of the FIFO entry into the user
                    # buffer (inlined node.compute)
                    payload = pkt.payload
                    npay = len(payload)
                    d = copy_costs[npay]
                    node.cpu_busy_us += d
                    tl += d
                    memory.write(pkt.addr + pkt.offset, payload)
                    key = (src, pkt.op_token)
                    st = bulk_recv.get(key)
                    if st is None:
                        st = bulk_recv[key] = BulkRecvState(
                            src=src, token=pkt.op_token, addr=pkt.addr,
                            total_len=pkt.total_len, handler=pkt.handler,
                            handler_args=pkt.args)
                    if st.add(npay):
                        yield Until(tl)
                        yield from self._bulk_complete(pkt, key, st)
                        tl = sim.now
                    if verdict == "deliver":
                        if tl != sim.now:
                            yield Until(tl)
                        # one explicit acknowledgement per chunk (§2.2)
                        yield from self._send_ack(src)
                        self.stats.count("chunk_acks_sent")
                        tl = sim.now
                else:
                    if not synced:
                        yield Until(tl)
                    if verdict == "duplicate":
                        if rwin._assembly is not None:
                            # duplicates count as watchdog progress too:
                            # they mean the sender's go-back-N burst is in
                            # flight, so NACKing again would only trigger
                            # another redundant full-window retransmission
                            rwin.assembly_progress_t = tl
                        self.stats.count("duplicates_dropped")
                    else:
                        yield from self._send_nack(src, rwin)
                        tl = sim.now
            elif kind is _REQUEST or kind is _REPLY:
                if tl != sim.now:
                    yield Until(tl)
                yield pkt_delay
                self._apply_acks(pkt)
                src = pkt.src
                peer = peers.get(src)  # inlined _peer fast path
                if peer is None:
                    peer = self._peer(src)
                rwin = peer.recv[pkt.channel]
                verdict = rwin.accept(pkt)[0]
                if verdict == "deliver":
                    fn = self.handlers.lookup(pkt.handler)
                    token = ReplyToken(self, src)
                    t0 = sim.now
                    if obs is not None:
                        obs.mark_packet(pkt, "handler_start", t0)
                    self._in_handler = True
                    try:
                        result = fn(token, *pkt.args)
                        if type(result) is GeneratorType:
                            yield from result
                    finally:
                        self._in_handler = False
                    if obs is not None:
                        obs.mark_packet(pkt, "handler_end", sim.now)
                        h = self._handler_hist
                        if h is None:
                            h = self._handler_hist = obs.hist(
                                "am.handler_us")
                        h.observe(sim.now - t0)
                    self._c_handlers_run.value += 1
                elif verdict == "duplicate":
                    self.stats.count("duplicates_dropped")
                elif verdict == "nack":
                    yield from self._send_nack(src, rwin)
                tl = sim.now
            else:
                if tl != sim.now:
                    yield Until(tl)
                yield pkt_delay
                yield from self._process(pkt)
                tl = sim.now
            handled += 1
            if fifo.pending_pop >= fifo.lazy_pop_batch:  # should_pop()
                # lazy pop: flush the consumed entries + one PIO (§2.1)
                d = self._pop_delays[fifo.pending_pop].duration
                node.cpu_busy_us += d  # inlined node.compute
                tl += d
                yield Until(tl)
                adapter.host_recv_pop_batch()
        if self._duties_pending():
            yield from self._do_duties()
        return handled

    def _process(self, pkt: Packet):
        """Every kind :meth:`_drain` does not handle inline."""
        self._apply_acks(pkt)
        kind = pkt.kind
        if kind is _GET_REQUEST:
            yield from self._process_get_request(pkt)
        elif kind is _ACK:
            pass  # carried only its ack fields, already applied
        elif kind is _NACK:
            yield from self._process_nack(pkt)
        elif kind is _KEEPALIVE:
            yield from self._process_keepalive(pkt)
        else:  # RAW: repro.am.raw reads those off the adapter itself
            raise AssertionError(f"unhandled packet kind {kind.name}")

    def _apply_acks(self, pkt: Packet):
        # unrolled over the two channels: this runs for every packet
        ack_req = pkt.ack_req
        ack_rep = pkt.ack_rep
        if ack_req < 0 and ack_rep < 0:
            return
        peer = self._peers.get(pkt.src)  # inlined _peer fast path
        if peer is None:
            peer = self._peer(pkt.src)
        if ack_req >= 0:
            win = peer.send[REQUEST_CHANNEL]
            if ack_req > win.base:
                win.on_ack(ack_req)
                self._keepalive_backoff = 1.0
                self._complete_units(peer, REQUEST_CHANNEL, ack_req)
        if ack_rep >= 0:
            win = peer.send[REPLY_CHANNEL]
            if ack_rep > win.base:
                win.on_ack(ack_rep)
                self._keepalive_backoff = 1.0
                self._complete_units(peer, REPLY_CHANNEL, ack_rep)

    def _complete_units(self, peer: _PeerState, channel: int, ack: int):
        pending = peer.pending_units[channel]
        while pending and pending[0][0] <= ack:
            _end, op, _idx = pending.pop(0)
            if op.on_chunk_acked():
                self._finish_send_op(op)
            self._sendable_ops_dirty = True

    def _finish_send_op(self, op: BulkSendOp):
        if op in self._active_sends:
            self._active_sends.remove(op)
        # every chunk is acked and retransmission works from the saved
        # packets: free the payload copy now, not when the cyclic GC finds
        # the op <-> done cycle
        op.data = None
        op.done.succeed(op)
        if op.completion_fn is not None:
            op.completion_fn(op)
        self.stats.count("bulk_ops_completed")

    def _bulk_complete(self, pkt: Packet, key: Tuple[int, int],
                       st: BulkRecvState):
        """The last byte of an incoming transfer landed (``pkt`` carried
        it): wake a blocked get and run the completion handler."""
        del self._bulk_recv[key]
        if pkt.kind is _GET_DATA:
            waiter = self._get_waiters.pop(key, None)
            if waiter is not None:
                waiter.succeed(st)
        if st.handler >= 0:
            fn = self.handlers.lookup(st.handler)
            obs = self.adapter.obs
            t0 = self.sim.now
            if obs is not None:
                obs.mark_packet(pkt, "handler_start", t0)
            yield from self._run_handler(fn, st.src, st.addr, st.total_len,
                                         *st.handler_args)
            if obs is not None:
                obs.mark_packet(pkt, "handler_end", self.sim.now)
                h = self._handler_hist
                if h is None:
                    h = self._handler_hist = obs.hist("am.handler_us")
                h.observe(self.sim.now - t0)
        self.stats.count("bulk_recv_completed")

    def _process_get_request(self, pkt: Packet):
        peer = self._peer(pkt.src)
        rwin = peer.recv[pkt.channel]
        verdict, _ = rwin.accept(pkt)
        if verdict == "duplicate":
            self.stats.count("duplicates_dropped")
            return
        if verdict == "nack":
            yield from self._send_nack(pkt.src, rwin)
            return
        yield from self.node.compute(self.costs.get_serve)
        remote_addr = pkt.args[0]
        data = self.node.memory.read(remote_addr, pkt.total_len)
        done = self.sim.event(f"am[{self.node.id}].get_serve")
        op = BulkSendOp(pkt.op_token, pkt.src, REPLY_CHANNEL, data,
                        pkt.addr, pkt.handler, (pkt.args[1],), done)
        self._active_sends.append(op)
        self.stats.count("gets_served")
        yield from self._pump_send(op)

    # ------------------------------------------------------------------
    # flow control: acks, nacks, keepalive, retransmission
    # ------------------------------------------------------------------

    def _send_control(self, dst: int, kind: PacketKind):
        c = self.costs
        peer = self._peer(dst)
        while not self.adapter.host_can_stage():
            yield Delay(2.0)
        pkt = Packet(src=self.node.id, dst=dst, kind=kind)
        self._stamp_acks(pkt, peer)
        yield from self.node.compute(
            c.ack_send + flush_cost(pkt.wire_bytes, self.host) + self.host.mc_pio
        )
        self.adapter.host_stage(pkt)
        self.adapter.host_arm()

    def _send_ack(self, dst: int):
        yield from self._send_control(dst, PacketKind.ACK)
        self.stats.count("explicit_acks_sent")

    def _send_nack(self, dst: int, rwin: RecvWindow):
        if rwin.nack_outstanding:
            self.stats.count("nacks_suppressed")
            return
        rwin.nack_outstanding = True
        yield from self._send_control(dst, PacketKind.NACK)
        self.stats.count("nacks_sent")

    def _process_nack(self, pkt: Packet):
        """Go-back-N: retransmit saved packets the peer reports missing.

        Fresh clones go on the wire: the saved packets are the earlier
        transmissions themselves (maybe still held in flight, pending at
        the receiving adapter or in its receive FIFO) and must never be
        aliased by a packet whose ack fields are being re-stamped.
        """
        yield from self.node.compute(self.costs.nack_process)
        peer = self._peer(pkt.src)
        resent = 0
        for channel, ack in ((REQUEST_CHANNEL, pkt.ack_req),
                             (REPLY_CHANNEL, pkt.ack_rep)):
            if ack < 0:
                continue
            for old in peer.send[channel].unacked_from(ack):
                while not self.adapter.host_can_stage():
                    if self.adapter.send_fifo.staged_count:
                        # the FIFO may hold our own staged-but-unarmed
                        # retransmissions: arm them before waiting, not at
                        # the burst's next ARM_BATCH arm (a FIFO holds at
                        # least ARM_BATCH entries, so a full one always
                        # holds an armed packet and this loop ends)
                        yield from self.node.compute(self.host.mc_pio)
                        self.adapter.host_arm()
                    yield Delay(2.0)
                rt = old.clone()
                self._stamp_acks(rt, peer)
                yield from self.node.compute(
                    self.costs.store_per_packet
                    + flush_cost(rt.wire_bytes, self.host)
                )
                self.adapter.host_stage(rt)
                resent += 1
                if resent % self.ARM_BATCH == 0:
                    yield from self.node.compute(self.host.mc_pio)
                    self.adapter.host_arm()
        if resent:
            yield from self.node.compute(self.host.mc_pio)
            self.adapter.host_arm()
            self.stats.count("retransmissions", resent)

    def _process_keepalive(self, pkt: Packet):
        """§2.2: a keep-alive probe forces NACKs back to the initiator so
        any lost tail packets are retransmitted."""
        peer = self._peer(pkt.src)
        # answer with the current expected values; do not rate-limit —
        # the probe explicitly asks for state
        for ch in (REQUEST_CHANNEL, REPLY_CHANNEL):
            peer.recv[ch].nack_outstanding = False
        yield from self._send_control(pkt.src, PacketKind.NACK)
        self.stats.count("keepalive_nacks_sent")

    def _duties_pending(self) -> bool:
        """Whether :meth:`_do_duties` could possibly do any work.

        Conservative (may return True when the generator then does
        nothing — e.g. a partial assembly that has not stalled yet), but
        never False when work exists: every branch of ``_do_duties`` is
        covered.  Lets the poll loop skip two generator frames per drain
        in the common nothing-to-do case.
        """
        if self._deferred_replies or self._sendable_ops_dirty:
            return True
        if self._rx_duty:
            return True  # an explicit ack or an assembly stall check
        return False

    def _do_duties(self):
        """End-of-poll flow-control work: deferred replies, quarter-window
        explicit acks, stalled-assembly NACKs, and newly-unblocked bulk
        chunks."""
        while self._deferred_replies:
            dst, hid, args = self._deferred_replies[0]
            win = self._peer(dst).send[REPLY_CHANNEL]
            if not (win.can_send(1) and self.adapter.host_can_stage()):
                break
            self._deferred_replies.popleft()
            yield from self._emit_reply(dst, hid, args)
        for dst, peer in self._peers.items():
            # open-coded explicit_ack_due, once per channel (hot loop)
            r_req, r_rep = peer.recv
            if r_req.unacked_count >= r_req.ack_threshold:
                yield from self._send_ack(dst)
            if r_rep.unacked_count >= r_rep.ack_threshold:
                yield from self._send_ack(dst)
        yield from self._check_stalled_assemblies()
        if self._sendable_ops_dirty:
            self._sendable_ops_dirty = False
            for op in list(self._active_sends):
                if op.sendable_now():
                    yield from self._pump_send(op)
        for rwin in list(self._rx_duty):
            if (rwin.unacked_count < rwin.ack_threshold
                    and rwin._assembly is None):
                self._rx_duty.discard(rwin)

    def _check_stalled_assemblies(self):
        """Receiver-side recovery for gap-less mid-chunk losses (§2.2).

        Every packet of a chunk carries the chunk's base sequence number,
        so a loss *inside* a chunk produces no out-of-sequence arrival and
        the normal NACK path never fires; without this watchdog the chunk
        waits for the sender's keep-alive probe and its exponential
        backoff.  A partial assembly with no arrivals for
        ``assembly_stall_timeout`` sends a NACK carrying the expected
        values (our cumulative acks), triggering go-back-N from the
        chunk's base.  The check re-arms at the same interval, so a lost
        stall-NACK still gives bounded recovery time.
        """
        threshold = self.costs.assembly_stall_timeout
        for dst, peer in self._peers.items():
            for rwin in peer.recv:
                # open-coded has_partial_assembly (hot loop)
                if (rwin._assembly is None
                        or rwin.assembly_progress_t is None):
                    continue
                now = self.sim.now
                if (now - rwin.assembly_progress_t >= threshold
                        and now - rwin.stall_nack_t >= threshold):
                    rwin.stall_nack_t = now
                    rwin.nack_outstanding = True
                    yield from self._send_control(dst, PacketKind.NACK)
                    self.stats.count("stall_nacks_sent")

    def _stall_wait_cap(self) -> Optional[float]:
        """How long _wait_progress may sleep before the stalled-assembly
        watchdog must run again."""
        for rwin in self._rx_duty:
            if rwin._assembly is not None:
                return self.costs.assembly_stall_timeout
        return None

    def drained(self) -> bool:
        """Is nothing on this endpoint awaiting recovery or service?

        Node-local: no active sends or deferred replies; the send FIFO
        empty; no receive-FIFO slot queued (visible, mid-DMA or arrived);
        and per peer, no unacked send window and no partial chunk assembly.
        Traffic still in the fabric is not visible here; a quiesce loop
        sees it as a packet arrival.
        """
        if self._active_sends or self._deferred_replies:
            return False
        adapter = self.adapter
        if adapter.send_fifo.occupied > 0:
            return False
        if adapter.pending:
            adapter.settle(self.sim.now)
        if adapter.recv_fifo.slots:
            return False  # a packet is visible or mid-RX-DMA
        # open-coded window-field reads (vs the has_unacked /
        # has_partial_assembly properties): this runs on every idle wake
        for peer in self._peers.values():
            s_req, s_rep = peer.send
            if s_req._saved or s_rep._saved:
                return False
            r_req, r_rep = peer.recv
            if r_req._assembly is not None or r_rep._assembly is not None:
                return False
        return True

    def _send_keepalives(self):
        sent = 0
        for dst, peer in self._peers.items():
            if any(w.has_unacked for w in peer.send):
                yield from self._send_control(dst, PacketKind.KEEPALIVE)
                sent += 1
        self.stats.count("keepalives_sent", sent)

    def _wait_progress(self):
        """Blocked on credit / acks / completion: service the network; if
        idle, sleep until the next landing (equivalent in simulated time
        to the paper's poll spinning) with a keep-alive timeout.

        The sleep ends at the first stamp after now, by the arrival
        event: with a packet already settled into a slot, its ``_land``
        is queued now, in the packet's place in the event order, and when
        that landing comes before the keep-alive no timer is queued at
        all.  With only a pending packet ahead, a ``_land`` at its arrival
        settles it there, and the sleeper keeps the timer: the packet may
        still be dropped at a full FIFO.

        The wake is an event, not an ``Until``, because a host resumed at
        the stamp would take its place among same-instant ties from when
        it fell asleep, not from when the packet landed: in Split-C's
        symmetric programs two hosts then trade places at a shared
        destination link (Table 5 moved).
        """
        adapter = self.adapter
        rf = adapter.recv_fifo
        slots = rf.slots
        node = self.node
        sim = self.sim
        d = self._poll_empty_delay
        if not slots and adapter.pending:
            adapter.settle(sim.now)
        if not slots or slots[0][0] > sim.now:
            if rf.pending_pop > 0:
                # going idle: return consumed receive-FIFO slots to the
                # adapter even below the lazy-pop batch, so a near-full
                # FIFO can't keep dropping the very retransmissions that
                # would drain it (inlined node.compute: on a bulk stream
                # this runs about once per three packets received)
                p = self._pop_delays[rf.pending_pop]
                node.cpu_busy_us += p.duration
                yield p
                adapter.host_recv_pop_batch()
                c = self._c_idle_pop_flushes
                if c is None:
                    c = self._c_idle_pop_flushes = self.stats.counter(
                        "idle_pop_flushes")
                c.value += 1
            timeout = self.costs.keepalive_idle * self._keepalive_backoff
            stall_cap = self._stall_wait_cap()
            if stall_cap is not None:
                # a chunk is mid-reassembly: wake early enough for the
                # stalled-assembly watchdog regardless of backoff
                timeout = min(timeout, stall_cap)
            # inlined adapter.arrival_event(): the event fires at the
            # first stamp after now.  A slot that became visible during
            # the idle pop above is left for a later landing to find:
            # that oversleep is recorded in ROADMAP item 23
            ev = adapter._arrival_event
            if ev is None or ev._ok:
                ev = adapter._arrival_event = Event(
                    sim, adapter._arrival_event_name)
            now = sim.now
            land = None
            for slot in slots:
                if slot[0] > now:
                    land = slot[0]
                    if not adapter._landing:
                        adapter._land_at(slot)
                    break
            else:
                if adapter.pending:
                    adapter._arm(now)
            if land is not None and land <= now + timeout:
                # the landing comes first (at a tie too: the keep-alive
                # timer would be queued after it), so no timer
                wait = self._idle_block
                wait.event = ev
                yield wait
            else:
                # one Timeout per endpoint, re-aimed per wait: the
                # process reads both fields as it blocks and keeps no
                # reference
                wait = self._idle_wait
                wait.event = ev
                wait.duration = timeout
                res = yield wait
                if res is TIMED_OUT:
                    yield from self._send_keepalives()
                    self._keepalive_backoff = min(
                        self._keepalive_backoff * 2, 64.0)
        # inlined poll() (blocked software never runs inside a handler)
        node.cpu_busy_us += d.duration
        if not slots and adapter.pending:
            adapter.settle(sim.now)
        if slots:
            head = slots[0]
            if head[0] <= sim.now:
                kind = head[2].kind
                if kind is _STORE_DATA or kind is _GET_DATA:
                    # bulk data, which a charge stretch takes without a
                    # sync: the empty-poll charge opens the drain's
                    # stretch
                    yield from self._drain(sim.now + d.duration)
                else:
                    yield d
                    yield from self._drain(sim.now)
                return
        yield d
        # re-check visibility after the yield (arrivals may have landed,
        # or be pending); an idle spin with no packets and no duties skips
        # the _drain generator entirely — it would be a pure no-op
        if ((slots and slots[0][0] <= sim.now) or adapter.pending
                or self._duties_pending()):
            yield from self._drain(sim.now)
