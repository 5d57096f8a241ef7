"""The abstract device interface: MPICH's machine layer over SP AM (§4).

One :class:`ADI` per node owns:

* the per-peer receive regions (16 KB each) and the sender-side
  allocators of the *remote* regions,
* the posted-receive queue and the unexpected-message list,
* the rendez-vous machinery — including the AM-rule-imposed deferral:
  "the handler for the receive buffer address message is not allowed to
  do the actual data transfer...  Instead, it places the information in a
  list, and the store is performed by ... any MPI communication function
  that explicitly polls the network" (§4.1),
* the free-reply plumbing, combined or per-message (§4.2),
* the hybrid prefix path (§4.2).

All handlers are module-level so their ids agree across nodes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.hardware.cache import copy_cost
from repro.mpi.allocator import BinnedAllocator, FirstFitAllocator
from repro.mpi.config import MPIConfig
from repro.mpi.protocol import (
    KIND_EAGER,
    KIND_PREFIX,
    pack_free,
    pack_rts_len,
    unpack_free,
    unpack_rts_len,
)
from repro.mpi.request import Request
from repro.mpi.status import matches
from repro.sim.stats import StatRegistry


# ---------------------------------------------------------------------------
# module-level AM handlers
# ---------------------------------------------------------------------------

def _adi(token) -> "ADI":
    return token.am.node.mpi.adi


def _h_eager_arrived(token, addr, nbytes, tag, context, op_token, kind):
    """Store-completion handler for a buffered-protocol message.

    The MPI envelope travels in the store's handler arguments, so the
    data is stored straight from the user buffer into the region — no
    staging copy and no envelope bytes on the wire (§4.1).
    """
    adi = _adi(token)
    yield from adi._on_eager(token, token.src, addr, nbytes,
                             tag, context, op_token, kind)


def _h_eager0(token, tag, context, op_token):
    """Zero-byte eager message (am_store cannot carry empty transfers)."""
    adi = _adi(token)
    yield from adi._on_eager(token, token.src, None, 0,
                             tag, context, op_token, KIND_EAGER)


def _h_free(token, *words):
    """Frees for my region at the peer (packed offset/len words)."""
    adi = _adi(token)
    adi._on_frees(token.src, words)


def _h_rts(token, tag, context, len_word, op_token):
    """Rendez-vous request-to-send (len_word packs total + prefix length)."""
    adi = _adi(token)
    total_len, prefix_len = unpack_rts_len(len_word)
    yield from adi._on_rts(token, token.src, tag, context, total_len,
                           prefix_len, op_token)


def _h_rv_addr(token, op_token, addr):
    """Receive-buffer address arriving at the sender (reply or request)."""
    adi = _adi(token)
    adi._on_rv_addr(token.src, op_token, addr)


def _h_rdvz_done(token, addr, nbytes, op_token):
    """Completion of the rendez-vous data store, at the receiver."""
    adi = _adi(token)
    yield from adi._on_rdvz_done(token.src, op_token)


_HANDLERS = (_h_eager_arrived, _h_eager0, _h_free, _h_rts, _h_rv_addr,
             _h_rdvz_done)


class _UnexpectedEager:
    __slots__ = ("src", "tag", "context", "total_len", "region_offset",
                 "prefix_token")

    def __init__(self, src, tag, context, total_len, region_offset,
                 prefix_token=None):
        self.src = src
        self.tag = tag
        self.context = context
        self.total_len = total_len
        self.region_offset = region_offset
        self.prefix_token = prefix_token


class _UnexpectedRts:
    __slots__ = ("src", "tag", "context", "total_len", "prefix_len",
                 "op_token")

    def __init__(self, src, tag, context, total_len, prefix_len, op_token):
        self.src = src
        self.tag = tag
        self.context = context
        self.total_len = total_len
        self.prefix_len = prefix_len
        self.op_token = op_token


class _SendState:
    """Sender-side state of one rendez-vous transfer."""

    __slots__ = ("dst", "data_addr", "total_len", "prefix_len", "request",
                 "remote_addr", "store_issued")

    def __init__(self, dst, data_addr, total_len, prefix_len, request):
        self.dst = dst
        self.data_addr = data_addr
        self.total_len = total_len
        self.prefix_len = prefix_len
        self.request = request
        self.remote_addr: Optional[int] = None
        self.store_issued = False


class _RecvState:
    """Receiver-side state of one in-progress rendez-vous."""

    __slots__ = ("request", "src", "need_prefix", "main_done")

    def __init__(self, request, src, need_prefix=0, main_done=False):
        self.request = request
        self.src = src
        #: bytes of hybrid prefix still expected (0 = none/already placed)
        self.need_prefix = need_prefix
        self.main_done = main_done


class ADI:
    """MPICH abstract device interface over Active Messages, one per node."""

    def __init__(self, node, nprocs: int, config: MPIConfig,
                 region_addrs: Dict[Tuple[int, int], int]):
        """``region_addrs[(receiver, sender)]`` is the base address, in the
        receiver's memory, of the region dedicated to that sender (the
        startup address exchange)."""
        self.node = node
        self.am = node.am
        self.rank = node.id
        self.nprocs = nprocs
        self.cfg = config
        self.stats = StatRegistry(f"adi[{node.id}].")
        self.region_addrs = region_addrs
        # sender-side allocators for MY region at each peer
        self._alloc: Dict[int, object] = {}
        for peer in range(nprocs):
            if peer == self.rank:
                continue
            if config.binned_allocator:
                self._alloc[peer] = BinnedAllocator(
                    config.buffer_per_peer, config.bin_size, config.bin_count)
            else:
                self._alloc[peer] = FirstFitAllocator(config.buffer_per_peer)
        self.posted: List[Request] = []
        self.unexpected: Deque[object] = deque()
        #: frees I owe each sender (offset, len) of their region here
        self._frees_owed: Dict[int, List[Tuple[int, int]]] = {}
        #: rendez-vous state
        self._send_states: Dict[int, _SendState] = {}
        self._recv_states: Dict[Tuple[int, int], _RecvState] = {}
        #: hybrid prefixes that arrived before their rts matched a recv,
        #: keyed (src, op_token) -> (region_offset, length)
        self._prefixes: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._next_token = 1
        #: scratch staging area for sends given as bytes
        self._scratch = node.memory
        #: request-lifecycle checker (repro.check), None when unchecked
        self.check = None
        for h in _HANDLERS:
            self.am.register(h)

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------

    def start_send(self, dst_world: int, data_addr: int, nbytes: int,
                   tag: int, context: int, request: Request):
        """Begin a send; the request completes via progress()."""
        if dst_world == self.rank:
            raise ValueError("self-sends go through the loopback in mpi.py")
        yield from self.node.compute(self.cfg.send_fixed)
        if nbytes <= self.cfg.eager_max:
            yield from self._send_buffered(dst_world, data_addr, nbytes,
                                           tag, context, request)
        else:
            yield from self._send_rendezvous(dst_world, data_addr, nbytes,
                                             tag, context, request)

    def _alloc_remote(self, dst: int, nbytes: int):
        """Allocate in my region at dst, charging the walk cost."""
        alloc = self._alloc[dst]
        cost = (self.cfg.binned_cost
                if self.cfg.binned_allocator and nbytes <= self.cfg.bin_size
                else self.cfg.first_fit_cost
                + 0.15 * getattr(alloc, "walk_length", 1))
        yield from self.node.compute(cost)
        off = alloc.alloc(nbytes)
        return off

    def _send_buffered(self, dst, data_addr, nbytes, tag, context, request):
        token = self._take_token()
        if nbytes == 0:
            yield from self.am.request_3(dst, _h_eager0, tag, context, token)
            request.complete()
            self.stats.count("eager_sends")
            return
        off = yield from self._alloc_remote(dst, nbytes)
        attempts = 0
        while off is None and attempts < 4:
            # receiver's region exhausted: give frees a chance to arrive
            self.stats.count("eager_stalls")
            yield from self._wait_progress()
            off = yield from self._alloc_remote(dst, nbytes)
            attempts += 1
        if off is None:
            # Progress guarantee: the receiver may be sitting on our
            # region's space as unconsumed unexpected messages while it
            # waits for THIS message — spinning here would deadlock.
            # Like the hybrid prefix ("if no buffer space can be
            # allocated ... simply reverts to a regular rendez-vous
            # protocol"), fall back to rendez-vous, which needs no space.
            self.stats.count("eager_fallback_rendezvous")
            yield from self._send_rendezvous(dst, data_addr, nbytes,
                                             tag, context, request)
            return
        remote = self.region_addrs[(dst, self.rank)] + off
        # the envelope rides in the handler args; the store reads the
        # user buffer directly — zero staging copies (§4.1)
        yield from self.am.store_async(
            dst, data_addr, remote, nbytes, handler=_h_eager_arrived,
            arg=(tag, context, token, KIND_EAGER),
            completion_fn=lambda _op: request.complete())
        # eager sends complete when the store is acknowledged
        self.stats.count("eager_sends")

    def _send_rendezvous(self, dst, data_addr, nbytes, tag, context, request):
        token = self._take_token()
        prefix_len = 0
        prefix_off = None
        if self.cfg.hybrid:
            # §4.2: ship a prefix into the buffered region while waiting
            # for the rendez-vous reply; fall back silently if no space
            want = min(self.cfg.prefix_bytes, nbytes)
            prefix_off = yield from self._alloc_remote(dst, want)
            if prefix_off is not None:
                prefix_len = want
        st = _SendState(dst, data_addr, nbytes, prefix_len, request)
        self._send_states[token] = st
        # the rts goes first — it is one packet and must not queue behind
        # the prefix data on the (ordered) request channel
        yield from self.am.request_4(dst, _h_rts, tag, context,
                                     pack_rts_len(nbytes, prefix_len), token)
        if prefix_len:
            remote = self.region_addrs[(dst, self.rank)] + prefix_off
            yield from self.am.store_async(
                dst, data_addr, remote, prefix_len,
                handler=_h_eager_arrived,
                arg=(tag, context, token, KIND_PREFIX))
            self.stats.count("hybrid_prefixes")
        self.stats.count("rendezvous_sends")

    def _take_token(self) -> int:
        t = self._next_token
        self._next_token += 1
        return t

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def post_recv(self, request: Request):
        """Post a receive; match unexpected traffic first."""
        yield from self.node.compute(self.cfg.recv_fixed)
        ck = self.check
        if ck is not None:
            ck.on_posted(request)
        hit = self._match_unexpected(request)
        if hit is None:
            self.posted.append(request)
            return
        if ck is not None:
            ck.on_matched(request)
        if isinstance(hit, _UnexpectedEager):
            yield from self._consume_eager(hit, request)
        else:
            yield from self._accept_rts(hit, request, in_handler=False)

    def _match_unexpected(self, request: Request):
        for i, entry in enumerate(self.unexpected):
            if entry.context == request.comm.context and matches(
                    request.peer, request.tag, entry.src, entry.tag):
                del self.unexpected[i]
                return entry
        return None

    def _find_posted(self, src: int, tag: int, context: int):
        for i, req in enumerate(self.posted):
            if req.comm.context == context and matches(
                    req.peer, req.tag, src, tag):
                req = self.posted.pop(i)
                if self.check is not None:
                    self.check.on_matched(req)
                return req
        return None

    # -- buffered arrivals ---------------------------------------------------

    def _on_eager(self, token, src, addr, nbytes,
                  tag, context, op_token, kind):
        """A store into my region from ``src`` completed (eager or prefix)."""
        total_len = nbytes
        if addr is not None:
            region_base = self.region_addrs[(self.rank, src)]
            region_offset = addr - region_base
        else:
            region_offset = None  # zero-byte message: nothing to free
        if kind == KIND_PREFIX:
            yield from self._on_prefix(token, src, region_offset,
                                       nbytes, op_token)
            return
        req = self._find_posted(src, tag, context)
        if req is None:
            yield from self.node.compute(self.cfg.unexpected_cost)
            self.unexpected.append(_UnexpectedEager(
                src, tag, context, total_len, region_offset))
            self.stats.count("eager_unexpected")
            return
        data = (self.node.memory.read(addr, total_len)
                if total_len else b"")
        yield from self.node.compute(copy_cost(total_len, self.node.host)
                                     + self.cfg.completion_cost)
        self._place(req, data, src, tag)
        req.complete(data, source=src, tag=tag)
        self.stats.count("eager_matched")
        if region_offset is not None:
            yield from self._reply_frees(token, src,
                                         (region_offset, total_len))

    def _reply_frees(self, token, src, new_free):
        """Free buffer space via the store reply, combining if configured."""
        owed = self._frees_owed.setdefault(src, [])
        owed.append(new_free)
        if self.cfg.combined_frees and not self._frees_due(src):
            return  # batch until a combined reply is worthwhile (§4.2)
        words = [pack_free(o, l) for o, l in owed[: self.cfg.frees_per_reply]]
        del owed[: len(words)]
        reply = getattr(token, f"reply_{len(words)}")
        yield from reply(_h_free, *words)
        self.stats.count("free_replies")

    def _on_frees(self, src, words):
        for w in words:
            if w == 0:
                continue
            off, length = unpack_free(w)
            self._alloc[src].free(off, length)
            self.stats.count("frees_received")

    def _consume_eager(self, entry: _UnexpectedEager, request: Request):
        """A posted receive matched a queued unexpected eager message."""
        data = b""
        if entry.total_len:
            base = (self.region_addrs[(self.rank, entry.src)]
                    + entry.region_offset)
            data = self.node.memory.read(base, entry.total_len)
        yield from self.node.compute(copy_cost(entry.total_len, self.node.host)
                                     + self.cfg.completion_cost)
        self._place(request, data, entry.src, entry.tag)
        request.complete(data, source=entry.src, tag=entry.tag)
        # queue the free; it goes back batched (reply piggyback or an
        # explicit free request under pressure)
        if entry.region_offset is not None:
            self._frees_owed.setdefault(entry.src, []).append(
                (entry.region_offset, entry.total_len))
            yield from self._flush_due_frees(entry.src)

    def _frees_due(self, peer: int) -> bool:
        """Frees are flushed when enough have batched up — or when the
        bytes held would let the sender's region run dry (without this,
        a sender stalled on allocation and a receiver batting frees by
        count would deadlock)."""
        owed = self._frees_owed.get(peer, [])
        if not owed:
            return False
        if not self.cfg.combined_frees:
            return True
        if len(owed) >= self.cfg.frees_per_reply:
            return True
        return (sum(l for _o, l in owed)
                >= self.cfg.buffer_per_peer // 4)

    def _flush_due_frees(self, peer: int):
        while self._frees_due(peer):
            owed = self._frees_owed[peer]
            words = [pack_free(o, l) for o, l in owed[:4]]
            del owed[:4]
            req = getattr(self.am, f"request_{len(words)}")
            yield from req(peer, _h_free, *words)
            self.stats.count("free_requests")

    # -- rendez-vous --------------------------------------------------------

    def _on_prefix(self, token, src, region_offset, length, op_token):
        """A hybrid prefix landed (always after its rts, in-order).

        If the rts already matched a posted receive, copy the prefix into
        place now; otherwise stash it for the eventual match."""
        self.stats.count("prefixes_received")
        rs = self._recv_states.get((src, op_token))
        if rs is None:
            self._prefixes[(src, op_token)] = (region_offset, length)
            return
        yield from self._place_prefix(rs, src, region_offset, length)
        yield from self._maybe_finish_recv(src, op_token)

    def _on_rts(self, token, src, tag, context, total_len, prefix_len,
                op_token):
        req = self._find_posted(src, tag, context)
        if req is None:
            yield from self.node.compute(self.cfg.unexpected_cost)
            self.unexpected.append(_UnexpectedRts(
                src, tag, context, total_len, prefix_len, op_token))
            self.stats.count("rts_unexpected")
            return
        yield from self._accept_rts(
            _UnexpectedRts(src, tag, context, total_len, prefix_len,
                           op_token),
            req, in_handler=True, token=token)

    def _accept_rts(self, entry: _UnexpectedRts, request: Request,
                    in_handler: bool, token=None):
        """Provide the receive address to the sender; handle the prefix."""
        if request.recv_addr is None:
            request.recv_addr = self.node.memory.alloc(entry.total_len)
        request.nbytes = entry.total_len
        key = (entry.src, entry.op_token)
        rs = _RecvState(request, entry.src, need_prefix=entry.prefix_len)
        self._recv_states[key] = rs
        stashed = self._prefixes.pop(key, None)
        if stashed is not None:
            # unposted-receive case: the prefix landed before this match
            yield from self._place_prefix(rs, entry.src, *stashed)
        if entry.total_len == entry.prefix_len:
            rs.main_done = True  # nothing left for the sender to store
            yield from self._maybe_finish_recv(entry.src, entry.op_token)
        if in_handler:
            yield from token.reply_2(_h_rv_addr, entry.op_token,
                                     request.recv_addr + entry.prefix_len)
        else:
            yield from self.am.request_2(entry.src, _h_rv_addr,
                                         entry.op_token,
                                         request.recv_addr + entry.prefix_len)

    def _place_prefix(self, rs: _RecvState, src, region_offset, plen):
        base = self.region_addrs[(self.rank, src)] + region_offset
        data = self.node.memory.read(base, plen)
        self.node.memory.write(rs.request.recv_addr, data)
        yield from self.node.compute(copy_cost(plen, self.node.host))
        self._frees_owed.setdefault(src, []).append((region_offset, plen))
        rs.need_prefix = 0

    def _on_rv_addr(self, src, op_token, addr):
        st = self._send_states.get(op_token)
        if st is None:
            raise AssertionError(f"rv_addr for unknown token {op_token}")
        st.remote_addr = addr
        self.stats.count("rv_addrs")

    def _pump_rendezvous(self):
        """Issue deferred rendez-vous stores (the §4.1 restriction)."""
        for tok, st in list(self._send_states.items()):
            if st.remote_addr is None or st.store_issued:
                continue
            st.store_issued = True
            remaining = st.total_len - st.prefix_len
            if remaining == 0:
                del self._send_states[tok]
                st.request.complete()
                continue
            def _finish(_op, st=st, tok=tok):
                self._send_states.pop(tok, None)
                st.request.complete()
            yield from self.am.store_async(
                st.dst, st.data_addr + st.prefix_len, st.remote_addr,
                remaining, handler=_h_rdvz_done, arg=tok,
                completion_fn=_finish)
            self.stats.count("rendezvous_stores")

    def _on_rdvz_done(self, src, op_token):
        rs = self._recv_states.get((src, op_token))
        if rs is None:
            raise AssertionError(
                f"rendezvous completion for unknown ({src}, {op_token})")
        rs.main_done = True
        yield from self._maybe_finish_recv(src, op_token)

    def _maybe_finish_recv(self, src, op_token):
        key = (src, op_token)
        rs = self._recv_states.get(key)
        if rs is None or not rs.main_done or rs.need_prefix:
            return
        del self._recv_states[key]
        req = rs.request
        data = self.node.memory.read(req.recv_addr, req.nbytes)
        yield from self.node.compute(self.cfg.completion_cost)
        req.complete(data, source=src, tag=req.tag if req.tag >= 0 else 0)
        self.stats.count("rendezvous_recvs")

    # ------------------------------------------------------------------
    # data placement + progress
    # ------------------------------------------------------------------

    def _place(self, request: Request, data: bytes, src: int, tag: int):
        if request.recv_addr is not None and data:
            self.node.memory.write(request.recv_addr, data)

    def progress(self):
        """One progress cycle: poll AM, pump deferred stores and frees."""
        yield from self.am.poll()
        if self._send_states:
            yield from self._pump_rendezvous()
        if self._frees_owed:
            for peer in list(self._frees_owed):
                yield from self._flush_due_frees(peer)

    def _wait_progress(self):
        """Blocked progress: no simulated spin-poll here — the AM layer's
        ``_wait_progress`` sleeps on the adapter arrival event under a
        cancellable keep-alive timer, so an idle rank leaves only that
        timer (or its tombstone) on the queue.  The rendezvous
        pump and free flush are gated on having work: an idle spin would
        otherwise build two no-op generators and a list per call."""
        yield from self.am._wait_progress()
        if self._send_states:
            yield from self._pump_rendezvous()
        if self._frees_owed:
            for peer in list(self._frees_owed):
                yield from self._flush_due_frees(peer)
