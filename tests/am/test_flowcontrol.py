"""Reliability under loss: NACK go-back-N, keep-alive, FIFO overflow (§2.2).

A count-triggered ``FaultPlan`` drops chosen packets in the switch: one
``FaultRule`` per loss, ``after=n-1, budget=1`` for the n-th matching
packet, ``tests.faults.rules.every_kth`` for every k-th.  The protocol
must still deliver everything exactly once, in order — and the stats must show it
recovered the way the paper describes (NACK-triggered retransmission,
keep-alive probes for tail losses).
"""

import pytest

from repro.am.constants import CHUNK_BYTES
from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware.packet import PacketKind
from tests.am.conftest import run_pair, serve
from tests.faults.rules import every_kth


def _payload(n, seed=0):
    return bytes((i * 31 + seed) % 256 for i in range(n))


class TestLossRecovery:
    def test_dropped_request_is_retransmitted(self, sp2):
        m, am0, am1 = sp2
        inj = install_faults(m, FaultPlan(seed=0, rules=(
            FaultRule("drop", packet_kinds=frozenset({PacketKind.REQUEST}),
                      after=2, budget=1),)))
        seen = []

        def handler(token, i):
            seen.append(i)

        n = 30

        def sender():
            for i in range(n):
                yield from am0.request_1(1, handler, i)

        def receiver():
            while len(seen) < n:
                yield from am1._wait_progress()

        run_pair(m, sender(), receiver(), wait_both=True, limit=1e8)
        assert seen == list(range(n))
        assert am0.stats.get("retransmissions") > 0
        assert am1.stats.get("nacks_sent") >= 1
        assert len(inj.injected) == 1

    def test_dropped_store_packet_recovers_with_correct_data(self, sp2):
        m, am0, am1 = sp2
        inj = install_faults(m, FaultPlan(seed=0, rules=(
            FaultRule("drop", packet_kinds=frozenset({PacketKind.STORE_DATA}),
                      after=19, budget=1),)))
        n = 2 * CHUNK_BYTES + 500
        data = _payload(n)
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        m.node(0).memory.write(src, data)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, n)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        assert m.node(1).memory.read(dst, n) == data
        assert am0.stats.get("retransmissions") > 0
        assert len(inj.injected) == 1

    def test_repeated_losses_still_exactly_once(self, sp2):
        m, am0, am1 = sp2
        inj = install_faults(m, FaultPlan(seed=0, rules=every_kth(
            7, 15, kinds={PacketKind.REQUEST})))
        seen = []

        def handler(token, i):
            seen.append(i)

        n = 120

        def sender():
            for i in range(n):
                yield from am0.request_1(1, handler, i)

        def receiver():
            while len(seen) < n:
                yield from am1._wait_progress()

        run_pair(m, sender(), receiver(), wait_both=True, limit=1e9)
        assert seen == list(range(n))
        assert len(inj.injected) == 15

    def test_lost_tail_packet_recovered_by_keepalive(self, sp2):
        """If the LAST packet is lost there is no subsequent packet to
        trigger a NACK; only the keep-alive probe can recover it."""
        m, am0, am1 = sp2
        # drop the very first request — and nothing follows it
        inj = install_faults(m, FaultPlan(seed=0, rules=(
            FaultRule("drop", packet_kinds=frozenset({PacketKind.REQUEST}),
                      budget=1),)))
        seen = []

        def handler(token, i):
            seen.append(i)

        flag = [0]

        def sender():
            yield from am0.request_1(1, handler, 0)
            while am0._peer(1).send[0].has_unacked:
                yield from am0._wait_progress()
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        assert seen == [0]
        assert am0.stats.get("keepalives_sent") >= 1
        assert am1.stats.get("keepalive_nacks_sent") >= 1
        assert len(inj.injected) == 1

    def test_lost_ack_recovered(self, sp2):
        """Chunk acks may be lost too; sender's keep-alive re-solicits."""
        m, am0, am1 = sp2
        inj = install_faults(m, FaultPlan(seed=0, rules=(
            FaultRule("drop", packet_kinds=frozenset({PacketKind.ACK}),
                      budget=1),)))
        n = 1000
        data = _payload(n)
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        m.node(0).memory.write(src, data)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, n)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        assert m.node(1).memory.read(dst, n) == data
        assert flag[0] == 1
        assert len(inj.injected) == 1

    def test_nack_storm_suppressed(self, sp2):
        """One gap followed by a full chunk of wrong-sequence packets ->
        a single NACK, not one per out-of-sequence arrival."""
        m, am0, am1 = sp2
        # drop one packet of chunk 0 so every packet of chunk 1 arrives
        # with the wrong (too-high) sequence number
        inj = install_faults(m, FaultPlan(seed=0, rules=(
            FaultRule("drop", packet_kinds=frozenset({PacketKind.STORE_DATA}),
                      after=4, budget=1),)))
        n = 2 * CHUNK_BYTES
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, n)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        assert am1.stats.get("nacks_sent") == 1
        assert am1.stats.get("nacks_suppressed") >= 10
        assert len(inj.injected) == 1

    def test_intra_chunk_loss_recovered_by_stall_nack(self, sp2):
        """A loss inside a chunk produces no wrong-sequence arrival at all
        (every chunk packet carries the base seq), so the normal NACK path
        never fires.  The receiver's stalled-assembly watchdog must NACK
        well before the sender's 400 us keep-alive would."""
        m, am0, am1 = sp2
        inj = install_faults(m, FaultPlan(seed=0, rules=(
            FaultRule("drop", packet_kinds=frozenset({PacketKind.STORE_DATA}),
                      after=4, budget=1),)))
        n = CHUNK_BYTES
        data = _payload(n)
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        m.node(0).memory.write(src, data)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, n)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        assert m.node(1).memory.read(dst, n) == data
        assert am1.stats.get("nacks_sent") == 0          # no gap ever seen
        assert am1.stats.get("stall_nacks_sent") >= 1    # watchdog fired
        assert am0.stats.get("retransmissions") > 0
        # recovery beat the keep-alive: the whole store (clean ~330 us)
        # finished within a couple of stall timeouts
        assert am0.stats.get("keepalives_sent") == 0
        assert m.sim.now < 3 * am1.costs.assembly_stall_timeout + 500
        assert len(inj.injected) == 1

    def test_retransmit_does_not_alias_saved_packets(self, sp2):
        """Regression: retransmission used to push the retransmission
        buffer's own Packet objects back through the send FIFO, re-stamping
        their ack fields in place.  A duplicated NACK then triggered a
        second retransmission of the *same* aliased objects while the first
        copies were still in flight through ``sim.at`` callbacks.  Clones
        must go on the wire; the saved copies must stay pristine."""
        m, am0, am1 = sp2
        install_faults(m, FaultPlan(seed=3, rules=(
            # lose a mid-chunk data packet to force go-back-N...
            FaultRule(kind="drop", rate=1.0, after=4, budget=1,
                      packet_kinds=frozenset({PacketKind.STORE_DATA})),
            # ...and duplicate the recovery NACK so the sender retransmits
            # the same saved unit twice, back to back
            FaultRule(kind="duplicate", rate=1.0, budget=2, delay_us=30.0,
                      packet_kinds=frozenset({PacketKind.NACK})),
        )))
        n = 2 * CHUNK_BYTES + 500
        data = _payload(n, seed=9)
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        m.node(0).memory.write(src, data)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, n)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        assert m.node(1).memory.read(dst, n) == data
        assert am0.stats.get("retransmissions") > 0
        # saved packets must still carry their original (unstamped-over)
        # identity: every window fully acked means no unit was stranded
        assert not any(w.has_unacked
                       for peer in am0._peers.values() for w in peer.send)


class TestOverflowRecovery:
    def test_receive_fifo_overflow_recovers(self, sp2):
        """A sender bursting while the receiver naps overflows the receive
        FIFO (window 72+76 vs 128 slots); drops must be retransmitted."""
        m, am0, am1 = sp2
        from repro.sim import Delay
        n_msgs = 100
        seen = []

        def handler(token, i):
            seen.append(i)

        def sender():
            for i in range(n_msgs):
                yield from am0.request_1(1, handler, i)

        def sleepy_receiver():
            yield Delay(5_000.0)  # let the FIFO fill and overflow
            while len(seen) < n_msgs:
                yield from am1._wait_progress()

        run_pair(m, sender(), sleepy_receiver(), wait_both=True, limit=1e9)
        assert seen == list(range(n_msgs))

    def test_idle_pop_flush_returns_consumed_slots(self):
        """Regression: consumed receive-FIFO slots below ``lazy_pop_batch``
        were never popped back to the adapter once the receiver went idle.
        With a FIFO smaller than the batch, the capacity silently shrank
        to zero — and every retransmission of the dropped packets was
        itself dropped, forever.  ``_wait_progress`` must flush pending
        pops before sleeping."""
        from repro.am import attach_spam
        from repro.hardware import build_sp_machine
        from repro.hardware.fifo import RecvFIFO
        from repro.sim import Delay, Simulator

        sim = Simulator()
        m = build_sp_machine(sim, 2)
        # capacity 12 < lazy_pop_batch 16: without the idle flush the
        # batch threshold is unreachable and consumed slots never return
        m.node(1).adapter.recv_fifo = RecvFIFO(capacity=12, lazy_pop_batch=16)
        am0, am1 = attach_spam(m)
        n_msgs = 100
        seen = []

        def handler(token, i):
            seen.append(i)

        flag = [0]

        def sender():
            for i in range(n_msgs):
                yield from am0.request_1(1, handler, i)
            # keep serving until everything is acknowledged: dropped
            # packets are only recovered by this side's retransmissions
            while any(w.has_unacked for w in am0._peer(1).send):
                yield from am0._wait_progress()
            flag[0] = 1

        def drowsy_receiver():
            # alternate between serving a little and napping, so the FIFO
            # repeatedly drains below the batch threshold and idles
            while not flag[0]:
                yield from am1._wait_progress()
                yield Delay(200.0)

        run_pair(m, sender(), drowsy_receiver(), wait_both=True, limit=1e9)
        assert seen == list(range(n_msgs))
        assert am1.stats.get("idle_pop_flushes") >= 1
        fifo = m.node(1).adapter.recv_fifo
        assert fifo.pending_pop < fifo.capacity

    def test_no_retransmissions_on_clean_runs(self, sp2):
        m, am0, am1 = sp2
        n = 4 * CHUNK_BYTES
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, n)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        assert am0.stats.get("retransmissions") == 0
        assert am1.stats.get("nacks_sent") == 0
        assert m.node(1).adapter.stats.get("rx_dropped_overflow") == 0


class TestSendFifoFullArms:
    """The send-FIFO-full arms of the recovery paths, on an 8-entry FIFO.

    Each test fails if its arm is deleted.  Without the wait in
    ``SPAM._send_control`` the chunk ack is staged into a full FIFO.  The
    arm in ``SPAM._process_nack`` arms the burst's staged retransmissions
    before it waits for room.  It is no longer what keeps the burst live:
    the burst also arms every ``ARM_BATCH`` packets, and a FIFO holds at
    least ``ARM_BATCH`` entries, so a full FIFO always holds an armed
    packet the adapter will drain.  Deleting the arm delays those
    retransmissions, and the store's completion, by 1 us: the test pins
    that instant.
    """

    LIMIT_US = 1e5

    def _machine(self):
        from repro.am import attach_spam
        from repro.hardware import build_sp_machine
        from repro.hardware.params import machine_params, with_overrides
        from repro.sim import Simulator

        sim = Simulator()
        m = build_sp_machine(sim, 2, with_overrides(
            machine_params("sp-thin"), send_fifo_entries=8))
        return (m,) + tuple(attach_spam(m))

    def test_go_back_n_burst_arms_its_own_retransmissions(self):
        """PR 2's deadlock fix: a burst longer than the FIFO arms what it
        staged before it waits for room."""
        m, am0, am1 = self._machine()
        inj = install_faults(m, FaultPlan(seed=0, rules=(
            FaultRule("drop", packet_kinds=frozenset({PacketKind.STORE_DATA}),
                      after=10, budget=1),)))
        n = 2 * CHUNK_BYTES
        data = _payload(n)
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        m.node(0).memory.write(src, data)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, n)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=self.LIMIT_US)
        assert m.node(1).memory.read(dst, n) == data
        assert len(inj.injected) == 1
        # a go-back-N burst several times the FIFO's 8 entries
        assert am0.stats.get("retransmissions") > 8
        assert m.sim.now == 1407.0000000000057

    def test_control_packet_waits_for_room(self):
        """Node 1 keeps its FIFO full with its own stores while node 0's
        chunk lands: the chunk ack waits for a free entry."""
        m, am0, am1 = self._machine()
        n = CHUNK_BYTES
        data = _payload(n)
        mem0, mem1 = m.node(0).memory, m.node(1).memory
        src0, dst1 = mem0.alloc(n), mem1.alloc(n)
        src1, dst0, got = mem1.alloc(n), mem0.alloc(n), mem1.alloc(64)
        mem0.write(src0, data)
        mem1.write(src1, data)
        done = [0, 0]

        def node0():
            yield from am0.store(1, src0, dst1, n)
            done[0] = 1
            while not done[1]:
                yield from am0._wait_progress()

        def node1():
            ops = []
            for _ in range(3):
                ops.append((yield from am1.store_async(0, src1, dst0, n)))
                # a full FIFO makes get_async serve the network first
                yield from am1.get_async(0, src0, got, 64)
            for op in ops:
                yield from am1.wait_op(op)
            done[1] = 1
            while not done[0]:
                yield from am1._wait_progress()

        run_pair(m, node0(), node1(), wait_both=True, limit=self.LIMIT_US)
        assert mem1.read(dst1, n) == data
        assert mem0.read(dst0, n) == data
        # one ack per chunk landed here: the store's and three gets'
        assert am1.stats.get("chunk_acks_sent") == 4


class TestChunkPipeline:
    def test_chunk_pacing_matches_figure_2(self, sp2):
        """Chunk N goes out only after the ack for chunk N-2 (Fig. 2):
        initially two chunks, then one per ack."""
        m, am0, am1 = sp2
        n = 6 * CHUNK_BYTES
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        flag = [0]
        events = []
        orig_send = am0._send_chunk
        orig_ack = am0._complete_units

        def traced_send(op, peer, win, idx, off, length, npk):
            events.append(("send", idx))
            return orig_send(op, peer, win, idx, off, length, npk)

        def traced_ack(peer, channel, ack):
            before = len([e for e in events if e[0] == "ack"])
            orig_ack(peer, channel, ack)
            # count acked chunks by deltas in op bookkeeping
            events.append(("ack", before))

        am0._send_chunk = traced_send
        am0._complete_units = traced_ack

        def sender():
            yield from am0.store(1, src, dst, n)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        send_indices = [i for kind, i in events if kind == "send"]
        assert send_indices == list(range(6))
        # the first two sends happen before any ack; every later send after
        # at least (idx - 1) acks
        ack_positions = [j for j, e in enumerate(events) if e[0] == "ack"]
        for idx in (0, 1):
            pos = events.index(("send", idx))
            assert all(p > pos for p in ack_positions) or idx < 2
        for idx in range(2, 6):
            pos = events.index(("send", idx))
            acks_before = sum(1 for p in ack_positions if p < pos)
            assert acks_before >= idx - 1
