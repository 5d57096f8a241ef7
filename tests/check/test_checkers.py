"""Unit and property tests for the invariant checkers (repro.check.core).

Two obligations per checker: a clean run through the *real* component
hooks stays silent, and a seeded violation is caught with the offending
operation named in the message.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.am.window import RecvWindow, SendWindow
from repro.check import InvariantViolation, Sanitizer
from repro.check.core import (
    AllocCheck,
    RecvFifoCheck,
    RecvWindowCheck,
    RequestCheck,
    SchedulerCheck,
    SendFifoCheck,
    SendWindowCheck,
)
from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware import build_sp_machine
from repro.hardware.fifo import RecvFIFO, SendFIFO
from repro.hardware.packet import Packet, PacketKind
from repro.mpi import attach_mpi
from repro.mpi.allocator import FirstFitAllocator
from repro.mpi.request import Request
from repro.sim import Simulator


def pkt(seq=0, chunk_packets=1, offset=0):
    return Packet(src=0, dst=1, kind=PacketKind.REQUEST, seq=seq,
                  chunk_packets=chunk_packets, offset=offset)


class TestSendFifoCheck:
    def test_clean_cycle_is_silent(self):
        f = SendFIFO(8)
        ck = SendFifoCheck(Sanitizer(), "send_fifo[t]", f)
        f.check = ck
        for i in range(3):
            f.stage(pkt(i))
        f.arm()
        f.take_armed()
        for i in range(3, 5):
            f.stage(pkt(i))
        f.arm()
        while f.take_armed() is not None:
            pass
        assert ck.checks > 0

    def test_take_without_arm_caught(self):
        f = SendFIFO(8)
        ck = SendFifoCheck(Sanitizer(), "send_fifo[t]", f)
        f.check = ck
        f.stage(pkt())
        # bypass arm(): pull the packet out behind the ledger's back
        f._armed.append(f._staged.popleft())
        with pytest.raises(InvariantViolation,
                           match=r"\[send_fifo\[t\]\.take\].*armed"):
            f.take_armed()

    @given(ops=st.lists(st.sampled_from(["stage", "arm", "take"]),
                        max_size=60))
    def test_any_legal_sequence_is_silent(self, ops):
        f = SendFIFO(16)
        f.check = SendFifoCheck(Sanitizer(), "send_fifo[t]", f)
        n = 0
        for op in ops:
            if op == "stage" and f.free_entries > 0:
                f.stage(pkt(n))
                n += 1
            elif op == "arm":
                f.arm()
            elif op == "take":
                f.take_armed()


def _queue(f, packet, stamp, order):
    """The adapter's side of a settled packet: queue its slot, then tell
    the checker."""
    f.slots.append((stamp, order, packet))
    f.check.on_deliver(f)


class TestRecvFifoCheck:
    def test_clean_cycle_is_silent(self):
        f = RecvFIFO(capacity=8, lazy_pop_batch=2)
        ck = RecvFifoCheck(Sanitizer(), "recv_fifo[t]", f)
        f.check = ck
        for i in range(4):
            assert f.reserve()
            _queue(f, pkt(i), float(i), i)
        for _ in range(4):
            f.consume()
            if f.should_pop():
                f.pop_batch()
        f.pop_batch()
        ck.at_quiescence()
        assert ck.checks > 0

    def test_deliver_without_reserve_caught(self):
        f = RecvFIFO(capacity=8)
        f.check = RecvFifoCheck(Sanitizer(), "recv_fifo[t]", f)
        with pytest.raises(InvariantViolation,
                           match=r"\[recv_fifo\[t\]\.deliver\].*reserved"):
            _queue(f, pkt(), 0.0, 0)

    def test_slot_out_of_stamp_order_caught(self):
        f = RecvFIFO(capacity=8)
        f.check = RecvFifoCheck(Sanitizer(), "recv_fifo[t]", f)
        f.reserve()
        _queue(f, pkt(0), 5.0, 0)
        f.reserve()
        with pytest.raises(InvariantViolation,
                           match=r"\.deliver\].*stamped 4\.0 queued after"):
            _queue(f, pkt(1), 4.0, 1)

    def test_slot_leak_caught_at_quiescence(self):
        f = RecvFIFO(capacity=8)
        ck = RecvFifoCheck(Sanitizer(), "recv_fifo[t]", f)
        f.check = ck
        f.reserve()  # slot claimed, packet never delivered nor popped
        with pytest.raises(InvariantViolation,
                           match=r"quiescence\] slot leak"):
            ck.at_quiescence()


class TestSendWindowCheck:
    def _checked(self, window=8):
        w = SendWindow(window)
        w.check = SendWindowCheck(Sanitizer(), "send_window[t]", w)
        return w

    def test_clean_traffic_is_silent(self):
        w = self._checked()
        s0 = w.allocate(1)
        w.save(s0, [pkt(s0)])
        s1 = w.allocate(4)
        w.save(s1, [pkt(s1, 4, o) for o in range(4)])
        w.on_ack(1)     # first unit
        w.on_ack(5)     # the whole chunk as one unit
        assert w.check.checks > 0

    def test_mid_chunk_ack_caught_and_named(self):
        w = self._checked()
        seq = w.allocate(4)
        w.save(seq, [pkt(seq, 4, o) for o in range(4)])
        # the checker names the violating ack before MidChunkAckError
        with pytest.raises(InvariantViolation,
                           match=r"\.ack\].*not unit-aligned"):
            w.on_ack(2)

    def test_ack_beyond_allocation_caught(self):
        w = self._checked()
        w.save(w.allocate(1), [pkt(0)])
        with pytest.raises(InvariantViolation,
                           match=r"\.ack\].*never allocated"):
            w.on_ack(7)

    def test_backwards_ack_caught(self):
        w = self._checked()
        ck = w.check
        for _ in range(3):
            w.save(w.allocate(1), [pkt(0)])
        w.on_ack(3)
        # the real window early-returns on ack <= base, so drive the
        # checker directly: a regressing cumulative ack must be flagged
        ck.max_ack = 5
        with pytest.raises(InvariantViolation, match="moved backwards"):
            ck.on_ack(w, 3)

    def test_restamped_saved_packet_caught_and_named(self):
        w = self._checked()
        w.save(w.allocate(1), [pkt(0)])
        seq = w.allocate(4)
        unit = [pkt(seq, 4, o) for o in range(4)]
        w.save(seq, unit)
        unit[2].ack_req = 9     # re-stamped in place after the save
        with pytest.raises(InvariantViolation,
                           match=r"send_window\[t\]\.ack\] saved unit at "
                                 r"seq 1 .*packet 2 field 'ack_req' -1 -> 9"):
            w.on_ack(5)

    def test_aliasing_retransmission_caught(self, monkeypatch):
        """The old aliasing bug: go-back-N re-stamping the saved packets
        themselves instead of clones.  A reply lands between the chunk's
        first send and its retransmission, so the re-stamp changes the
        piggybacked reply-channel ack of a packet the window still holds."""
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        am0, am1 = attach_spam(m)
        san = Sanitizer(collect=True).attach(m)
        install_faults(m, FaultPlan(seed=3, rules=(
            FaultRule(kind="drop", rate=1.0, after=4, budget=1,
                      packet_kinds=frozenset({PacketKind.STORE_DATA})),)))
        n = 2 * CHUNK_BYTES
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        m.node(0).memory.write(src, bytes(i % 251 for i in range(n)))
        done = []

        def h_reply(token, x):
            pass

        def h_request(token, x):
            yield from token.reply_1(h_reply, x)

        def sender():
            yield from am0.request_1(1, h_request, 7)
            yield from am0.store(1, src, dst, n)
            done.append(True)

        def server():
            while not done:
                yield from am1._wait_progress()

        monkeypatch.setattr(Packet, "clone", lambda self: self)
        sim.run_until_processes_done(
            [sim.spawn(sender()), sim.spawn(server())], limit=1e8)
        assert am0.stats.get("retransmissions") > 0
        assert [str(v) for v in san.violations] == [
            "[send_window[0->1 ch0].ack] saved unit at seq 1 was mutated "
            "before its ack freed it: packet 0 field 'ack_rep' 0 -> 1"]


class TestRecvWindowCheck:
    def test_in_order_delivery_is_silent(self):
        w = RecvWindow(window=8, ack_threshold=2)
        ck = RecvWindowCheck(Sanitizer(), "recv_window[t]", w)
        w.check = ck
        for seq in range(3):
            verdict, done = w.accept(pkt(seq))
            assert verdict == "deliver" and done
        assert ck.delivered_units == 3
        assert ck.digest != 0

    def test_duplicate_delivery_caught(self):
        w = RecvWindow(window=8, ack_threshold=2)
        ck = RecvWindowCheck(Sanitizer(), "recv_window[t]", w)
        w.check = ck
        w.accept(pkt(0))
        # the window classifies a replay as duplicate; a double *deliver*
        # can only come from broken reassembly — drive the hook directly
        with pytest.raises(InvariantViolation,
                           match=r"\.deliver\].*exactly-once"):
            ck.on_deliver(w, 0, 1)


class TestRequestCheck:
    def _req(self):
        return Request("recv", None, 0, 0, rid=1)

    def test_clean_lifecycle_is_silent(self):
        ck = RequestCheck(Sanitizer(), "request[t]")
        r = self._req()
        ck.on_new(r)
        ck.on_posted(r)
        ck.on_matched(r)
        r.check = ck
        r.complete(b"x", source=0, tag=0)
        r.free()
        assert ck.checks >= 5

    def test_complete_twice_caught(self):
        ck = RequestCheck(Sanitizer(), "request[t]")
        r = self._req()
        ck.on_matched(r)
        r.complete(b"x")
        with pytest.raises(InvariantViolation, match="completed twice"):
            r.complete(b"y")

    def test_progress_on_freed_request_caught(self):
        ck = RequestCheck(Sanitizer(), "request[t]")
        r = self._req()
        ck.on_matched(r)
        r.complete(b"x")
        r.free()
        with pytest.raises(InvariantViolation, match="freed request"):
            ck.on_progress(r)

    def test_freed_request_message_is_the_same_every_run(self):
        """Requests are numbered per MPI instance, not per process, so
        the message names the same request however many runs came first."""

        def run():
            m = build_sp_machine(Simulator(), 2)
            attach_spam(m)
            mpis = attach_mpi(m)
            Sanitizer().attach(m)

            def sender():
                yield from mpis[0].send(b"x", 1, tag=1)

            def receiver():
                req = yield from mpis[1].irecv(4, 0, tag=1)
                yield from mpis[1].wait(req)
                req.free()
                yield from mpis[1].wait(req)

            procs = [m.sim.spawn(sender()), m.sim.spawn(receiver())]
            with pytest.raises(InvariantViolation) as exc:
                m.sim.run_until_processes_done(procs, limit=1e7)
            return str(exc.value)

        first = run()
        assert run() == first == ("[request[1].progress] wait on freed "
                                  "request #1")

    def test_double_post_caught(self):
        ck = RequestCheck(Sanitizer(), "request[t]")
        r = self._req()
        ck.on_posted(r)
        with pytest.raises(InvariantViolation, match="posted twice"):
            ck.on_posted(r)

    def test_completion_of_unmatched_posted_recv_caught(self):
        ck = RequestCheck(Sanitizer(), "request[t]")
        r = self._req()
        ck.on_posted(r)
        with pytest.raises(InvariantViolation, match="never matched"):
            ck.on_complete(r)


class TestAllocCheck:
    def _checked(self, capacity=4096):
        a = FirstFitAllocator(capacity)
        a.check = AllocCheck(Sanitizer(), "alloc[t]", a)
        return a

    def test_clean_alloc_free_is_silent(self):
        a = self._checked()
        offs = [a.alloc(128) for _ in range(4)]
        for off in offs:
            a.free(off, 128)
        assert a.check.outstanding_bytes == 0
        assert a.check.checks == 8

    def test_free_of_unallocated_offset_caught(self):
        a = self._checked()
        with pytest.raises(InvariantViolation,
                           match=r"\.free\] free of unallocated offset"):
            a.free(12321, 64)

    def test_free_with_wrong_length_caught(self):
        a = self._checked()
        off = a.alloc(128)
        with pytest.raises(InvariantViolation,
                           match="but 128 were allocated"):
            a.free(off, 64)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=512),
                          min_size=1, max_size=30))
    def test_any_alloc_free_interleave_is_silent(self, sizes):
        a = self._checked(16384)
        live = []
        for i, nbytes in enumerate(sizes):
            off = a.alloc(nbytes)
            if off is not None:
                live.append((off, nbytes))
            if i % 3 == 2 and live:
                a.free(*live.pop(0))
        for off, nbytes in live:
            a.free(off, nbytes)
        assert a.check.outstanding_bytes == 0


class TestSchedulerCheck:
    def test_clean_run_with_timers_is_silent(self):
        sim = Simulator()
        san = Sanitizer().watch_sim(sim)
        fired = []
        sim.schedule(2.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        h = sim.call_later(3.0, fired.append, "never")
        h.cancel()
        sim.call_later(4.0, fired.append, "c")
        sim.run()
        assert fired == ["b", "a", "c"]
        ck = sim.check
        assert ck.cancelled == 1 and ck.stale_skipped == 1
        assert san.snapshot()["sched"] == ck.checks

    def test_resurrected_tombstone_caught(self):
        sim = Simulator()
        Sanitizer().watch_sim(sim)
        fired = []
        h = sim.call_later(5.0, fired.append, "ghost")
        entry = h._entry
        h.cancel()
        # un-tombstone the queue entry behind the handle's back: the
        # firing now comes from a generation the handle already retired
        entry[2] = h._fire
        entry[3] = (fired.append, ("ghost",))
        with pytest.raises(InvariantViolation, match="stale generation"):
            sim.run()

    def test_out_of_order_execution_caught(self):
        sim = Simulator()
        ck = SchedulerCheck(Sanitizer(), "sched", sim)
        ck.on_execute([1.0, 5, None, ()])
        with pytest.raises(InvariantViolation, match="consumed .* after"):
            ck.on_execute([1.0, 4, None, ()])


class TestSanitizer:
    def test_collect_mode_accumulates_without_raising(self):
        san = Sanitizer(collect=True)
        a = FirstFitAllocator(1024)
        a.check = AllocCheck(san, "alloc[t]", a)
        for off in (1, 2):
            # in collect mode the checker records first, then the
            # allocator's own structural guard still fires
            with pytest.raises(ValueError, match="overlapping free"):
                a.free(off, 8)
        assert len(san.violations) == 2
        assert all("unallocated" in str(v) for v in san.violations)

    def test_violation_names_checker_and_op(self):
        san = Sanitizer(collect=True)
        a = FirstFitAllocator(1024)
        a.check = AllocCheck(san, "alloc[3->1]", a)
        with pytest.raises(ValueError):
            a.free(7, 8)
        assert str(san.violations[0]).startswith("[alloc[3->1].free] ")

    def test_only_filter_limits_attachment(self):
        sim = Simulator()
        Sanitizer(only=["fifo"]).watch_sim(sim)
        assert sim.check is None
        Sanitizer(only=["sched"]).watch_sim(sim)
        assert sim.check is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown checker kinds"):
            Sanitizer(only=["fifo", "quantum"])
