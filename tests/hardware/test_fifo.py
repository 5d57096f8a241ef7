"""Unit tests for send/receive FIFO bookkeeping."""

import pytest

from repro.hardware.fifo import RecvFIFO, SendFIFO
from repro.hardware.packet import Packet, PacketKind


def pkt(i=0):
    return Packet(src=0, dst=1, kind=PacketKind.REQUEST, seq=i)


class TestSendFIFO:
    def test_stage_then_arm_then_take(self):
        f = SendFIFO(8)
        f.stage(pkt(1))
        f.stage(pkt(2))
        assert f.take_armed() is None
        assert f.arm() == 2
        assert f.staged_count == 0
        assert f.take_armed().seq == 1
        assert f.take_armed().seq == 2
        assert f.take_armed() is None

    def test_capacity_enforced(self):
        f = SendFIFO(2)
        f.stage(pkt())
        f.stage(pkt())
        assert f.free_entries == 0
        with pytest.raises(OverflowError):
            f.stage(pkt())

    def test_taking_frees_entries(self):
        f = SendFIFO(2)
        f.stage(pkt())
        f.arm()
        f.take_armed()
        assert f.free_entries == 2

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            SendFIFO(0)


class TestRecvFIFO:
    def test_reserve_until_full(self):
        f = RecvFIFO(capacity=3)
        assert all(f.reserve() for _ in range(3))
        assert not f.reserve()  # overflow -> caller drops the packet

    def test_deliver_consume_order(self):
        f = RecvFIFO(capacity=8)
        for i in range(3):
            f.reserve()
            f.slots.append((float(i), i, pkt(i)))
        assert [f.consume().seq for _ in range(3)] == [0, 1, 2]
        with pytest.raises(IndexError):
            f.consume()

    def test_lazy_pop_frees_capacity_in_batches(self):
        f = RecvFIFO(capacity=4, lazy_pop_batch=3)
        for i in range(4):
            f.reserve()
            f.slots.append((float(i), i, pkt(i)))
        assert not f.reserve()
        f.consume()
        # consumed but not popped: capacity still held
        assert not f.should_pop()
        assert not f.reserve()
        f.consume()
        f.consume()
        assert f.should_pop()
        assert f.pop_batch() == 3
        assert f.reserve()

    def test_pop_batch_returns_zero_when_nothing_pending(self):
        f = RecvFIFO(capacity=4)
        assert f.pop_batch() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RecvFIFO(capacity=0)
        with pytest.raises(ValueError):
            RecvFIFO(capacity=4, lazy_pop_batch=0)
