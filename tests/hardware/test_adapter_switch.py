"""Integration tests: packets through TB2 adapters and the switch."""

import pytest

from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware import build_sp_machine
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.params import machine_params, with_overrides
from repro.obs import Observatory
from repro.sim import Simulator


def small_packet(src=0, dst=1, seq=0):
    return Packet(src=src, dst=dst, kind=PacketKind.RAW, seq=seq, args=(seq,))


def full_packet(src=0, dst=1, seq=0):
    return Packet(
        src=src, dst=dst, kind=PacketKind.STORE_DATA, seq=seq, payload=b"d" * 224
    )


def send_n(machine, n, maker, src=0, dst=1):
    adapter = machine.node(src).adapter
    for i in range(n):
        adapter.host_stage(maker(src, dst, i))
    adapter.host_arm()


class TestDelivery:
    def test_single_packet_arrives_once(self):
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        send_n(m, 1, small_packet)
        sim.run()
        rx = m.node(1).adapter
        assert rx.host_recv_available() == 1
        assert rx.host_recv_consume().args == (0,)

    def test_delivery_order_preserved(self):
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        send_n(m, 10, small_packet)
        sim.run()
        rx = m.node(1).adapter
        seqs = [rx.host_recv_consume().seq for _ in range(10)]
        assert seqs == list(range(10))

    def test_one_way_latency_in_paper_range(self):
        # small-packet hardware latency must land near 14-17 us so the raw
        # RTT (hardware + minimal software) can hit the paper's 47 us
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        send_n(m, 1, small_packet)
        t = sim.run()
        assert 12.0 < t < 18.0

    def test_full_packets_pace_at_wire_rate(self):
        # steady-state inter-departure must be 256B / 40MB/s + gap = 6.53us
        # -> payload bandwidth 224/6.53 = 34.3 MB/s (Table 3)
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        obs = Observatory().attach(m)
        n = 64
        send_n(m, n, full_packet)
        sim.run()
        # each packet's visible mark is the instant it reached node 1
        arrivals = sorted(s.marks["visible"] for s in obs.spans.values())
        gaps = [b - a for a, b in zip(arrivals[10:], arrivals[11:])]
        for g in gaps:
            assert g == pytest.approx(6.53, abs=0.05)
        bw = 224 / gaps[0]
        assert bw == pytest.approx(34.3, abs=0.3)

    def test_unattached_destination_raises(self):
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        a = m.node(0).adapter
        a.host_stage(Packet(src=0, dst=7, kind=PacketKind.RAW))
        a.host_arm()
        with pytest.raises(KeyError):
            sim.run()


class TestOverflowAndFaults:
    def test_recv_fifo_overflow_drops(self):
        # receiver never consumes; its FIFO holds 64*2 slots on a 2-node
        # machine, so a burst of 160 packets must lose some
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        a = m.node(0).adapter
        for i in range(128):
            a.host_stage(small_packet(seq=i))
        a.host_arm()
        # refill the send FIFO after it drains
        def refill():
            for i in range(128, 160):
                a.host_stage(small_packet(seq=i))
            a.host_arm()
        sim.schedule(2000.0, refill)
        sim.run()
        rx = m.node(1).adapter
        dropped = rx.stats.get("rx_dropped_overflow")
        assert dropped == 160 - 128
        assert rx.host_recv_available() == 128

    def test_fault_plan_drops_selected_packets(self):
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        inj = install_faults(m, FaultPlan(seed=0, rules=(
            FaultRule("drop", seqs=frozenset({0, 3, 6})),)))
        send_n(m, 9, small_packet)
        sim.run()
        rx = m.node(1).adapter
        got = [rx.host_recv_consume().seq for _ in range(rx.host_recv_available())]
        assert got == [1, 2, 4, 5, 7, 8]
        assert m.switch.stats.get("packets_dropped_fault") == 3
        assert [f.seq for f in inj.injected] == [0, 3, 6]

    def test_dest_link_contention_serializes(self):
        # two senders blasting one receiver: arrival rate is capped by the
        # destination link, so total time ~ 2x the single-sender case
        def run(nsenders):
            sim = Simulator()
            m = build_sp_machine(sim, 3)
            obs = Observatory().attach(m)
            for s in range(nsenders):
                a = m.node(s).adapter
                for i in range(40):
                    a.host_stage(full_packet(src=s, dst=2, seq=i))
                a.host_arm()
            sim.run()
            assert m.node(2).adapter.stats.get("rx_dropped_overflow") == 0
            # the last packet to become visible at node 2
            return max(s.marks["visible"] for s in obs.spans.values())

        t1, t2 = run(1), run(2)
        assert t2 > 1.8 * t1


class TestSendFifoBackpressure:
    def test_host_can_stage_reflects_fifo_occupancy(self):
        sim = Simulator()
        p = machine_params("sp-thin")
        m = build_sp_machine(sim, 2, with_overrides(p, send_fifo_entries=4))
        a = m.node(0).adapter
        assert a.host_can_stage()
        for i in range(4):
            assert a.host_can_stage()
            a.host_stage(small_packet(seq=i))
        assert not a.host_can_stage()
        a.host_arm()
        sim.run()
        assert a.host_can_stage()
        assert a.send_fifo.free_entries == 4


class TestArrivalNotification:
    def test_arrival_event_fires_at_visibility_time(self):
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        ev = m.node(1).adapter.arrival_event()
        send_n(m, 1, small_packet)
        sim.run()
        assert ev.triggered
        assert ev.value.kind == PacketKind.RAW

    def test_arrival_event_renews_after_trigger(self):
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        a1 = m.node(1).adapter
        ev1 = a1.arrival_event()
        send_n(m, 1, small_packet)
        sim.run()
        ev2 = a1.arrival_event()
        assert ev2 is not ev1
        assert not ev2.triggered
