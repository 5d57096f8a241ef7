"""Adapter pipeline math: latency and occupancy against the parameters.

The calibration rests on this decomposition (docs/calibration.md); these
tests compute the expected timings from AdapterParams and assert the
simulated adapter lands on them exactly.
"""

import pytest

from repro.hardware import build_sp_machine
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.params import machine_params
from repro.obs import Observatory
from repro.sim import Simulator


def one_way_time(wire_bytes: int) -> float:
    """Expected unloaded one-way latency per the stage model."""
    p = machine_params("sp-thin")
    a, s = p.adapter, p.switch
    dma = wire_bytes / a.mc_dma_rate
    wire = wire_bytes / s.link_rate
    return (a.length_scan + dma + a.i860_tx_latency + wire
            + s.latency + dma + a.i860_rx_latency)


class TestLatencyDecomposition:
    @pytest.mark.parametrize("args,payload", [
        ((), b""), ((1,), b""), ((1, 2, 3, 4), b""),
        ((), b"x" * 224),
    ])
    def test_single_packet_latency_matches_model(self, args, payload):
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        pkt = Packet(src=0, dst=1, kind=PacketKind.RAW, args=args,
                     payload=payload)
        expected = one_way_time(pkt.wire_bytes)
        a = m.node(0).adapter
        a.host_stage(pkt)
        a.host_arm()
        t = sim.run()
        assert t == pytest.approx(expected, abs=1e-9)

    def test_occupancy_sets_the_asymptote(self):
        """Steady-state spacing = max(dma, i860 occ, wire + gap)."""
        p = machine_params("sp-thin")
        a, s = p.adapter, p.switch
        wire_bytes = 256
        expected_gap = max(wire_bytes / a.mc_dma_rate,
                           a.i860_tx_occupancy,
                           wire_bytes / s.link_rate + a.msmu_gap)
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        obs = Observatory().attach(m)
        adapter = m.node(0).adapter
        for i in range(30):
            adapter.host_stage(Packet(src=0, dst=1,
                                      kind=PacketKind.STORE_DATA, seq=i,
                                      payload=b"d" * 224))
        adapter.host_arm()
        sim.run()
        # each packet's visible mark is the instant it reached node 1
        arrivals = sorted(s.marks["visible"] for s in obs.spans.values())
        gaps = [b - a_ for a_, b in zip(arrivals[5:], arrivals[6:])]
        for g in gaps:
            assert g == pytest.approx(expected_gap, abs=1e-9)
        # and the derived payload bandwidth is Table 3's 34.3 MB/s
        assert 224 / expected_gap == pytest.approx(34.3, abs=0.15)

    def test_latency_exceeds_occupancy(self):
        """The pipeline premise: per-packet latency >> per-packet spacing
        (a single service time could not satisfy both calibrations)."""
        assert one_way_time(256) > 3 * 6.53

    def test_wide_node_same_adapter_timing(self):
        """Thin and wide nodes share the TB2; only host costs differ."""
        for kind in ("sp-thin", "sp-wide"):
            sim = Simulator()
            m = build_sp_machine(sim, 2, machine_params(kind))
            a = m.node(0).adapter
            a.host_stage(Packet(src=0, dst=1, kind=PacketKind.RAW))
            a.host_arm()
            assert sim.run() == pytest.approx(one_way_time(32), abs=1e-9)
