"""Tests for Node memory, CPU charging, cache model, and machine builders."""

import numpy as np
import pytest

from repro.hardware import Machine, build_generic_machine, build_sp_machine
from repro.hardware.cache import copy_cost, flush_cost, lines_covering
from repro.hardware.machine import build_machine
from repro.hardware.node import Memory
from repro.hardware.params import HostParams, machine_params
from repro.sim import Simulator


class TestMemory:
    def test_alloc_returns_distinct_aligned_regions(self):
        mem = Memory()
        a = mem.alloc(100)
        b = mem.alloc(100)
        assert a % 64 == 0 and b % 64 == 0
        assert b >= a + 100

    def test_write_read_roundtrip(self):
        mem = Memory()
        addr = mem.alloc(256)
        mem.write(addr, b"hello world")
        assert mem.read(addr, 11) == b"hello world"

    def test_growth_to_a_full_segment(self):
        mem = Memory()
        addr = mem.alloc(1 << 20)
        mem.write(addr + (1 << 20) - 4, b"tail")
        assert mem.read(addr + (1 << 20) - 4, 4) == b"tail"

    def test_read_past_end_raises(self):
        mem = Memory()
        mem.alloc(64)
        with pytest.raises(IndexError, match="exceeds memory"):
            mem.read(1 << 30, 10)

    def test_no_backing_store_before_the_first_alloc(self):
        mem = Memory()
        assert mem._segments == [] and mem.brk == 0
        # access to a memory that holds nothing is the named error, not
        # an index fault on the empty segment list
        for access in (lambda: mem.read(0, 1), lambda: mem.write(0, b"x"),
                       lambda: mem.view(64, 8)):
            with pytest.raises(IndexError, match="allocated nothing"):
                access()
        assert mem._segments == [] and mem.brk == 0
        assert mem.alloc(10) == 0
        assert len(mem._segments) == 1 and mem.brk == 64
        assert mem.read(0, 10) == bytes(10)

    def test_initial_parameter_is_gone(self):
        with pytest.raises(TypeError):
            Memory(initial=1 << 16)

    def test_alloc_array_defaults_to_float64(self):
        mem = Memory()
        mem.alloc(3)                      # the array must still be aligned
        addr, arr = mem.alloc_array(5)
        assert arr.dtype == np.float64 and arr.shape == (5,)
        assert addr == 64 and mem.brk == 64 + 64
        arr[:] = 1.5
        assert np.frombuffer(mem.read(addr, 40), np.float64).tolist() == \
            [1.5] * 5
        for dtype in ("u1", np.int16, np.dtype(">i8"), np.complex128):
            _, typed = mem.alloc_array(4, dtype)
            assert typed.dtype == np.dtype(dtype) and len(typed) == 4

    def test_256_node_machine_holds_no_node_memory(self):
        import tracemalloc

        tracemalloc.start()
        try:
            machine = build_sp_machine(Simulator(), 256)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one eager 1 MB segment per node alone would be 256 MB
        assert peak < 32 << 20
        assert all(n.memory._segments == [] and n.memory.brk == 0
                   for n in machine.nodes)

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            Memory().alloc(-1)

    def test_alloc_array_aliases_memory(self):
        mem = Memory()
        addr, arr = mem.alloc_array(16, np.int32)
        arr[:] = np.arange(16)
        raw = np.frombuffer(mem.read(addr, 64), dtype=np.int32)
        assert (raw == np.arange(16)).all()

    def test_view_is_writable(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.view(addr, 8)[:] = b"ABCDEFGH"
        assert mem.read(addr, 8) == b"ABCDEFGH"


class TestCacheModel:
    def test_lines_covering(self):
        assert lines_covering(0, 64) == 0
        assert lines_covering(1, 64) == 1
        assert lines_covering(64, 64) == 1
        assert lines_covering(65, 64) == 2
        assert lines_covering(256, 64) == 4

    def test_flush_cost_thin_vs_wide(self):
        thin = HostParams(kind="thin", cache_line=64, flush_line=0.18)
        wide = HostParams(kind="wide", cache_line=256, flush_line=0.42)
        # one full packet = 4 thin lines but a single wide line
        assert flush_cost(256, thin) == pytest.approx(4 * 0.18)
        assert flush_cost(256, wide) == pytest.approx(0.42)

    def test_copy_cost_scales_with_bytes(self):
        host = HostParams()
        assert copy_cost(0, host) == 0.0
        assert copy_cost(9000, host) > copy_cost(900, host)


class TestCpuCharging:
    def test_compute_advances_clock_and_busy_counter(self):
        sim = Simulator()
        m = build_sp_machine(sim, 1)
        node = m.node(0)

        def prog():
            yield from node.compute(5.0)
            yield from node.charge_flops(400)  # 400 flops at 40 Mflops = 10us
            yield from node.charge_intops(500)  # at 50 Mops = 10us

        p = sim.spawn(prog())
        sim.run()
        assert p.finished
        assert sim.now == pytest.approx(25.0)
        assert node.cpu_busy_us == pytest.approx(25.0)


class TestBuilders:
    def test_sp_machine_shape(self):
        sim = Simulator()
        m = build_sp_machine(sim, 4)
        assert m.nprocs == 4
        assert m.is_sp
        assert m.switch.node_count == 4
        assert all(n.adapter is not None for n in m.nodes)

    def test_recv_fifo_scales_with_active_nodes(self):
        # "64 entries per active processing node (determined at runtime)"
        sim = Simulator()
        m = build_sp_machine(sim, 4)
        assert m.node(0).adapter.recv_fifo.capacity == 64 * 4

    def test_generic_machine_shape(self):
        sim = Simulator()
        m = build_generic_machine(sim, 8, machine_params("cm5"))
        assert m.nprocs == 8
        assert not m.is_sp
        assert all(n.nic is not None for n in m.nodes)

    def test_build_machine_by_name(self):
        sim = Simulator()
        for name in ("sp-thin", "sp-wide", "cm5", "meiko", "unet"):
            m = build_machine(Simulator(), 2, name)
            assert isinstance(m, Machine)

    def test_wrong_kind_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_sp_machine(sim, 2, machine_params("cm5"))
        with pytest.raises(ValueError):
            build_generic_machine(sim, 2, machine_params("sp-thin"))

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_sp_machine(Simulator(), 0)

    def test_unknown_machine_name(self):
        with pytest.raises(KeyError):
            machine_params("cray-t3d")


class TestGenericNIC:
    def test_latency_matches_logp_parameters(self):
        from repro.hardware.packet import Packet, PacketKind

        sim = Simulator()
        m = build_generic_machine(sim, 2, machine_params("cm5"))
        nic = m.node(0).nic
        # small control message: LogP charges only L (overheads are the
        # software layer's o_send/o_recv)
        pkt = Packet(src=0, dst=1, kind=PacketKind.REQUEST, args=(1,))
        nic.host_send(pkt)
        t = sim.run()
        assert t == pytest.approx(2.3, abs=0.01)
        assert m.node(1).nic.host_recv_available() == 1
        # bulk payload serializes at the link rate on top of L
        sim2 = Simulator()
        m2 = build_generic_machine(sim2, 2, machine_params("cm5"))
        m2.node(0).nic.host_send(
            Packet(src=0, dst=1, kind=PacketKind.STORE_DATA, payload=b"x" * 200)
        )
        assert sim2.run() == pytest.approx(200 / 10.0 + 2.3, abs=0.01)

    def test_ordered_reliable_delivery(self):
        from repro.hardware.packet import Packet, PacketKind

        sim = Simulator()
        m = build_generic_machine(sim, 2, machine_params("meiko"))
        for i in range(20):
            m.node(0).nic.host_send(
                Packet(src=0, dst=1, kind=PacketKind.REQUEST, seq=i)
            )
        sim.run()
        rx = m.node(1).nic
        assert [rx.host_recv_consume().seq for _ in range(20)] == list(range(20))
