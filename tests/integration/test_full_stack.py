"""Cross-layer integration: determinism, loss under MPI, mixed traffic.

These tests exercise the entire stack — hardware model, AM flow control,
MPI protocols, applications — under the conditions unit tests avoid:
repeated runs must be bit-identical, packet loss must be invisible above
the AM layer, and concurrent protocol traffic must not interfere.
"""

import pytest

from repro.am import attach_spam
from repro.apps.nas import run_bt, run_mg
from repro.apps.sample_sort import run_sample_sort
from repro.faults import FaultPlan, install_faults
from repro.hardware import build_sp_machine
from repro.hardware.packet import PacketKind
from repro.mpi import OPTIMIZED, attach_mpi
from repro.sim import Simulator
from tests.faults.rules import every_kth


class TestDeterminism:
    """Identical runs produce identical simulated timelines — the property
    the whole calibration methodology rests on."""

    def test_nas_kernel_deterministic(self):
        a = run_bt("mpi-am", nprocs=4, grid_n=8, iters=2)
        b = run_bt("mpi-am", nprocs=4, grid_n=8, iters=2)
        assert a.elapsed_s == b.elapsed_s

    def test_splitc_app_deterministic(self):
        a = run_sample_sort("sp-am", nprocs=4, keys_per_proc=256,
                            variant="small")
        b = run_sample_sort("sp-am", nprocs=4, keys_per_proc=256,
                            variant="small")
        assert a.elapsed_us == b.elapsed_us
        assert a.splits == b.splits

    def test_flow_control_recovery_deterministic(self):
        def run():
            sim = Simulator()
            m = build_sp_machine(sim, 2)
            inj = install_faults(m, FaultPlan(seed=0, rules=every_kth(11, 40)))
            am0, am1 = attach_spam(m)
            n = 30_000
            src = m.node(0).memory.alloc(n)
            dst = m.node(1).memory.alloc(n)
            flag = [0]

            def sender():
                yield from am0.store(1, src, dst, n)
                flag[0] = 1

            def receiver():
                while not flag[0]:
                    yield from am1._wait_progress()

            p = sim.spawn(sender())
            q = sim.spawn(receiver())
            sim.run_until_processes_done([p, q], limit=1e9)
            return sim.now, am0.stats.snapshot(), len(inj.injected)

        first = run()
        assert first == run()
        assert first[2] == 37


class TestLossUnderMPI:
    """Packet loss is an AM-layer concern; MPI and the applications above
    must see only (slower) success."""

    def _lossy_machine(self, nprocs, period, drops):
        """Drops every ``period``-th data, request or reply packet, at most
        ``drops`` times.  Every packet the rule spares is accepted at
        injection and settled on the one delivery path the lossless tests
        take, so §2.2's recovery runs under MPI on the claims' path."""
        sim = Simulator()
        m = build_sp_machine(sim, nprocs)
        inj = install_faults(m, FaultPlan(seed=0, rules=every_kth(
            period, drops, kinds={PacketKind.STORE_DATA, PacketKind.REQUEST,
                                  PacketKind.REPLY})))
        attach_spam(m)
        return m, attach_mpi(m, OPTIMIZED), inj

    @staticmethod
    def _retransmissions(m):
        return sum(node.am.stats.get("retransmissions") for node in m.nodes)

    @pytest.mark.parametrize("period", [23, 61])
    def test_mpi_p2p_survives_loss(self, period):
        m, mpis, inj = self._lossy_machine(2, period, 8)
        # 14 messages: 80 to 101 matching packets, so both periods land
        payloads = [bytes([i]) * (100 + 137 * i) for i in range(14)]
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    for i, p in enumerate(payloads):
                        yield from mpis[0].send(p, 1, tag=i)
                else:
                    for i, p in enumerate(payloads):
                        d, _ = yield from mpis[1].recv(len(p), 0, tag=i)
                        out.append(d)
            return go()

        procs = [m.sim.spawn(prog(r)) for r in range(2)]
        m.sim.run_until_processes_done(procs, limit=1e9,
                                       max_events=50_000_000)
        assert out == payloads
        assert len(inj.injected) == {23: 4, 61: 1}[period]
        assert self._retransmissions(m) > 0

    def test_mpi_collectives_survive_loss(self):
        import numpy as np

        # three drops inside the allreduce's 6 matching packets (a drop in
        # the closing barrier is never recovered: a rank that has returned
        # no longer serves its peer's go-back-N)
        m, mpis, inj = self._lossy_machine(4, 2, 3)
        out = {}

        def prog(rank):
            def go():
                res = yield from mpis[rank].allreduce(
                    np.array([rank + 1.0]), "sum")
                yield from mpis[rank].barrier()
                out[rank] = res[0]
            return go()

        procs = [m.sim.spawn(prog(r)) for r in range(4)]
        m.sim.run_until_processes_done(procs, limit=1e9,
                                       max_events=50_000_000)
        assert all(v == 10.0 for v in out.values())
        assert len(inj.injected) == 3
        assert self._retransmissions(m) > 0

    def test_loss_costs_time_but_not_correctness(self):
        """The same transfer, lossless vs lossy: identical data, strictly
        more simulated time under loss."""
        def run(drops):
            sim = Simulator()
            m = build_sp_machine(sim, 2)
            inj = install_faults(m, FaultPlan(seed=0, rules=every_kth(
                17, drops, kinds={PacketKind.STORE_DATA})))
            am0, am1 = attach_spam(m)
            n = 40_000
            data = bytes(i % 251 for i in range(n))
            src = m.node(0).memory.alloc(n)
            dst = m.node(1).memory.alloc(n)
            m.node(0).memory.write(src, data)
            flag = [0]

            def sender():
                yield from am0.store(1, src, dst, n)
                flag[0] = 1

            def receiver():
                while not flag[0]:
                    yield from am1._wait_progress()

            p = sim.spawn(sender())
            q = sim.spawn(receiver())
            sim.run_until_processes_done([p, q], limit=1e9)
            return (sim.now, m.node(1).memory.read(dst, n) == data,
                    len(inj.injected))

        t_clean, ok_clean, dropped_clean = run(0)
        t_lossy, ok_lossy, dropped_lossy = run(40)
        assert ok_clean and ok_lossy
        assert t_lossy > t_clean
        assert (dropped_clean, dropped_lossy) == (0, 30)


class TestMixedTraffic:
    def test_requests_stores_gets_interleave_across_nodes(self):
        """Four nodes running different protocol traffic simultaneously:
        per-peer per-channel windows must keep streams independent."""
        sim = Simulator()
        m = build_sp_machine(sim, 4)
        ams = attach_spam(m)
        n = 6000
        score = {"requests": 0, "stores": 0, "gets": 0}
        bufs = {r: (m.node(r).memory.alloc(n), m.node(r).memory.alloc(n))
                for r in range(4)}
        for r in range(4):
            m.node(r).memory.write(bufs[r][0], bytes([r + 1]) * n)

        def handler(token, i):
            score["requests"] += 1

        done = [0]

        def prog(rank):
            am = ams[rank]
            peer = (rank + 1) % 4
            for i in range(10):
                yield from am.request_1(peer, handler, i)
            yield from am.store(peer, bufs[rank][0], bufs[peer][1], n)
            score["stores"] += 1
            back = m.node(rank).memory.alloc(n)
            yield from am.get((rank + 2) % 4, bufs[(rank + 2) % 4][0],
                              back, n)
            assert m.node(rank).memory.read(back, n) == \
                bytes([(rank + 2) % 4 + 1]) * n
            score["gets"] += 1
            done[0] += 1
            while done[0] < 4:
                yield from am._wait_progress()

        procs = [sim.spawn(prog(r), name=f"mix{r}") for r in range(4)]
        sim.run_until_processes_done(procs, limit=1e9,
                                     max_events=50_000_000)
        assert score == {"requests": 40, "stores": 4, "gets": 4}
        for r in range(4):
            src_rank = (r - 1) % 4
            assert m.node(r).memory.read(bufs[r][1], n) == \
                bytes([src_rank + 1]) * n
