"""Rendezvous (RTS/CTS + simulated RDMA) large-message mode.

Covers mode selection (the ``xfer_mode`` knob and the auto crossover),
data integrity across the chunk boundary, protocol accounting (one RTS,
one CTS, one FIN, N RDMA chunks), exactly-once remote completion, grant
cleanup at quiescence, and pipelined/multi-node traffic.
"""

import pytest

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES, RDZV_CROSSOVER
from repro.hardware import build_sp_machine
from repro.sim import Simulator
from tests.am.conftest import run_pair, serve


def _payload(n, seed=0):
    return bytes((i * 37 + seed) % 256 for i in range(n))


def make_pair(xfer_mode):
    sim = Simulator()
    m = build_sp_machine(sim, 2)
    am0, am1 = attach_spam(m, xfer_mode=xfer_mode)
    return m, am0, am1


def _store(m, am0, am1, nbytes, seed=0):
    """One blocking store of ``nbytes``; returns the received bytes."""
    data = _payload(nbytes, seed)
    src = m.node(0).memory.alloc(nbytes)
    dst = m.node(1).memory.alloc(nbytes)
    m.node(0).memory.write(src, data)
    flag = [0]

    def sender():
        yield from am0.store(1, src, dst, nbytes)
        flag[0] = 1

    run_pair(m, sender(), serve(am1, flag), limit=1e8)
    return data, m.node(1).memory.read(dst, nbytes)


class TestModeSelection:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="xfer_mode"):
            make_pair("zero-copy")

    def test_eager_mode_never_sends_rts(self):
        m, am0, am1 = make_pair("eager")
        _store(m, am0, am1, 4 * CHUNK_BYTES)
        assert am0.stats.get("rts_sent") == 0

    def test_rendezvous_mode_always_handshakes(self):
        m, am0, am1 = make_pair("rendezvous")
        _store(m, am0, am1, 1)
        assert am0.stats.get("rts_sent") == 1
        assert am1.stats.get("cts_sent") == 1

    def test_auto_stays_eager_at_crossover(self):
        m, am0, am1 = make_pair("auto")
        _store(m, am0, am1, RDZV_CROSSOVER)
        assert am0.stats.get("rts_sent") == 0

    def test_auto_goes_rendezvous_above_crossover(self):
        m, am0, am1 = make_pair("auto")
        _store(m, am0, am1, RDZV_CROSSOVER + 1)
        assert am0.stats.get("rts_sent") == 1


class TestDataIntegrity:
    @pytest.mark.parametrize("nbytes", [
        1, 17, CHUNK_BYTES - 1, CHUNK_BYTES, CHUNK_BYTES + 1,
        3 * CHUNK_BYTES + 100, 30000,
    ])
    def test_store_moves_exact_bytes(self, nbytes):
        m, am0, am1 = make_pair("rendezvous")
        data, got = _store(m, am0, am1, nbytes)
        assert got == data

    def test_protocol_accounting_one_handshake_n_chunks(self):
        m, am0, am1 = make_pair("rendezvous")
        n = 2 * CHUNK_BYTES + 100  # 3 RDMA chunks
        _store(m, am0, am1, n)
        assert am0.stats.get("rts_sent") == 1
        assert am1.stats.get("rts_received") == 1
        assert am1.stats.get("cts_sent") == 1
        assert am0.stats.get("cts_received") == 1
        assert am0.stats.get("rdma_chunks_sent") == 3
        assert am0.stats.get("fins_sent") == 1
        assert am1.stats.get("rdma_recv_completed") == 1
        # the eager chunk path must not have been involved at all
        assert am0.stats.get("chunks_sent") == 0

    def test_completion_handler_runs_exactly_once(self):
        m, am0, am1 = make_pair("rendezvous")
        completions = []

        def on_complete(token, addr, nbytes, arg):
            completions.append((token.src, addr, nbytes, arg))

        n = 2 * CHUNK_BYTES
        src = m.node(0).memory.alloc(n)
        dst = m.node(1).memory.alloc(n)
        flag = [0]

        def sender():
            yield from am0.store(1, src, dst, n, handler=on_complete, arg=42)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        assert completions == [(0, dst, n, 42)]

    def test_grants_drained_at_quiescence(self):
        m, am0, am1 = make_pair("rendezvous")
        _store(m, am0, am1, 3 * CHUNK_BYTES)
        assert am1._rdma_grants == {}
        assert am0._rdma_grants == {}


class TestPipelined:
    def test_pipelined_async_stores_all_land(self):
        m, am0, am1 = make_pair("rendezvous")
        k, n = 8, 2 * CHUNK_BYTES + 33
        bufs = []
        for i in range(k):
            d = _payload(n, seed=i)
            s = m.node(0).memory.alloc(n)
            t = m.node(1).memory.alloc(n)
            m.node(0).memory.write(s, d)
            bufs.append((s, t, d))
        flag = [0]

        def sender():
            ops = []
            for s, t, _d in bufs:
                ops.append((yield from am0.store_async(1, s, t, n)))
            for op in ops:
                yield from am0.wait_op(op)
            flag[0] = 1

        run_pair(m, sender(), serve(am1, flag), limit=1e8)
        for _s, t, d in bufs:
            assert m.node(1).memory.read(t, n) == d
        assert am0.stats.get("rts_sent") == k
        assert am1.stats.get("rdma_recv_completed") == k
        assert am1._rdma_grants == {}

    def test_multi_node_all_pairs(self):
        sim = Simulator()
        m = build_sp_machine(sim, 4)
        ams = attach_spam(m, xfer_mode="rendezvous")
        n = 2 * CHUNK_BYTES
        bufs = {}
        for i in range(4):
            for j in range(4):
                if i != j:
                    s = m.node(i).memory.alloc(n)
                    d = m.node(j).memory.alloc(n)
                    data = _payload(n, seed=i * 16 + j)
                    m.node(i).memory.write(s, data)
                    bufs[(i, j)] = (s, d, data)
        done = [0]

        def prog(rank):
            def run():
                ops = []
                for j in range(4):
                    if j == rank:
                        continue
                    s, d, _ = bufs[(rank, j)]
                    op = yield from ams[rank].store_async(j, s, d, n)
                    ops.append(op)
                for op in ops:
                    yield from ams[rank].wait_op(op)
                done[0] += 1
                while done[0] < 4:
                    yield from ams[rank]._wait_progress()
            return run()

        procs = [sim.spawn(prog(r), name=f"r{r}") for r in range(4)]
        sim.run_until_processes_done(procs, limit=1e8)
        for (i, j), (_s, d, data) in bufs.items():
            assert m.node(j).memory.read(d, n) == data, (i, j)
        for am in ams:
            assert am._rdma_grants == {}
